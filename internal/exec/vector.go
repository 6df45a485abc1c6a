// The kernel implementations of hash aggregation and hash join: they consume
// and produce columnar batches (batch.go) through the typed hash and
// accumulate kernels in kernels.go. execPlan offers a HashGroupBy or HashJoin
// node to them when Ctx.Vectorize allows kernels; whether they claim it
// depends only on the plan node — aggregate shapes, ExtraOn — never on the
// parallelism degree, and an unclaimed node runs the row implementation in
// iter.go. Claimed operators replicate the row implementation's observable
// behaviour exactly: the same counters (RowsProcessed, HashOps), the same
// memory reservations with the same spill fallbacks, and bit-identical
// output rows in the same order.
//
// Inside, nothing is per row except typed loops over arrays. Both operators
// index their keys with the flat hashTable of hashtable.go — int32 bucket
// and chain arrays plus a stored hash per entry, bucket taken from the
// finalized hash, keys compared column-wise on the typed payloads — where
// the join's entries are its build rows and the aggregation's are its
// groups. Group state is columnar: a group is the input row that first
// showed its key (firstRow), its aggregates are slots in per-aggregate
// arrays that grow once per morsel and become the output vectors, and the
// output key columns are one typed gather of the input's key columns.
// Output is materialized by datum.AppendGather, one typed loop per column
// and index list. Live rows are walked morsel by morsel (selBufs); no
// batch-sized identity vector is built.
package exec

import (
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// identSel returns the identity selection vector [0, n).
func identSel(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// selBufs hands each worker of a morsel loop the live row indices of its
// morsels without ever materializing a batch-sized identity vector: a slice
// of the batch's selection vector, or — when every row is live — the run
// lo..hi-1 written into the worker's one morsel of scratch.
type selBufs [][]int32

func newSelBufs(workers int) selBufs { return make(selBufs, workers) }

// morsel returns the row indices at selection positions [lo, hi), valid until
// worker w asks for its next morsel.
func (s selBufs) morsel(b *Batch, w, lo, hi int) []int32 {
	if b.Sel != nil {
		return b.Sel[lo:hi]
	}
	if s[w] == nil {
		s[w] = make([]int32, min(b.n, MorselSize))
	}
	buf := s[w][:hi-lo]
	for k := range buf {
		buf[k] = int32(lo + k)
	}
	return buf
}

// keyNullable reports whether a key column may hold a NULL, so the per-row
// NULL-key test is worth running.
func keyNullable(vecs []*datum.Vec, offs []int) bool {
	for _, o := range offs {
		if v := vecs[o]; v.Boxed() || v.Kind() == datum.KindNull || v.HasNulls() {
			return true
		}
	}
	return false
}

// vecNullAt reports whether any of the key columns is NULL at row i.
func vecNullAt(vecs []*datum.Vec, offs []int, i int) bool {
	for _, o := range offs {
		if vecs[o].Null(i) {
			return true
		}
	}
	return false
}

// --- vectorized hash aggregation ---

// vecGroups is the batch path's group table: a hashTable whose entry ids are
// the group ids, dense and in first-appearance order. A group's key is never
// copied out while aggregating — firstRow names the input row that created
// the group, key equality compares the input's key columns against
// themselves at that row, and the output key columns are one typed gather of
// firstRow at the end. Every table over one input shares that row space, so
// folding another worker's table needs neither the key values nor a rehash.
// Groups are charged to the memory account with the row path's exact
// per-entry model so both trip the budget at the same input.
type vecGroups struct {
	table    hashTable
	firstRow []int32
	keys     keyEqs // the input's key columns, each compared with itself
	nAggs    int
	mem      *MemAccount
	charged  int64
}

func newVecGroups(in *Batch, keyOff []int, nAggs, hint int, mem *MemAccount) vecGroups {
	g := vecGroups{nAggs: nAggs, mem: mem}
	if len(keyOff) == 0 {
		// Like newGroupTable, the single global group of a scalar aggregation
		// exists before any accounting and is never charged.
		g.firstRow = []int32{0}
		return g
	}
	// A table sized for hint groups holds that many without reallocating.
	g.table.hash = make([]uint64, 0, hint)
	g.table.relink(hint)
	g.firstRow = make([]int32, 0, hint)
	g.keys = make(keyEqs, len(keyOff))
	for kc, ko := range keyOff {
		g.keys[kc] = newKeyEq(in.Vecs[ko], in.Vecs[ko], true)
	}
	return g
}

func (g *vecGroups) release() {
	if g.charged > 0 {
		g.mem.Shrink(g.charged)
		g.charged = 0
	}
}

// assign returns the id of the group whose key is input row i's (h is the
// row's finalized key hash), creating and charging the group on first sight.
func (g *vecGroups) assign(i int32, h uint64) (int32, error) {
	t := &g.table
	for e := t.first(h); e >= 0; e = t.after(e) {
		if t.hash[e] == h && g.keys.equal(i, g.firstRow[e]) {
			return e, nil
		}
	}
	n := int64(entryOverhead + 48*g.nAggs)
	for kc := range g.keys {
		n += int64(g.keys[kc].a.D(int(i)).Size())
	}
	if err := g.mem.GrowFloor("hash aggregation", n, g.charged, 0); err != nil {
		return 0, err
	}
	g.charged += n
	g.firstRow = append(g.firstRow, i)
	return t.insert(h), nil
}

// vecAggWorker is one worker's thread-local aggregation state: its group
// table, one accumulator per aggregate over that table's group ids, and the
// per-morsel group-id scratch.
type vecAggWorker struct {
	groups vecGroups
	accs   []vecAccumulator
	gids   []int32
}

// fold merges another worker's table into a's: every group of o is looked up
// (or created) in a under its stored hash and first row, then each
// accumulator merges o's per-group state into the mapped groups.
func (a *vecAggWorker) fold(o *vecAggWorker) error {
	gids := make([]int32, len(o.groups.firstRow)) // o's group id -> a's
	if len(a.groups.keys) > 0 {                   // a scalar aggregation's one group is 0 in both
		for g, row := range o.groups.firstRow {
			var err error
			if gids[g], err = a.groups.assign(row, o.groups.table.hash[g]); err != nil {
				return err
			}
		}
	}
	for ai, acc := range a.accs {
		acc.ensure(len(a.groups.firstRow), 0)
		acc.merge(o.accs[ai], gids)
	}
	return nil
}

// vecGroupBy is two-phase aggregation over a batch: every worker
// pre-aggregates its morsels into a thread-local table, and at the barrier
// the other workers' tables fold into worker 0's by key, accumulators merging
// exactly (compSum), so SUM and AVG are bit-identical at every worker count.
// One worker has nothing to fold: its table is the result, with groups in
// first-appearance order. All tables charge the query's shared memory
// account; a budget trip in any worker, or in the fold, releases every table
// and takes the partition-and-spill aggregation once, like the row path.
func (c *Ctx) vecGroupBy(t *physical.HashGroupBy) (*Batch, bool, error) {
	layout := t.Input.Columns()
	keyOff, err := offsetsOf(layout, t.GroupCols)
	if err != nil {
		return nil, false, nil
	}
	argOff := make([]int, len(t.Aggs))
	for i, a := range t.Aggs {
		if a.Distinct {
			return nil, false, nil
		}
		if a.Arg == nil {
			if a.Fn != logical.AggCount {
				return nil, false, nil
			}
			argOff[i] = -1
			continue
		}
		col, isCol := a.Arg.(*logical.Col)
		if !isCol {
			return nil, false, nil
		}
		if argOff[i] = (&Result{Cols: layout}).ColIndex(col.ID); argOff[i] < 0 {
			return nil, false, nil
		}
	}

	in, err := c.inputBatch(t.Input)
	if err != nil {
		return nil, true, err
	}
	args := make([]*datum.Vec, len(t.Aggs)) // nil for COUNT(*)
	for i := range t.Aggs {
		if argOff[i] >= 0 {
			args[i] = in.Vecs[argOff[i]]
		}
	}
	scalar := len(keyOff) == 0
	n := in.NumRows()
	nw := c.morselWorkers(n)
	// Pre-size the bucket arrays from the optimizer's group-count estimate,
	// capped (also by the rows one worker sees) so that neither a wild
	// overestimate nor the number of thread-local tables makes the presize
	// itself the cost.
	hint := max(0, min(int(t.Rows), 1<<20, (n+nw-1)/nw))
	workers := make([]*vecAggWorker, nw)
	for w := range workers {
		wk := &vecAggWorker{
			groups: newVecGroups(in, keyOff, len(t.Aggs), hint, c.Mem),
			accs:   make([]vecAccumulator, len(t.Aggs)),
			gids:   make([]int32, min(n, MorselSize)),
		}
		for i, a := range t.Aggs {
			if wk.accs[i] = newVecAccumulator(a, args[i]); wk.accs[i] == nil {
				return nil, false, nil
			}
		}
		workers[w] = wk
	}
	release := func() {
		for _, wk := range workers {
			wk.groups.release()
		}
	}
	defer release()

	sels := newSelBufs(nw)
	err = c.forMorsels(n, func(wc *Ctx, m, lo, hi int) error {
		wk := workers[m%nw]
		chunk := sels.morsel(in, m%nw, lo, hi)
		wc.Counters.RowsProcessed += int64(len(chunk))
		wc.Counters.HashOps += int64(len(chunk))
		gids := wk.gids[:len(chunk)]
		if scalar {
			clear(gids)
		} else {
			hs := getHashBuf(len(chunk))
			hashInit(hs)
			for _, ko := range keyOff {
				hashCombineVec(in.Vecs[ko], chunk, hs)
			}
			var err error
			for k, i := range chunk {
				if gids[k], err = wk.groups.assign(i, mixHash(hs[k])); err != nil {
					break
				}
			}
			putHashBuf(hs)
			if err != nil {
				return err
			}
		}
		for ai, acc := range wk.accs {
			acc.ensure(len(wk.groups.firstRow), hint)
			acc.accumulate(args[ai], chunk, gids)
		}
		return nil
	})
	final := workers[0]
	for _, wk := range workers[1:] {
		if err == nil {
			err = final.fold(wk)
		}
	}
	if isBudgetErr(err) {
		// Degrade to the partition-and-spill aggregation with the whole
		// budget available again, exactly like the row path.
		release()
		var out []datum.Row
		if out, err = c.spillGroupBy(in.ToRows(), layout, keyOff, t.GroupCols, t.Aggs); err == nil {
			return batchFromRows(t.Columns(), out), true, nil
		}
	}
	if err != nil {
		return nil, true, err
	}
	groups := final.groups.firstRow
	var tableRows, tableBytes int64
	for _, wk := range workers {
		tableRows += int64(len(wk.groups.firstRow))
		tableBytes += wk.groups.charged
	}
	c.noteMem(tableRows)
	c.noteMemBytes(tableBytes)

	// The key columns are the input's key columns gathered at each group's
	// first row; the aggregate columns are the accumulators' own arrays.
	outCols := t.Columns()
	vecs := make([]*datum.Vec, len(outCols))
	for kc, ko := range keyOff {
		vecs[kc] = gatherVec(in.Vecs[ko], groups)
	}
	for ai, acc := range final.accs {
		acc.ensure(len(groups), 0) // scalar agg over empty input still emits
		vecs[len(keyOff)+ai] = acc.emit(len(groups))
	}
	return &Batch{Cols: outCols, Vecs: vecs, n: len(groups)}, true, nil
}

// --- vectorized hash join ---

// gatherVec materializes the src rows named by the index lists, in list
// order, into a fresh vector; negative indices produce NULL (the outer-join
// padding).
func gatherVec(src *datum.Vec, parts ...[]int32) *datum.Vec {
	n := 0
	for _, idx := range parts {
		n += len(idx)
	}
	var out *datum.Vec
	if src.Boxed() {
		out = datum.NewAnyVec(n)
	} else {
		out = datum.NewVec(src.Kind(), n)
	}
	for _, idx := range parts {
		datum.AppendGather(out, src, idx, 0)
	}
	return out
}

// vecHashJoin builds one hash table on the right input, shared read-only by
// every worker, and probes it with the left morsel-wise. Each morsel emits
// its own (left, right) index pairs, and the output columns are gathered from
// the per-morsel lists in morsel order — one column per worker turn — so the
// output row sequence is the same at every worker count.
func (c *Ctx) vecHashJoin(t *physical.HashJoin) (*Batch, bool, error) {
	if len(t.ExtraOn) > 0 {
		return nil, false, nil
	}
	leftLayout, rightLayout := t.Left.Columns(), t.Right.Columns()
	lOff, err := offsetsOf(leftLayout, t.LeftKeys)
	if err != nil {
		return nil, false, nil
	}
	rOff, err := offsetsOf(rightLayout, t.RightKeys)
	if err != nil {
		return nil, false, nil
	}
	left, err := c.inputBatch(t.Left)
	if err != nil {
		return nil, true, err
	}
	right, err := c.inputBatch(t.Right)
	if err != nil {
		return nil, true, err
	}
	buildBytes := batchRowBytes(right)
	if err := c.Mem.Grow("hash join build", buildBytes); err != nil {
		// Build side over budget: degrade to the grace hash join on
		// materialized rows, exactly like the row path.
		out, jerr := c.graceHashJoin(t, left.ToRows(), right.ToRows(), lOff, rOff)
		if jerr != nil {
			return nil, true, jerr
		}
		return batchFromRows(t.Columns(), out), true, nil
	}
	defer c.Mem.Shrink(buildBytes)
	c.noteMemBytes(buildBytes)

	// Build on the right: entry e of the table is the e-th build row with a
	// non-NULL key, in selection order, and chains keep that order, so every
	// probe sees its matches in the serial row order.
	nr := right.NumRows()
	var build hashTable
	build.hash = make([]uint64, 0, nr)
	buildRows := make([]int32, 0, nr)
	rNullable := keyNullable(right.Vecs, rOff)
	rsels := newSelBufs(1)
	for lo := 0; lo < nr; lo += MorselSize {
		chunk := rsels.morsel(right, 0, lo, min(lo+MorselSize, nr))
		hs := getHashBuf(len(chunk))
		hashInit(hs)
		for _, ro := range rOff {
			hashCombineVec(right.Vecs[ro], chunk, hs)
		}
		for k, ri := range chunk {
			if rNullable && vecNullAt(right.Vecs, rOff, int(ri)) {
				continue // NULL keys never match; FullOuter emits them below
			}
			build.hash = append(build.hash, mixHash(hs[k]))
			buildRows = append(buildRows, ri)
		}
		putHashBuf(hs)
	}
	c.Counters.HashOps += int64(len(buildRows))
	build.relink(len(buildRows))
	c.noteMem(int64(nr))
	keys := make(keyEqs, len(lOff))
	for k := range lOff {
		keys[k] = newKeyEq(left.Vecs[lOff[k]], right.Vecs[rOff[k]], false)
	}

	// Probe the left in selection order, emitting (left, right) index pairs
	// per morsel; ri = -1 pads unmatched outer rows with NULLs at gather time.
	// Semi and anti joins emit no right side.
	nl := left.NumRows()
	semiShape := t.Kind == logical.SemiJoin || t.Kind == logical.AntiJoin
	nm, nw := numMorsels(nl), c.morselWorkers(nl)
	lParts, rParts := make([][]int32, nm, nm+1), make([][]int32, nm, nm+1)
	matched := newMatchedSets(t.Kind, nw, right.n)
	lNullable := keyNullable(left.Vecs, lOff)
	lsels := newSelBufs(nw)
	err = c.forMorsels(nl, func(wc *Ctx, m, lo, hi int) error {
		chunk := lsels.morsel(left, m%nw, lo, hi)
		hs := getHashBuf(len(chunk))
		hashInit(hs)
		for _, lo2 := range lOff {
			hashCombineVec(left.Vecs[lo2], chunk, hs)
		}
		lIdx := make([]int32, 0, len(chunk))
		var rIdx []int32
		if !semiShape {
			rIdx = make([]int32, 0, len(chunk))
		}
		for k, li := range chunk {
			found := false
			if !lNullable || !vecNullAt(left.Vecs, lOff, int(li)) {
				wc.Counters.HashOps++
				h := mixHash(hs[k])
				for e := build.first(h); e >= 0; e = build.after(e) {
					ri := buildRows[e]
					if build.hash[e] != h || !keys.equal(li, ri) {
						continue
					}
					wc.Counters.RowsProcessed++
					found = true
					matched.mark(m%nw, int(ri))
					switch t.Kind {
					case logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin:
						lIdx = append(lIdx, li)
						rIdx = append(rIdx, ri)
					case logical.SemiJoin:
						lIdx = append(lIdx, li)
					}
					if semiShape {
						break
					}
				}
			}
			switch t.Kind {
			case logical.LeftOuterJoin, logical.FullOuterJoin:
				if !found {
					lIdx = append(lIdx, li)
					rIdx = append(rIdx, -1)
				}
			case logical.AntiJoin:
				if !found {
					lIdx = append(lIdx, li)
				}
			}
		}
		putHashBuf(hs)
		lParts[m], rParts[m] = lIdx, rIdx
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	if matched != nil {
		var lIdx, rIdx []int32
		for lo := 0; lo < nr; lo += MorselSize {
			for _, ri := range rsels.morsel(right, 0, lo, min(lo+MorselSize, nr)) {
				if !matched.any(int(ri)) {
					lIdx = append(lIdx, -1)
					rIdx = append(rIdx, ri)
				}
			}
		}
		lParts, rParts = append(lParts, lIdx), append(rParts, rIdx)
	}

	outCols := t.Columns()
	vecs := make([]*datum.Vec, len(outCols))
	total := 0
	for _, idx := range lParts {
		total += len(idx)
	}
	err = c.forColumns(total, len(vecs), func(_ *Ctx, ci int) error {
		if ci < len(leftLayout) {
			vecs[ci] = gatherVec(left.Vecs[ci], lParts...)
		} else {
			vecs[ci] = gatherVec(right.Vecs[ci-len(leftLayout)], rParts...)
		}
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	return &Batch{Cols: outCols, Vecs: vecs, n: total}, true, nil
}
