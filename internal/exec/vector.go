// The kernel implementations of hash aggregation and hash join: they consume
// and produce columnar batches (batch.go) through the typed hash and
// accumulate kernels in kernels.go. execPlan offers a HashGroupBy or HashJoin
// node to them when Ctx.Vectorize allows kernels; whether they claim it
// depends only on the plan node — aggregate shapes, ExtraOn — never on the
// parallelism degree, and an unclaimed node runs the row implementation in
// iter.go. Claimed operators replicate the row implementation's observable
// behaviour exactly: the same counters (RowsProcessed, HashOps), the same
// memory reservations with the same spill fallbacks, and bit-identical
// output rows.
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

// liveSel returns the batch's live row indices, materializing the identity
// when no selection vector is present.
func (b *Batch) liveSel() []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	return identSel(b.n)
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

// vecGroups is the batch path's group table: hash-bucketed group ids over
// interned key rows, charged to the memory account with the row path's exact
// per-entry model so both trip the budget at the same input.
type vecGroups struct {
	byHash  map[uint64][]int32
	keys    []datum.Row
	keyOff  []int
	nAggs   int
	mem     *MemAccount
	charged int64
}

func (g *vecGroups) release() {
	if g.charged > 0 {
		g.mem.Shrink(g.charged)
		g.charged = 0
	}
}

// assign returns the group id of batch row i, creating (and charging) the
// group on first sight. Group ids are dense and in first-appearance order, so
// emitting groups by id reproduces the row path's insertion order.
func (g *vecGroups) assign(in *Batch, i int, h uint64) (int32, error) {
	for _, gid := range g.byHash[h] {
		key := g.keys[gid]
		match := true
		for kc, ko := range g.keyOff {
			if !datum.Equal(in.Vecs[ko].D(i), key[kc]) {
				match = false
				break
			}
		}
		if match {
			return gid, nil
		}
	}
	key := make(datum.Row, len(g.keyOff))
	for kc, ko := range g.keyOff {
		key[kc] = in.Vecs[ko].D(i)
	}
	return g.insert(key, h)
}

// adopt returns the id of the group with a key another worker's table
// interned, creating (and charging) it when this table has not seen the key.
// hashCombineD encodes a datum exactly like hashCombineVec encodes its vector
// slot, so the key rehashes to the bucket assign would have used.
func (g *vecGroups) adopt(key datum.Row) (int32, error) {
	h := fnvOffset64
	for _, d := range key {
		h = hashCombineD(h, d)
	}
	for _, gid := range g.byHash[h] {
		if keysEqual(g.keys[gid], key) {
			return gid, nil
		}
	}
	return g.insert(key, h)
}

func (g *vecGroups) insert(key datum.Row, h uint64) (int32, error) {
	n := int64(key.Size()) + entryOverhead + int64(48*g.nAggs)
	if err := g.mem.GrowFloor("hash aggregation", n, g.charged, 0); err != nil {
		return 0, err
	}
	g.charged += n
	gid := int32(len(g.keys))
	g.keys = append(g.keys, key)
	g.byHash[h] = append(g.byHash[h], gid)
	return gid, nil
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
// (or created) in a by key, then each accumulator merges o's per-group state
// into the mapped groups.
func (a *vecAggWorker) fold(o *vecAggWorker) error {
	gids := make([]int32, len(o.groups.keys)) // o's group id -> a's
	if len(a.groups.keyOff) > 0 {             // a scalar aggregation's one group is 0 in both
		for g, key := range o.groups.keys {
			var err error
			if gids[g], err = a.groups.adopt(key); err != nil {
				return err
			}
		}
	}
	for ai, acc := range a.accs {
		acc.ensure(len(a.groups.keys))
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
	sel := in.liveSel()
	nw := c.morselWorkers(len(sel))
	// Pre-size hash buckets from the optimizer's group-count estimate, capped
	// (also by the rows one worker sees) so that neither a wild overestimate
	// nor the number of thread-local tables makes the presize itself the cost.
	hint := max(0, min(int(t.Rows), 1<<20, (len(sel)+nw-1)/nw))
	workers := make([]*vecAggWorker, nw)
	for w := range workers {
		wk := &vecAggWorker{
			groups: vecGroups{byHash: make(map[uint64][]int32, hint), keyOff: keyOff, nAggs: len(t.Aggs), mem: c.Mem},
			accs:   make([]vecAccumulator, len(t.Aggs)),
			gids:   make([]int32, min(len(sel), MorselSize)),
		}
		if scalar {
			// Like newGroupTable, the single global group of a scalar aggregation
			// exists before any accounting and is never charged.
			wk.groups.keys = append(wk.groups.keys, nil)
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

	err = c.forMorsels(len(sel), func(wc *Ctx, m, lo, hi int) error {
		wk := workers[m%len(workers)]
		chunk := sel[lo:hi]
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
				if gids[k], err = wk.groups.assign(in, int(i), hs[k]); err != nil {
					break
				}
			}
			putHashBuf(hs)
			if err != nil {
				return err
			}
		}
		for ai, acc := range wk.accs {
			acc.ensure(len(wk.groups.keys))
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
	groups := final.groups.keys
	var tableRows, tableBytes int64
	for _, wk := range workers {
		tableRows += int64(len(wk.groups.keys))
		tableBytes += wk.groups.charged
	}
	c.noteMem(tableRows)
	c.noteMemBytes(tableBytes)

	outCols := t.Columns()
	vecs := make([]*datum.Vec, len(outCols))
	for kc := range keyOff {
		v := datum.NewVec(datum.KindNull, len(groups))
		for _, key := range groups {
			v.AppendD(key[kc])
		}
		vecs[kc] = v
	}
	for ai, acc := range final.accs {
		acc.ensure(len(groups)) // scalar agg over empty input still emits
		v := datum.NewVec(datum.KindNull, len(groups))
		for gid := range groups {
			v.AppendD(acc.result(gid))
		}
		vecs[len(keyOff)+ai] = v
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
		for _, i := range idx {
			if i < 0 {
				out.AppendNull()
			} else {
				out.AppendVec(src, int(i))
			}
		}
	}
	return out
}

// vecKeysEqual reports whether the join keys match, with the row path's
// datum.EqualOn semantics (NULLs are pre-filtered by the callers).
func vecKeysEqual(l *Batch, lOff []int, li int, r *Batch, rOff []int, ri int) bool {
	for k := range lOff {
		if !datum.Equal(l.Vecs[lOff[k]].D(li), r.Vecs[rOff[k]].D(ri)) {
			return false
		}
	}
	return true
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

	// Build on the right: bucket lists hold batch row indices in selection
	// order, so every probe sees its matches in the serial row order.
	rsel := right.liveSel()
	build := make(map[uint64][]int32, len(rsel))
	for lo := 0; lo < len(rsel); lo += MorselSize {
		hi := min(lo+MorselSize, len(rsel))
		chunk := rsel[lo:hi]
		hs := getHashBuf(len(chunk))
		hashInit(hs)
		for _, ro := range rOff {
			hashCombineVec(right.Vecs[ro], chunk, hs)
		}
		for k, ri := range chunk {
			if vecNullAt(right.Vecs, rOff, int(ri)) {
				continue // NULL keys never match; FullOuter emits them below
			}
			c.Counters.HashOps++
			build[hs[k]] = append(build[hs[k]], ri)
		}
		putHashBuf(hs)
	}
	c.noteMem(int64(right.NumRows()))

	// Probe the left in selection order, emitting (left, right) index pairs
	// per morsel; ri = -1 pads unmatched outer rows with NULLs at gather time.
	// Semi and anti joins emit no right side.
	lsel := left.liveSel()
	semiShape := t.Kind == logical.SemiJoin || t.Kind == logical.AntiJoin
	nm, nw := numMorsels(len(lsel)), c.morselWorkers(len(lsel))
	lParts, rParts := make([][]int32, nm, nm+1), make([][]int32, nm, nm+1)
	matched := newMatchedSets(t.Kind, nw, right.n)
	err = c.forMorsels(len(lsel), func(wc *Ctx, m, lo, hi int) error {
		chunk := lsel[lo:hi]
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
			if !vecNullAt(left.Vecs, lOff, int(li)) {
				wc.Counters.HashOps++
				for _, ri := range build[hs[k]] {
					if !vecKeysEqual(left, lOff, int(li), right, rOff, int(ri)) {
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
		for _, ri := range rsel {
			if !matched.any(int(ri)) {
				lIdx = append(lIdx, -1)
				rIdx = append(rIdx, ri)
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
