// The kernel hash aggregation and hash join as pipeline parts: the aggregation
// is a sink, the join a build over the collected right input plus a probe
// stage on the left's pipeline, all on the typed hash and accumulate kernels
// of kernels.go. Whether they claim a HashGroupBy or HashJoin node depends
// only on Ctx.Vectorize and the plan node — aggregate shapes, ExtraOn — never
// on the parallelism degree; an unclaimed node is a row operator (iter.go), a
// breaker fed by a collected pipeline. Claimed operators replicate the row
// implementation's observable behaviour exactly: the same counters
// (RowsProcessed, HashOps), the same memory reservations with the same spill
// fallbacks, and bit-identical output rows in the same order.
//
// Inside, nothing is per row except typed loops over arrays. Both operators
// index their keys with the flat hashTable of hashtable.go — int32 bucket
// and chain arrays plus a stored hash per entry, bucket taken from the
// finalized hash, keys compared column-wise on the typed payloads — where
// the join's entries are its build rows and the aggregation's are its
// groups. Group state is columnar and owned by the table: a pipeline's input
// row space lives for one morsel, so a new group's key is appended to the
// table's own typed key columns, which become the output key columns as they
// are; its aggregates are slots in per-aggregate arrays that grow once per
// morsel and become the output vectors. A probe gathers the columns a later
// stage reads, and only those, into its worker's scratch vectors.
package exec

import (
	"errors"
	"time"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// gatherInto gathers the src rows named by idx, in order, into the reused
// scratch vector *dst; negative indices produce NULL (the outer-join padding).
func gatherInto(dst **datum.Vec, src *datum.Vec, idx []int32) *datum.Vec {
	v := *dst
	if v == nil || src.Boxed() {
		v = newVecLike(src, len(idx))
		*dst = v
	} else {
		v.Reset(src.Kind())
	}
	datum.AppendGather(v, src, idx, 0)
	return v
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

// --- hash aggregation ---

// vecGroups is the aggregation's group table: a hashTable whose entry ids are
// the group ids, dense and in first-appearance order, over key columns of its
// own — keyCols[k] row e is group e's k-th key value, appended when the group
// is created, in the representation its first source had (codes under the
// source's dictionary included). Groups are charged to the memory account
// with the row path's exact per-entry model, once per morsel, so both trip
// the budget at the same input.
type vecGroups struct {
	table   hashTable
	n       int // groups; a scalar aggregation's one group always exists
	keyCols []*datum.Vec
	keys    keyEqs // a: the key columns being assigned from, b: keyCols
	hint    int
	nAggs   int
	mem     *MemAccount
	charged int64
	pending int64 // bytes of groups created since the last charge
}

func newVecGroups(nKeys, nAggs, hint int, mem *MemAccount) vecGroups {
	g := vecGroups{nAggs: nAggs, hint: hint, mem: mem}
	if nKeys == 0 {
		// Like newGroupTable, the single global group of a scalar aggregation
		// exists before any accounting and is never charged.
		g.n = 1
		return g
	}
	// A table sized for hint groups holds that many without reallocating.
	g.table.hash = make([]uint64, 0, hint)
	g.table.relink(hint)
	g.keyCols, g.keys = make([]*datum.Vec, nKeys), make(keyEqs, nKeys)
	return g
}

// bind aims the key comparison at the vectors assign will be given rows of.
func (g *vecGroups) bind(vecs []*datum.Vec, keyOff []int) {
	for kc, ko := range keyOff {
		if g.keyCols[kc] == nil {
			g.keyCols[kc] = newVecLike(vecs[ko], g.hint)
		}
		g.keys[kc] = newKeyEq(vecs[ko], g.keyCols[kc], true)
	}
}

// keySize is D.Size of row i of v, read off the payload.
func keySize(v *datum.Vec, i int) int64 {
	switch {
	case v.Boxed():
		return int64(v.Ds[i].Size())
	case v.Null(i) || v.Kind() == datum.KindBool:
		return 1
	case v.Dict != nil:
		return 1 + int64(len(v.Dict.Vals[v.Ints[i]]))
	case v.Kind() == datum.KindString:
		return 1 + int64(len(v.Strs[i]))
	}
	return 8
}

// assign returns the id of the group whose key is row i of the bound vectors
// (h is the row's finalized key hash), creating it on first sight.
func (g *vecGroups) assign(i int32, h uint64) int32 {
	t := &g.table
	for e := t.first(h); e >= 0; e = t.after(e) {
		if t.hash[e] == h && g.keys.equal(i, e) {
			return e
		}
	}
	g.pending += int64(entryOverhead + 48*g.nAggs)
	for kc := range g.keys {
		g.keyCols[kc].AppendVec(g.keys[kc].a, int(i))
		g.pending += keySize(g.keyCols[kc], g.n)
	}
	g.n++
	return t.insert(h)
}

// charge reserves the groups created since the last call.
func (g *vecGroups) charge() error {
	if g.pending == 0 {
		return nil
	}
	n := g.pending
	g.pending = 0
	if err := g.mem.GrowFloor("hash aggregation", n, g.charged, 0); err != nil {
		return err
	}
	g.charged += n
	return nil
}

func (g *vecGroups) release() {
	if g.charged > 0 {
		g.mem.Shrink(g.charged)
		g.charged = 0
	}
}

// vecAggWorker is one worker's thread-local aggregation state: its group
// table, one accumulator per aggregate over that table's group ids — created
// by the worker's first morsel for the representation (sigs) its argument
// columns have there — and the per-morsel group-id scratch.
type vecAggWorker struct {
	groups vecGroups
	accs   []vecAccumulator
	sigs   []uint8
	gids   []int32
}

// errMixedRepr reports that an aggregate's argument column changed its
// representation between morsels or workers (a stray kind boxed one morsel's
// vector): the typed accumulators cannot continue, and the aggregation
// re-runs over the collected input, whose vectors have one representation.
var errMixedRepr = errors.New("exec: aggregate argument changed representation")

// reprSig tells apart the argument representations newVecAccumulator
// distinguishes; 0 is COUNT(*)'s missing argument.
func reprSig(v *datum.Vec) uint8 {
	switch {
	case v == nil:
		return 0
	case v.Boxed():
		return 0x80
	}
	return 1 + uint8(v.Kind())
}

// fold merges another worker's table into a's: every group of o is looked up
// (or created) in a under its stored hash and key, then each accumulator —
// reserved once for the merged group count — merges o's per-group state into
// the mapped groups.
func (a *vecAggWorker) fold(o *vecAggWorker) error {
	for ai := range a.sigs {
		if a.sigs[ai] != o.sigs[ai] {
			return errMixedRepr
		}
	}
	gids := make([]int32, o.groups.n) // o's group id -> a's
	if len(a.groups.keys) > 0 {       // a scalar aggregation's one group is 0 in both
		for kc := range a.groups.keys {
			a.groups.keys[kc] = newKeyEq(o.groups.keyCols[kc], a.groups.keyCols[kc], true)
		}
		for g := range gids {
			gids[g] = a.groups.assign(int32(g), o.groups.table.hash[g])
		}
		if err := a.groups.charge(); err != nil {
			return err
		}
	}
	for ai, acc := range a.accs {
		acc.ensure(a.groups.n, a.groups.n)
		acc.merge(o.accs[ai], gids)
	}
	return nil
}

// aggSink is two-phase aggregation as a pipeline sink: every worker
// pre-aggregates its morsels into a thread-local table, and at the barrier
// the other workers' tables fold into the first's by key, accumulators
// merging exactly (compSum), so SUM and AVG are bit-identical at every worker
// count. One worker has nothing to fold: its table is the result, with
// groups in first-appearance order. All tables charge the query's shared
// memory account.
type aggSink struct {
	t              *physical.HashGroupBy
	keyOff, argOff []int // offsets in the input layout; argOff -1 is COUNT(*)
	hint           int
	workers        []vecAggWorker
}

// newAggSink returns the sink for t, or nil when the kernels do not cover it:
// a grouping column missing from the input, DISTINCT, or an argument that is
// not a plain column.
func newAggSink(t *physical.HashGroupBy) *aggSink {
	layout := t.Input.Columns()
	keyOff, err := offsetsOf(layout, t.GroupCols)
	if err != nil {
		return nil
	}
	s := &aggSink{t: t, keyOff: keyOff, argOff: make([]int, len(t.Aggs))}
	for i, a := range t.Aggs {
		col, isCol := a.Arg.(*logical.Col)
		switch {
		case a.Distinct:
			return nil
		case a.Arg == nil && a.Fn == logical.AggCount:
			s.argOff[i] = -1
		case !isCol:
			return nil
		default:
			if s.argOff[i] = (&Result{Cols: layout}).ColIndex(col.ID); s.argOff[i] < 0 {
				return nil
			}
		}
	}
	return s
}

func (s *aggSink) release() {
	for w := range s.workers {
		s.workers[w].groups.release()
	}
}

// arg returns aggregate ai's argument column in b, nil for COUNT(*).
func (s *aggSink) arg(b *Batch, ai int) *datum.Vec {
	if s.argOff[ai] < 0 {
		return nil
	}
	return b.Vecs[s.argOff[ai]]
}

// consume aggregates one morsel into worker w's table.
func (s *aggSink) consume(wc *Ctx, pw *pipeWorker, w, _ int, b *Batch) error {
	wk := &s.workers[w]
	chunk := pw.live(b)
	wc.Counters.RowsProcessed += int64(len(chunk))
	wc.Counters.HashOps += int64(len(chunk))
	if wk.accs == nil {
		wk.groups = newVecGroups(len(s.keyOff), len(s.t.Aggs), s.hint, wc.Mem)
		wk.accs, wk.sigs = make([]vecAccumulator, len(s.t.Aggs)), make([]uint8, len(s.t.Aggs))
		for ai, a := range s.t.Aggs {
			wk.accs[ai], wk.sigs[ai] = newVecAccumulator(a, s.arg(b, ai)), reprSig(s.arg(b, ai))
		}
	}
	for ai := range wk.sigs {
		if reprSig(s.arg(b, ai)) != wk.sigs[ai] {
			return errMixedRepr
		}
	}
	if cap(wk.gids) < len(chunk) {
		wk.gids = make([]int32, pw.scratch(len(chunk)))
	}
	gids := wk.gids[:len(chunk)]
	if len(s.keyOff) == 0 {
		clear(gids)
	} else {
		hs := pw.hashes(len(chunk))
		for _, ko := range s.keyOff {
			hashCombineVec(b.Vecs[ko], chunk, hs)
		}
		wk.groups.bind(b.Vecs, s.keyOff)
		for k, i := range chunk {
			gids[k] = wk.groups.assign(i, mixHash(hs[k]))
		}
		if err := wk.groups.charge(); err != nil {
			return err
		}
	}
	for ai, acc := range wk.accs {
		acc.ensure(wk.groups.n, s.hint)
		acc.accumulate(s.arg(b, ai), chunk, gids)
	}
	return nil
}

// run drives pl into the sink and returns the aggregated batch. Every
// reservation is released on return, so a caller that sees a budget error can
// spill with the whole budget available.
func (s *aggSink) run(c *Ctx, pl *pipeline) (*Batch, error) {
	n := pl.src.rows()
	nw := c.morselWorkers(n)
	// Pre-size the bucket arrays from the optimizer's group-count estimate,
	// capped (also by the rows one worker sees) so that neither a wild
	// overestimate nor the number of thread-local tables makes the presize
	// itself the cost.
	s.hint = max(0, min(int(s.t.Rows), 1<<20, (n+nw-1)/nw))
	s.workers = make([]vecAggWorker, nw)
	defer s.release()
	need := make([]bool, len(pl.layout()))
	for _, o := range s.keyOff {
		need[o] = true
	}
	for _, o := range s.argOff {
		if o >= 0 {
			need[o] = true
		}
	}
	if err := pl.run(need, s); err != nil {
		return nil, err
	}
	var final *vecAggWorker
	var tableRows, tableBytes int64
	for w := range s.workers {
		wk := &s.workers[w]
		if wk.accs == nil {
			continue
		}
		tableRows += int64(wk.groups.n)
		tableBytes += wk.groups.charged
		if final == nil {
			final = wk
		} else if err := final.fold(wk); err != nil {
			return nil, err
		}
	}
	if final == nil {
		// No row arrived: no group, or the empty scalar group.
		final = &s.workers[0]
		final.groups = newVecGroups(len(s.keyOff), len(s.t.Aggs), 0, c.Mem)
		null := datum.NewVec(datum.KindNull, 0)
		for ai, a := range s.t.Aggs {
			arg := null
			if s.argOff[ai] < 0 {
				arg = nil
			}
			final.accs = append(final.accs, newVecAccumulator(a, arg))
		}
		tableRows = int64(final.groups.n)
	}
	c.noteMem(tableRows)
	c.noteMemBytes(tableBytes)

	// The key columns are the table's own; the aggregate columns are the
	// accumulators' arrays.
	groups := final.groups.n
	out := &Batch{Cols: s.t.Columns(), n: groups}
	for _, v := range final.groups.keyCols {
		if v == nil {
			v = datum.NewVec(datum.KindNull, 0)
		}
		out.Vecs = append(out.Vecs, v)
	}
	for _, acc := range final.accs {
		acc.ensure(groups, groups) // scalar agg over empty input still emits
		out.Vecs = append(out.Vecs, acc.emit(groups))
	}
	pl.report(s.t, groups)
	return out, nil
}

// aggregate executes a kernel aggregation: the input's pipeline run into the
// aggregate sink. A budget trip in any worker, or in the fold, releases every
// table, re-runs the same pipeline into the collect sink and takes the
// partition-and-spill aggregation over that, like the row path; an argument
// column that changed representation mid-stream re-aggregates the collected
// input instead. The logical work of an aborted pass is rewound: the plan's
// work is the pass that completed.
func (c *Ctx) aggregate(t *physical.HashGroupBy, sink *aggSink) (*Batch, error) {
	pl, err := c.open(t.Input)
	if err != nil {
		return nil, err
	}
	defer pl.close()
	defer c.leave(c.enter(t))
	c.noteVectorized()
	work := c.Counters
	rewind := func() {
		c.Counters.RowsProcessed, c.Counters.HashOps, c.Counters.ExchangedRows = work.RowsProcessed, work.HashOps, work.ExchangedRows
	}
	out, err := sink.run(c, pl)
	if !isBudgetErr(err) && !errors.Is(err, errMixedRepr) {
		return out, err
	}
	rewind()
	in, cerr := pl.collect()
	if cerr != nil {
		return nil, cerr
	}
	pl.close()
	if !isBudgetErr(err) {
		work = c.Counters
		again := c.newPipeline(t.Input, &batchSource{in: in}, c.tick())
		again.srcDone = true
		if out, err = sink.run(c, again); !isBudgetErr(err) {
			return out, err
		}
		rewind()
	}
	rows, err := c.spillGroupBy(in.ToRows(), t.Input.Columns(), sink.keyOff, t.GroupCols, t.Aggs)
	if m := c.curNode; m != nil {
		m.Invocations++
		m.ActualRows += int64(len(rows))
		m.Pipeline = pl.an.id
		m.WallNanos += time.Since(pl.an.start).Nanoseconds()
	}
	if err != nil {
		return nil, err
	}
	return batchFromRows(t.Columns(), rows), nil
}

// --- hash join ---

// probeStage is the probe side of a kernel hash join: one hash table on the
// collected right input, shared read-only by every worker, probed with the
// left's morsels as they stream by. A morsel emits its (left, right) index
// pairs in probe order and gathers from them the columns a later stage reads,
// so the output row sequence is the same at every worker count.
type probeStage struct {
	t          *physical.HashJoin
	lOff, rOff []int
	right      *Batch
	table      hashTable
	buildRows  []int32 // per table entry: its row in right
	nLeft      int     // columns of the left layout
	need       []bool
	matched    matchedSets
	ws         []probeScratch
}

// probeScratch is one worker's index pairs, key comparators and output
// vectors.
type probeScratch struct {
	lIdx, rIdx []int32
	keys       keyEqs
	vecs       []*datum.Vec
	out        Batch
}

// kernelJoinKeys returns the key offsets of a join the kernels cover: no extra
// predicate, every key column present in its input.
func kernelJoinKeys(t *physical.HashJoin) (lOff, rOff []int, ok bool) {
	if len(t.ExtraOn) > 0 {
		return nil, nil, false
	}
	lOff, lerr := offsetsOf(t.Left.Columns(), t.LeftKeys)
	rOff, rerr := offsetsOf(t.Right.Columns(), t.RightKeys)
	return lOff, rOff, lerr == nil && rerr == nil
}

// openJoin opens the left input's pipeline and puts the probe of t on it,
// after running the right input to completion and building the table. A
// build side over budget degrades to the grace hash join on materialized
// rows, exactly like the row path, and a FULL OUTER join ends its pipeline —
// its unmatched build rows follow the last morsel — so both hand the stages
// above a materialized batch.
func (c *Ctx) openJoin(t *physical.HashJoin, lOff, rOff []int) (*pipeline, error) {
	began := c.tick()
	pl, err := c.open(t.Left)
	if err != nil {
		return nil, err
	}
	defer c.leave(c.enter(t))
	c.noteVectorized()
	built := c.tick()
	right, err := c.inputBatch(t.Right)
	if err != nil {
		pl.close()
		return nil, err
	}
	// handOff ends the join at a materialized batch, the source of whatever
	// streams above it.
	handOff := func(b *Batch) *pipeline {
		pl.close()
		out := c.newPipeline(t, &batchSource{in: b}, began)
		out.srcDone = true
		return out
	}
	buildBytes := batchRowBytes(right)
	if err := c.Mem.Grow("hash join build", buildBytes); err != nil {
		left, err := pl.collect()
		if err != nil {
			pl.close()
			return nil, err
		}
		pl.close()
		rows, err := c.graceHashJoin(t, left.ToRows(), right.ToRows(), lOff, rOff)
		if m := c.curNode; m != nil {
			m.Invocations++
			m.ActualRows += int64(len(rows))
			m.Pipeline = pl.an.id
			m.WallNanos += time.Since(began).Nanoseconds()
		}
		if err != nil {
			return nil, err
		}
		return handOff(batchFromRows(t.Columns(), rows)), nil
	}
	pl.release = append(pl.release, func() { c.Mem.Shrink(buildBytes) })
	c.noteMemBytes(buildBytes)

	// Build on the right: entry e of the table is the e-th build row with a
	// non-NULL key, in selection order, and chains keep that order, so every
	// probe sees its matches in the serial row order.
	st := &probeStage{t: t, lOff: lOff, rOff: rOff, right: right, nLeft: len(t.Left.Columns())}
	nr := right.NumRows()
	st.table.hash = make([]uint64, 0, nr)
	st.buildRows = make([]int32, 0, nr)
	rNullable := keyNullable(right.Vecs, rOff)
	var pw pipeWorker
	live := pw.live(right)
	for lo := 0; lo < nr; lo += MorselSize {
		chunk := live[lo:min(lo+MorselSize, nr)]
		hs := pw.hashes(len(chunk))
		for _, ro := range rOff {
			hashCombineVec(right.Vecs[ro], chunk, hs)
		}
		for k, ri := range chunk {
			if rNullable && vecNullAt(right.Vecs, rOff, int(ri)) {
				continue // NULL keys never match; FullOuter emits them below
			}
			st.table.hash = append(st.table.hash, mixHash(hs[k]))
			st.buildRows = append(st.buildRows, ri)
		}
	}
	c.Counters.HashOps += int64(len(st.buildRows))
	st.table.relink(len(st.buildRows))
	c.noteMem(int64(nr))
	pl.add(t, st)
	if pl.an != nil {
		pl.an.outside[len(pl.an.outside)-1] = time.Since(built).Nanoseconds()
	}
	switch t.Kind {
	case logical.InnerJoin, logical.LeftOuterJoin:
		pl.expands = true
	case logical.FullOuterJoin:
		probed, err := pl.collect()
		if err != nil {
			pl.close()
			return nil, err
		}
		out := st.withUnmatched(probed)
		if m := c.curNode; m != nil {
			m.ActualRows += int64(out.NumRows() - probed.NumRows())
		}
		return handOff(out), nil
	}
	return pl, nil
}

func (p *probeStage) bind(need []bool, workers int) []bool {
	p.need, p.ws = need, make([]probeScratch, workers)
	p.matched = newMatchedSets(p.t.Kind, workers, p.right.n)
	in := append([]bool(nil), need[:p.nLeft]...)
	for _, o := range p.lOff {
		in[o] = true
	}
	return in
}

func (p *probeStage) run(wc *Ctx, pw *pipeWorker, w int, in *Batch) (*Batch, error) {
	sc := &p.ws[w]
	if sc.vecs == nil {
		sc.vecs, sc.keys = make([]*datum.Vec, len(p.need)), make(keyEqs, len(p.lOff))
		sc.out.Cols, sc.out.Vecs = p.t.Columns(), make([]*datum.Vec, len(p.need))
	}
	chunk := pw.live(in)
	hs := pw.hashes(len(chunk))
	for k, lo := range p.lOff {
		hashCombineVec(in.Vecs[lo], chunk, hs)
		sc.keys[k] = newKeyEq(in.Vecs[lo], p.right.Vecs[p.rOff[k]], false)
	}
	// Emit (left, right) index pairs in probe order; ri = -1 pads unmatched
	// outer rows with NULLs at gather time. Semi and anti joins emit no right
	// side.
	kind, build, keys := p.t.Kind, &p.table, sc.keys
	semiShape := kind == logical.SemiJoin || kind == logical.AntiJoin
	lNullable := keyNullable(in.Vecs, p.lOff)
	lIdx, rIdx := sc.lIdx[:0], sc.rIdx[:0]
	for k, li := range chunk {
		found := false
		if !lNullable || !vecNullAt(in.Vecs, p.lOff, int(li)) {
			wc.Counters.HashOps++
			h := mixHash(hs[k])
			for e := build.first(h); e >= 0; e = build.after(e) {
				ri := p.buildRows[e]
				if build.hash[e] != h || !keys.equal(li, ri) {
					continue
				}
				wc.Counters.RowsProcessed++
				found = true
				p.matched.mark(w, int(ri))
				if semiShape {
					break
				}
				lIdx, rIdx = append(lIdx, li), append(rIdx, ri)
			}
		}
		switch {
		case semiShape:
			if found == (kind == logical.SemiJoin) {
				lIdx = append(lIdx, li)
			}
		case !found && kind != logical.InnerJoin:
			lIdx, rIdx = append(lIdx, li), append(rIdx, -1)
		}
	}
	sc.lIdx, sc.rIdx = lIdx, rIdx
	b := &sc.out
	b.n = len(lIdx)
	for ci, need := range p.need {
		switch {
		case !need:
		case ci < p.nLeft:
			b.Vecs[ci] = gatherInto(&sc.vecs[ci], in.Vecs[ci], lIdx)
		default:
			b.Vecs[ci] = gatherInto(&sc.vecs[ci], p.right.Vecs[ci-p.nLeft], rIdx)
		}
	}
	return b, nil
}

// withUnmatched appends to a FULL OUTER join's collected probe output the
// build rows no worker matched, NULL-padded on the left, in build order.
func (p *probeStage) withUnmatched(out *Batch) *Batch {
	var rIdx []int32
	for _, ri := range new(pipeWorker).live(p.right) {
		if !p.matched.any(int(ri)) {
			rIdx = append(rIdx, ri)
		}
	}
	if len(rIdx) == 0 {
		return out
	}
	pad := make([]int32, len(rIdx))
	for k := range pad {
		pad[k] = -1
	}
	res := &Batch{Cols: out.Cols, Vecs: make([]*datum.Vec, len(out.Vecs)), n: out.NumRows() + len(rIdx)}
	for ci, v := range out.Vecs {
		// The collected rows first (compacted if they carry a selection), then
		// the padding: left columns all NULL, right columns the build rows.
		nv := newVecLike(v, res.n)
		appendLive(nv, v, out)
		if ci < p.nLeft {
			datum.AppendGather(nv, v, pad, 0)
		} else {
			datum.AppendGather(nv, p.right.Vecs[ci-p.nLeft], rIdx, 0)
		}
		res.Vecs[ci] = nv
	}
	return res
}
