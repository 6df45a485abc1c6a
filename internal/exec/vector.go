// The hash aggregation as a pipeline sink, on the hash and accumulate kernels
// of kernels.go. It is the engine's only aggregation and claims every
// HashGroupBy and StreamGroupBy node at every setting: DISTINCT and
// expression arguments accumulate through the row accumulators (boxedVecAcc),
// stream aggregation is the sink on one worker, and with Ctx.Vectorize off
// every aggregate accumulates through the row accumulators. The counters
// (RowsProcessed, HashOps), the memory reservations with their spill
// fallback, and the output rows, bit for bit and in order, are the same at
// every worker count and setting.
//
// Inside, nothing is per row except typed loops over arrays. Groups are
// indexed by the flat hashTable of hashtable.go, whose entries are the group
// ids. Group state is columnar and owned by the table: a pipeline's input row
// space lives for one morsel, so a new group's key is appended to the table's
// own typed key columns, which become the output key columns as they are; its
// aggregates are slots in per-aggregate arrays that grow once per morsel and
// become the output vectors.
package exec

import (
	"errors"
	"slices"

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
// once per morsel, each with its key bytes, a per-entry overhead and a fixed
// cost per aggregate.
type vecGroups struct {
	table   hashTable
	n       int // groups; a scalar aggregation's one group always exists
	keyCols []*datum.Vec
	keys    keyMatch // the key columns being assigned from against keyCols
	hint    int
	nAggs   int
	mem     *MemAccount
	floor   int64 // a spilled partition's minimal working set (MemAccount.GrowFloor)
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
	g.keyCols = make([]*datum.Vec, nKeys)
	return g
}

// bind aims the key comparison at the vectors assign will be given rows of.
func (g *vecGroups) bind(vecs []*datum.Vec, keyOff []int) {
	for kc, ko := range keyOff {
		if g.keyCols[kc] == nil {
			g.keyCols[kc] = newVecLike(vecs[ko], g.hint)
		}
		g.keys.bind(kc, vecs[ko], g.keyCols[kc])
	}
}

// assign returns the id of the group whose key is row i of the bound vectors
// (h is the row's finalized key hash), creating it on first sight.
func (g *vecGroups) assign(i int32, h uint64) int32 {
	t := &g.table
	for e := t.first(h); e >= 0; e = t.after(e) {
		if t.hash[e] == h && g.keys.eq(int(i), int(e)) {
			return e
		}
	}
	g.pending += int64(entryOverhead + 48*g.nAggs)
	for kc := range g.keys.keys {
		src, _ := g.keys.keys[kc].Vecs()
		g.keyCols[kc].AppendVec(src, int(i))
		g.pending += int64(g.keyCols[kc].SizeAt(g.n))
	}
	g.n++
	return t.insert(h)
}

// charge reserves the groups created since the last call; a table without an
// account (stream aggregation's) charges nothing.
func (g *vecGroups) charge() error {
	if g.pending == 0 || g.mem == nil {
		g.pending = 0
		return nil
	}
	n, op := g.pending, "hash aggregation"
	g.pending = 0
	if g.floor > 0 {
		op = "hash aggregation partition"
	}
	if err := g.mem.GrowFloor(op, n, g.charged, g.floor); err != nil {
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
// columns have there — the per-morsel group-id scratch, and the expression
// arguments' row adapter and values.
type vecAggWorker struct {
	groups vecGroups
	accs   []vecAccumulator
	sigs   []uint8
	gids   []int32
	env    *env
	vals   [][]datum.D
}

// errMixedRepr reports that an aggregate's argument column changed its
// representation between morsels or workers (a stray kind boxed one morsel's
// vector): the typed accumulators cannot continue, and the aggregation
// re-runs over the collected input, whose vectors have one representation.
var errMixedRepr = errors.New("exec: aggregate argument changed representation")

// sigBoxed is the representation signature of a boxed argument column, and of
// every argument that accumulates through the row accumulators.
const sigBoxed = 0x80

// reprSig tells apart the argument representations newVecAccumulator
// distinguishes; 0 is COUNT(*)'s missing argument.
func reprSig(v *datum.Vec) uint8 {
	switch {
	case v == nil:
		return 0
	case v.Boxed():
		return sigBoxed
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
	if len(a.groups.keyCols) > 0 {    // a scalar aggregation's one group is 0 in both
		for kc, v := range o.groups.keyCols {
			a.groups.keys.bind(kc, v, a.groups.keyCols[kc])
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

// aggSink is hash and stream aggregation as a pipeline sink. Hash aggregation
// is two-phase: every worker pre-aggregates its morsels into a thread-local
// table, and at the barrier the other workers' tables fold into the first's
// by key, accumulators merging exactly (exactSums), so SUM and AVG are
// bit-identical at every worker count. One worker has nothing to fold: its
// table is the result, with groups in first-appearance order. All tables
// charge the query's shared memory account. Stream aggregation is the sink
// on one worker, uncharged: its groups come out in the input's order.
type aggSink struct {
	node   physical.Plan // the HashGroupBy or StreamGroupBy
	input  physical.Plan
	keys   []logical.ColumnID
	aggs   []logical.AggItem
	est    float64 // the optimizer's group-count estimate
	stream bool
	keyOff []int
	// argOff is each aggregate's argument: an input column, argCountStar, or
	// the input width plus the index in exprs of an expression, which is
	// evaluated per morsel into its worker's values, dense over the live rows.
	argOff   []int
	exprs    []logical.Scalar
	exprCols []int  // input columns the expressions read
	boxed    []bool // per aggregate: accumulate through the row accumulators
	width    int    // input columns
	hint     int
	// partition marks a spilled partition's sink: its groups are charged with
	// the spill floor, and its last aggregate, the first-row tag that orders
	// the groups, is bookkeeping the per-group model does not charge.
	partition bool
	workers   []vecAggWorker
}

const argCountStar = -1

// newAggSink returns the sink of a HashGroupBy or StreamGroupBy. A grouping
// column missing from the input is an execution error; an argument column
// missing from it is an expression, which fails to evaluate like any
// unbound reference.
func (c *Ctx) newAggSink(p physical.Plan) (*aggSink, error) {
	s := &aggSink{node: p}
	switch t := p.(type) {
	case *physical.HashGroupBy:
		s.input, s.keys, s.aggs, s.est = t.Input, t.GroupCols, t.Aggs, t.Rows
	case *physical.StreamGroupBy:
		s.input, s.keys, s.aggs, s.est, s.stream = t.Input, t.GroupCols, t.Aggs, t.Rows, true
	}
	layout := s.input.Columns()
	var err error
	if s.keyOff, err = colOffsets(layout, s.keys, "key"); err != nil {
		return nil, err
	}
	s.width, s.argOff, s.boxed = len(layout), make([]int, len(s.aggs)), make([]bool, len(s.aggs))
	for i, a := range s.aggs {
		switch col, isCol := a.Arg.(*logical.Col); {
		case a.Arg == nil:
			s.argOff[i] = argCountStar
		case isCol && slices.Contains(layout, col.ID):
			s.argOff[i] = slices.Index(layout, col.ID)
		default:
			s.argOff[i], s.exprs = s.width+len(s.exprs), append(s.exprs, a.Arg)
		}
		s.boxed[i] = !c.Vectorize || a.Distinct || s.argOff[i] >= s.width
	}
	s.exprCols = colsRead(layout, s.exprs...)
	return s, nil
}

func (s *aggSink) release() {
	for w := range s.workers {
		s.workers[w].groups.release()
	}
}

// newAcc returns aggregate ai's accumulator and representation signature
// for argument column arg (nil for COUNT(*)).
func (s *aggSink) newAcc(ai int, arg *datum.Vec) (vecAccumulator, uint8) {
	if s.boxed[ai] {
		return &boxedVecAcc{item: s.aggs[ai]}, sigBoxed
	}
	return newVecAccumulator(s.aggs[ai], arg), reprSig(arg)
}

// arg returns aggregate ai's argument column in morsel b of worker wk and the
// selection to read it under: the live rows of an input column, all rows of
// an evaluated expression's dense values.
func (s *aggSink) arg(pw *pipeWorker, wk *vecAggWorker, b *Batch, chunk []int32, ai int) (*datum.Vec, []int32) {
	switch off := s.argOff[ai]; {
	case off == argCountStar:
		return nil, chunk
	case off < s.width:
		return b.Vecs[off], chunk
	default:
		return datum.NewBoxedVec(wk.vals[off-s.width]), pw.identity(len(chunk))
	}
}

// consume aggregates one morsel into worker w's table.
func (s *aggSink) consume(wc *Ctx, pw *pipeWorker, w, _ int, b *Batch) error {
	wk := &s.workers[w]
	chunk := pw.live(b)
	wc.Counters.RowsProcessed += int64(len(chunk))
	if !s.stream {
		wc.Counters.HashOps += int64(len(chunk))
	}
	if len(s.exprs) > 0 {
		if wk.env == nil {
			wk.env, wk.vals = wc.rowEnv(s.input.Columns()), make([][]datum.D, len(s.exprs))
		}
		if err := wc.evalLive(pw, wk.env, s.exprs, s.exprCols, b, wk.vals); err != nil {
			return err
		}
	}
	if wk.accs == nil {
		mem := wc.Mem
		if s.stream {
			mem = nil
		}
		wk.groups = newVecGroups(len(s.keyOff), len(s.aggs), s.hint, mem)
		if s.partition {
			wk.groups.nAggs, wk.groups.floor = len(s.aggs)-1, spillFloor
		}
		wk.accs, wk.sigs = make([]vecAccumulator, len(s.aggs)), make([]uint8, len(s.aggs))
		for ai := range s.aggs {
			arg, _ := s.arg(pw, wk, b, chunk, ai)
			wk.accs[ai], wk.sigs[ai] = s.newAcc(ai, arg)
		}
	}
	for ai, sig := range wk.sigs {
		// The row accumulators take any representation; a typed one only its
		// own.
		if arg, _ := s.arg(pw, wk, b, chunk, ai); sig != sigBoxed && reprSig(arg) != sig {
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
		arg, sel := s.arg(pw, wk, b, chunk, ai)
		acc.accumulate(arg, sel, gids)
	}
	return nil
}

// run drives pl into the sink and returns the aggregated batch. Every
// reservation is released on return, so a caller that sees a budget error can
// spill with the whole budget available.
func (s *aggSink) run(c *Ctx, pl *pipeline) (*Batch, error) {
	n, nw := pl.src.rows(), pl.degree()
	// Pre-size the bucket arrays from the optimizer's group-count estimate,
	// capped (also by the rows one worker sees) so that neither a wild
	// overestimate nor the number of thread-local tables makes the presize
	// itself the cost.
	s.hint = max(0, min(int(s.est), 1<<20, (n+nw-1)/nw))
	s.workers = make([]vecAggWorker, nw)
	defer s.release()
	need := make([]bool, len(pl.layout()))
	for _, o := range s.keyOff {
		need[o] = true
	}
	for _, o := range s.argOff {
		if o >= 0 && o < s.width {
			need[o] = true
		}
	}
	for _, o := range s.exprCols {
		need[o] = true
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
		final.groups = newVecGroups(len(s.keyOff), len(s.aggs), 0, nil)
		null := datum.NewVec(datum.KindNull, 0)
		for ai := range s.aggs {
			arg := null
			if s.argOff[ai] == argCountStar {
				arg = nil
			}
			acc, _ := s.newAcc(ai, arg)
			final.accs = append(final.accs, acc)
		}
		tableRows = int64(final.groups.n)
	}
	c.noteMem(tableRows)
	c.noteMemBytes(tableBytes)

	// The key columns are the table's own; the aggregate columns are the
	// accumulators' arrays.
	groups := final.groups.n
	out := &Batch{Cols: s.node.Columns(), n: groups}
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
	pl.report(s.node, groups)
	return out, nil
}

// aggregate executes a HashGroupBy or StreamGroupBy: the input's pipeline run
// into the aggregate sink. A budget trip in any worker, or in the fold,
// releases every table, re-runs the same pipeline into the collect sink and
// runs the sink per partition of that (spillAggregate); an argument column
// that changed representation mid-stream re-aggregates the collected input
// instead. The logical work of an aborted pass is rewound: the plan's work is
// the pass that completed.
func (c *Ctx) aggregate(p physical.Plan) (*Batch, error) {
	sink, err := c.newAggSink(p)
	if err != nil {
		return nil, err
	}
	began := c.tick()
	pl, err := c.open(sink.input)
	if err != nil {
		return nil, err
	}
	pl.serial = sink.stream
	defer pl.close()
	defer c.leave(c.enter(p))
	c.noteVectorized()
	work := c.Counters
	rewind := func() {
		c.Counters.RowsProcessed, c.Counters.HashOps = work.RowsProcessed, work.HashOps
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
		again := c.newPipeline(sink.input, &batchSource{in: in}, c.tick())
		again.srcDone, again.serial = true, sink.stream
		if out, err = sink.run(c, again); !isBudgetErr(err) {
			return out, err
		}
		rewind()
	}
	if out, err = c.spillAggregate(sink, in); err != nil {
		return nil, err
	}
	c.noteFallback(pl, began, out.NumRows())
	return out, nil
}
