// The streaming stages of a pipeline below the joins: the scan sources, the
// filter and the projection — one implementation each, at every setting.
// They share one way of evaluating a conjunction: the conjuncts compilePreds
// can turn into typed kernels refine a selection vector over column vectors
// first, and the residual conjuncts (LIKE, arithmetic, IN, subqueries, UDFs —
// or everything when Ctx.Vectorize is off) run row-at-a-time over the
// kernels' survivors through the row adapter, filterSel; expressions that
// compute values (projection items, aggregate arguments) run through its
// other half, evalLive. A morsel leaves a
// stage as its input's column vectors under a narrower selection; the rows a
// filter rejects are never copied, and a scan loads a column once per morsel,
// when the first stage that reads it is reached.
package exec

import (
	"fmt"
	"slices"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// filterSel is the row adapter between column vectors and the row-at-a-time
// expression evaluator: for each row named by sel, the columns the predicates
// read (offs) are rebuilt into e's one reused row, and the row is kept when
// every predicate is TRUE — with first, only the first such row, and no row
// after it is evaluated. Survivors are appended to dst, which may share sel's
// storage (a survivor is never written ahead of the read position).
func (c *Ctx) filterSel(preds []logical.Scalar, e *env, vecs []*datum.Vec, offs []int, sel, dst []int32, first bool) ([]int32, error) {
	ectx := c.evalCtx(e)
	for _, i := range sel {
		for _, j := range offs {
			e.row[j] = vecs[j].D(int(i))
		}
		ok, err := allTrue(preds, ectx)
		if err != nil {
			return nil, err
		}
		if ok {
			if dst = append(dst, i); first {
				break
			}
		}
	}
	return dst, nil
}

// evalLive is the row adapter's other half: it evaluates exprs over the live
// rows of b, reading the columns reads into e's reused row, so that vals[x][k]
// is exprs[x] over row k of the selection. vals[x] is resized to the live row
// count, reusing its storage.
func (c *Ctx) evalLive(pw *pipeWorker, e *env, exprs []logical.Scalar, reads []int, b *Batch, vals [][]datum.D) error {
	live := pw.live(b)
	for x := range vals {
		if cap(vals[x]) < len(live) {
			vals[x] = make([]datum.D, pw.scratch(len(live)))
		}
		vals[x] = vals[x][:len(live)]
	}
	ectx := c.evalCtx(e)
	for k, row := range live {
		for _, j := range reads {
			e.row[j] = b.Vecs[j].D(int(row))
		}
		for x, ex := range exprs {
			v, err := logical.Eval(ex, ectx)
			if err != nil {
				return err
			}
			vals[x][k] = v
		}
	}
	return nil
}

// rowEnv returns an env over layout with a reusable row for filterSel,
// chained to the outer row when c runs a subquery's sub-plan.
func (c *Ctx) rowEnv(layout []logical.ColumnID) *env {
	e := newEnv(layout, c.outer)
	e.row = make(datum.Row, len(layout))
	return e
}

// colsRead returns the offsets in layout of the columns the scalars read,
// correlated references of their subqueries included.
func colsRead(layout []logical.ColumnID, scalars ...logical.Scalar) []int {
	var set logical.ColSet
	for _, s := range scalars {
		set = set.Union(logical.ScalarCols(s))
	}
	var offs []int
	for j, id := range layout {
		if set.Contains(id) {
			offs = append(offs, j)
		}
	}
	return offs
}

// conjunction is a filter's predicate split for evaluation: the conjuncts with
// a kernel, the residual ones, and the columns the residual ones read.
type conjunction struct {
	layout   []logical.ColumnID
	compiled []compiledPred
	residual []logical.Scalar
	resCols  []int
}

func (c *Ctx) newConjunction(preds []logical.Scalar, layout []logical.ColumnID) conjunction {
	j := conjunction{layout: layout}
	j.compiled, j.residual = c.compilePreds(preds, layout)
	j.resCols = colsRead(layout, j.residual...)
	return j
}

// empty reports that there is no conjunct: every row passes.
func (j *conjunction) empty() bool { return len(j.compiled)+len(j.residual) == 0 }

// reads marks the columns the conjunction reads in need.
func (j *conjunction) reads(need []bool) {
	for _, p := range j.compiled {
		for _, ci := range p.cols() {
			need[ci] = true
		}
	}
	for _, ci := range j.resCols {
		need[ci] = true
	}
}

// conjScratch is one worker's selection buffer and row adapter env.
type conjScratch struct {
	sel []int32
	env *env
}

// apply narrows cur, the live rows of b, to those every conjunct holds for:
// the compiled conjuncts first — load is called for the columns each one
// reads before it runs, so a morsel the kernels empty never touches the other
// columns — then the residual ones; with first, the residual ones stop at the
// first row that passes (a semi or anti join's first match). The result lives
// in s.sel unless there was no conjunct at all.
func (j *conjunction) apply(wc *Ctx, s *conjScratch, b *Batch, cur []int32, load func(ci int) error, first bool) ([]int32, error) {
	if s.sel == nil {
		s.sel = make([]int32, 0, len(cur))
	}
	dst := s.sel[:0]
	for _, p := range j.compiled {
		for _, ci := range p.cols() {
			if err := load(ci); err != nil {
				return nil, err
			}
		}
		cur = applyPred(b, p, cur, dst)
		if dst = cur[:0]; len(cur) == 0 {
			break
		}
	}
	if len(j.residual) > 0 && len(cur) > 0 {
		for _, ci := range j.resCols {
			if err := load(ci); err != nil {
				return nil, err
			}
		}
		if s.env == nil {
			s.env = wc.rowEnv(j.layout)
		}
		var err error
		if cur, err = wc.filterSel(j.residual, s.env, b.Vecs, j.resCols, cur, dst, first); err != nil {
			return nil, err
		}
		dst = cur[:0]
	}
	s.sel = dst
	return cur, nil
}

// --- scan ---

// scanSource is the morsel source over a table: every row position
// [0, RowCount), or the posting list ids of an index scan (byID). Per morsel,
// in this order:
//
//  1. the zone-map disposition (table scans over sealed segments): an
//     eliminated morsel costs nothing — no I/O, no checkpoint — and a
//     morsel every conjunct provably matches keeps all rows unevaluated;
//  2. step("scan"): exactly one fault/cancel checkpoint per non-eliminated
//     morsel, on absolute morsel boundaries;
//  3. load the columns a compiled conjunct reads and run it, refining the
//     selection — and again for the next one;
//  4. load what the residual conjuncts read and run them over the survivors
//     through the row adapter;
//  5. load the columns a later stage reads that no conjunct did. A column
//     is loaded at most once per morsel, into the worker's reused vector,
//     and never for a morsel the filter empties.
type scanSource struct {
	tab    *storage.Table
	ords   []int // base-table ordinal of each scan column
	ids    []int
	byID   bool
	n      int
	filter conjunction
	pruner *scanPruner
	need   []bool
	ws     []scanScratch // per worker
	ws1    [1]scanScratch
}

// scanScratch is one worker's working state across the morsels of a scan: a
// reusable vector per scan column, created by the first morsel that reads the
// column and holding rows exactly while the current morsel has loaded it
// (in vecBuf up to its size), the filter's scratch and the batch handed to
// the next stage.
type scanScratch struct {
	vecs   []*datum.Vec
	vecBuf [6]*datum.Vec
	conj   conjScratch
	out    Batch
}

func (c *Ctx) newScanSource(tab *storage.Table, cols []logical.ColumnID, ords []int, filter []logical.Scalar) *scanSource {
	s := &scanSource{tab: tab, ords: ords}
	if s.filter = c.newConjunction(filter, cols); len(s.filter.compiled) > 0 {
		c.noteVectorized()
	}
	return s
}

func (s *scanSource) rows() int { return s.n }

func (s *scanSource) bind(need []bool, workers int) {
	if s.need, s.ws = need, s.ws1[:]; workers > 1 {
		s.ws = make([]scanScratch, workers)
	}
}

// load fills column ci of rows [lo, hi) into the worker's vector unless this
// morsel already did.
func (s *scanSource) load(wc *Ctx, sc *scanScratch, ci, lo, hi int) error {
	v := sc.vecs[ci]
	switch {
	case v == nil:
		v = datum.NewVec(wc.Meta.Column(s.filter.layout[ci]).Kind, min(s.n, MorselSize))
		sc.vecs[ci] = v
	case v.Len() > 0:
		return nil
	}
	if s.byID {
		return wc.fillIDs(s.tab, s.ords[ci], s.ids[lo:hi], v)
	}
	return wc.fillRange(s.tab, s.ords[ci], lo, hi, v)
}

func (s *scanSource) morsel(wc *Ctx, pw *pipeWorker, w, lo, hi int) (*Batch, error) {
	disp := storage.ZoneSome
	if s.pruner != nil {
		disp = s.pruner.dispRange(lo, hi)
	}
	if disp == storage.ZoneNone {
		return nil, nil
	}
	if err := wc.step("scan"); err != nil {
		return nil, err
	}
	wc.Counters.RowsProcessed += int64(hi - lo)
	sc := &s.ws[w]
	if sc.vecs == nil {
		if sc.vecs = sc.vecBuf[:min(len(s.ords), len(sc.vecBuf))]; len(s.ords) > len(sc.vecBuf) {
			sc.vecs = make([]*datum.Vec, len(s.ords))
		}
		sc.out.Cols, sc.out.Vecs = s.filter.layout, sc.vecs
	}
	for ci, v := range sc.vecs {
		if v != nil {
			v.Reset(wc.Meta.Column(s.filter.layout[ci]).Kind)
		}
	}
	b := &sc.out
	b.Sel, b.n = nil, hi-lo
	load := func(ci int) error { return s.load(wc, sc, ci, lo, hi) }
	if !s.filter.empty() && !(disp == storage.ZoneAll && s.pruner.full) {
		sel, err := s.filter.apply(wc, &sc.conj, b, pw.identity(hi-lo), load, false)
		if err != nil || len(sel) == 0 {
			return nil, err
		}
		if len(sel) < hi-lo {
			b.Sel = sel
		}
	}
	for ci, need := range s.need {
		if need {
			if err := load(ci); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func (c *Ctx) openTableScan(t *physical.TableScan) (*pipeline, error) {
	tab, ok := c.Store.Table(t.Table.Name)
	if !ok {
		return nil, fmt.Errorf("exec: no storage for table %s", t.Table.Name)
	}
	began := c.tick()
	defer c.leave(c.enter(t))
	src := c.newScanSource(tab, t.Cols, t.ColOrds, t.Filter)
	src.n = tab.RowCount()
	if src.pruner = c.buildPruner(tab, t.Filter, t.Cols, t.ColOrds); src.pruner != nil {
		c.notePruner(src.pruner)
	}
	return c.newPipeline(t, src, began), nil
}

// openIndexScan resolves the index condition to a posting list and scans it.
func (c *Ctx) openIndexScan(t *physical.IndexScan) (*pipeline, error) {
	began := c.tick()
	defer c.leave(c.enter(t))
	tab, ix, err := c.index(t.Table.Name, t.Index.Name)
	if err != nil {
		return nil, err
	}
	c.Counters.IndexSeeks++
	var buf [4]datum.D
	eq, lo, hi := t.Keys(c.params, buf[:0])
	ids := ix.Seek(eq, lo, t.LoIncl, hi, t.HiIncl)
	src := c.newScanSource(tab, t.Cols, t.ColOrds, t.Filter)
	src.ids, src.byID, src.n = ids, true, len(ids)
	return c.newPipeline(t, src, began), nil
}

// batchSource streams a materialized batch — the output of the breaker below
// — morsel by morsel over its live rows, without copying: every morsel is the
// batch's own vectors under a slice of its selection vector, or, when every
// row is live, under the run lo..hi-1 written into the worker's scratch.
type batchSource struct {
	in *Batch
	ws []batchScratch
}

type batchScratch struct {
	out Batch
	run []int32
}

func (s *batchSource) rows() int { return s.in.NumRows() }

func (s *batchSource) bind(_ []bool, workers int) { s.ws = make([]batchScratch, workers) }

func (s *batchSource) morsel(_ *Ctx, _ *pipeWorker, w, lo, hi int) (*Batch, error) {
	sc := &s.ws[w]
	sc.out = *s.in
	switch {
	case s.in.Sel != nil:
		sc.out.Sel = s.in.Sel[lo:hi]
	case hi-lo < s.in.n:
		if sc.run == nil {
			sc.run = make([]int32, MorselSize)
		}
		sc.out.Sel = sc.run[:hi-lo]
		for k := range sc.out.Sel {
			sc.out.Sel[k] = int32(lo + k)
		}
	}
	return &sc.out, nil
}

// --- filter ---

// filterStage refines the morsel's selection vector: the compiled conjuncts
// first, then the residual ones through the row adapter. The output shares
// the input's column vectors.
type filterStage struct {
	conj conjunction
	ws   []filterScratch
}

type filterScratch struct {
	conj conjScratch
	out  Batch
}

func (c *Ctx) newFilterStage(t *physical.Filter) *filterStage {
	f := &filterStage{conj: c.newConjunction(t.Preds, t.Input.Columns())}
	if len(f.conj.compiled) > 0 && c.Metrics != nil {
		c.Metrics.Node(t).Vectorized = true
	}
	return f
}

func (f *filterStage) bind(need []bool, workers int) []bool {
	f.ws = make([]filterScratch, workers)
	in := append([]bool(nil), need...)
	f.conj.reads(in)
	return in
}

func noLoad(int) error { return nil }

func (f *filterStage) run(wc *Ctx, pw *pipeWorker, w int, in *Batch) (*Batch, error) {
	wc.Counters.RowsProcessed += int64(in.NumRows())
	sc := &f.ws[w]
	sel, err := f.conj.apply(wc, &sc.conj, in, pw.live(in), noLoad, false)
	if err != nil || len(sel) == 0 {
		return nil, err
	}
	sc.out = *in
	if in.Sel != nil || len(sel) < in.n {
		sc.out.Sel = sel
	}
	return &sc.out, nil
}

// --- project ---

// projectStage computes the projection items. Column references share the
// input's vectors; expressions are evaluated through the row adapter into one
// boxed vector per item, dense over the live rows, and the referenced columns
// a later stage reads are then gathered to the same positions.
type projectStage struct {
	t     *physical.Project
	src   []int            // per item: the input column it references, -1 for an expression
	exprs []logical.Scalar // the expression items, in item order
	reads []int            // input columns the expressions read
	need  []bool
	ws    []projectScratch
}

type projectScratch struct {
	out  Batch
	env  *env
	vals [][]datum.D  // per expression: its values, reused
	vecs []*datum.Vec // per referenced column: its gather target, reused
}

func newProjectStage(t *physical.Project) *projectStage {
	layout := t.Input.Columns()
	p := &projectStage{t: t, src: make([]int, len(t.Items))}
	for i, it := range t.Items {
		p.src[i] = -1
		if col, ok := it.Expr.(*logical.Col); ok {
			p.src[i] = slices.Index(layout, col.ID)
		}
		if p.src[i] < 0 {
			p.exprs = append(p.exprs, it.Expr)
		}
	}
	p.reads = colsRead(layout, p.exprs...)
	return p
}

func (p *projectStage) bind(need []bool, workers int) []bool {
	p.need, p.ws = need, make([]projectScratch, workers)
	in := make([]bool, len(p.t.Input.Columns()))
	for i, off := range p.src {
		if off >= 0 && need[i] {
			in[off] = true
		}
	}
	for _, off := range p.reads {
		in[off] = true
	}
	return in
}

func (p *projectStage) run(wc *Ctx, pw *pipeWorker, w int, in *Batch) (*Batch, error) {
	n := in.NumRows()
	wc.Counters.RowsProcessed += int64(n)
	sc := &p.ws[w]
	if sc.out.Vecs == nil {
		sc.out.Cols, sc.out.Vecs = p.t.Columns(), make([]*datum.Vec, len(p.src))
		sc.vals, sc.vecs = make([][]datum.D, len(p.exprs)), make([]*datum.Vec, len(p.src))
	}
	b := &sc.out
	b.Sel, b.n = in.Sel, in.n
	for i, off := range p.src {
		if off >= 0 {
			b.Vecs[i] = in.Vecs[off]
		}
	}
	if len(p.exprs) == 0 {
		// Pure column selection: a projection costs len(items) pointer
		// copies, not a row copy.
		return b, nil
	}
	if sc.env == nil {
		sc.env = wc.rowEnv(p.t.Input.Columns())
	}
	if err := wc.evalLive(pw, sc.env, p.exprs, p.reads, in, sc.vals); err != nil {
		return nil, err
	}
	x := 0
	for i, off := range p.src {
		switch {
		case off < 0:
			b.Vecs[i] = datum.NewBoxedVec(sc.vals[x])
			x++
		case in.Sel != nil && p.need[i]:
			b.Vecs[i] = gatherInto(&sc.vecs[i], in.Vecs[off], in.Sel)
		}
	}
	b.Sel, b.n = nil, n
	return b, nil
}
