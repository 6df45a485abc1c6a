package exec

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// Run executes a physical plan to completion and returns the materialized
// result in the plan's layout.
func Run(p physical.Plan, c *Ctx) (*Result, error) {
	rows, err := c.runPlan(p)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: p.Columns(), Rows: rows}, nil
}

// RunPlanQuery executes a physical plan for a query: run, order, project.
func RunPlanQuery(p physical.Plan, q *logical.Query, c *Ctx) (*Result, error) {
	res, err := Run(p, c)
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 && !q.OrderBy.SatisfiedBy(p.Ordering()) {
		if err := c.sortResult(res, q.OrderBy); err != nil {
			return nil, err
		}
	}
	return presentation(res, q)
}

// sortResult sorts rows in place by the ordering over the result layout. An
// ORDER BY column missing from the layout is an execution error — silently
// returning unsorted rows would hide a planner bug.
func (c *Ctx) sortResult(res *Result, by logical.Ordering) error {
	spec := make([]datum.SortSpec, len(by))
	for i, o := range by {
		off := res.ColIndex(o.Col)
		if off < 0 {
			return fmt.Errorf("exec: ORDER BY column @%d not in result layout", int(o.Col))
		}
		spec[i] = datum.SortSpec{Col: off, Desc: o.Desc}
	}
	c.noteMem(int64(len(res.Rows)))
	need := rowSetBytes(res.Rows)
	if err := c.Mem.Grow("sort", need); err != nil {
		// The sort buffer does not fit the budget: degrade to an external
		// merge sort, which emits the identical stable order.
		rows, serr := c.externalSortRows(res.Rows, spec)
		if serr != nil {
			return serr
		}
		res.Rows = rows
		return nil
	}
	defer c.Mem.Shrink(need)
	c.noteMemBytes(need)
	rows, err := c.sortRows(res.Rows, spec)
	if err == nil {
		res.Rows = rows
	}
	return err
}

// run executes one operator and returns its materialized output: a columnar
// batch (everything that streams — the pipeline ending at p, collected or
// aggregated) or rows (the row operators) — exactly one of the two is set.
// Every operator entry doubles as a cancellation checkpoint. Analyze mode
// meters row operators here and pipelines per stage (pipeline.go); the nil
// check is the entire cost of the instrumentation when analyze is off.
func (c *Ctx) run(p physical.Plan) (*Batch, []datum.Row, error) {
	if err := c.canceled(); err != nil {
		return nil, nil, err
	}
	switch p.(type) {
	case *physical.HashGroupBy, *physical.StreamGroupBy:
		return batchOf(c.aggregate(p))
	}
	if c.streams(p) {
		pl, err := c.open(p)
		if err != nil {
			return nil, nil, err
		}
		defer pl.close()
		return batchOf(pl.collect())
	}
	if c.Metrics == nil {
		return c.execPlan(p)
	}
	m := c.Metrics.Node(p)
	m.Invocations++
	m.Pipeline = c.Metrics.NewPipeline()
	defer c.leave(c.enter(p))
	start := time.Now()
	b, rows, err := c.execPlan(p)
	m.WallNanos += time.Since(start).Nanoseconds()
	if b != nil {
		m.ActualRows += int64(b.NumRows())
	} else {
		m.ActualRows += int64(len(rows))
	}
	return b, rows, err
}

// enter makes p the operator being analyzed — what noteMem, noteSpill and
// their like report to — and returns the previous one for leave. Without
// analyze both do nothing.
func (c *Ctx) enter(p physical.Plan) *physical.NodeMetrics {
	prev := c.curNode
	if c.Metrics != nil {
		c.curNode = c.Metrics.Node(p)
	}
	return prev
}

func (c *Ctx) leave(prev *physical.NodeMetrics) { c.curNode = prev }

// runPlan is run for row consumers: batch output is materialized to rows.
func (c *Ctx) runPlan(p physical.Plan) ([]datum.Row, error) {
	b, rows, err := c.run(p)
	if b != nil {
		rows = b.ToRows()
	}
	return rows, err
}

// inputBatch is run for batch consumers: row output is converted to a batch.
func (c *Ctx) inputBatch(p physical.Plan) (*Batch, error) {
	b, rows, err := c.run(p)
	if err != nil {
		return nil, err
	}
	if b == nil {
		b = batchFromRows(p.Columns(), rows)
	}
	return b, nil
}

// noteFallback meters an operator that finished on materialized rows — a
// spilling fallback, which its pipeline never reports — with the rows it
// produced and the time since began.
func (c *Ctx) noteFallback(pl *pipeline, began time.Time, rows int) {
	if m := c.curNode; m != nil {
		m.Invocations++
		m.ActualRows += int64(rows)
		m.Pipeline = pl.an.id
		m.WallNanos += time.Since(began).Nanoseconds()
	}
}

// noteVectorized marks the operator being analyzed as having run at least one
// predicate conjunct, hash or aggregate on a typed kernel — which a hash join
// or aggregation does exactly when kernels are on.
func (c *Ctx) noteVectorized() {
	if c.curNode != nil && c.Vectorize {
		c.curNode.Vectorized = true
	}
}

// rowsOf and batchOf lift an operator's single-form result into run's
// (batch, rows, error) return.
func rowsOf(rows []datum.Row, err error) (*Batch, []datum.Row, error) { return nil, rows, err }
func batchOf(b *Batch, err error) (*Batch, []datum.Row, error)        { return b, nil, err }

// streams reports whether p is a pipeline stage rather than a breaker: a
// scan, a filter or a projection, an exchange over a streaming input, the
// probe of a hash join. It depends on the plan alone: Ctx.Vectorize decides
// which kernels the stages compile, never which operators run.
func (c *Ctx) streams(p physical.Plan) bool {
	switch t := p.(type) {
	case *physical.TableScan, *physical.IndexScan, *physical.Filter, *physical.Project, *physical.HashJoin:
		return true
	case *physical.Exchange:
		return c.streams(t.Input)
	}
	return false
}

// open returns the pipeline whose last stage is p: p's input pipeline with p
// on top when p streams, and otherwise — p is a breaker — p run to completion
// as the source of a new one. Nothing of a pipeline runs before its sink
// drives it, except what a stage needs first: an index scan's posting list, a
// hash join's build side.
func (c *Ctx) open(p physical.Plan) (*pipeline, error) {
	var st stage
	var in physical.Plan
	switch t := p.(type) {
	case *physical.TableScan:
		return c.openTableScan(t)
	case *physical.IndexScan:
		return c.openIndexScan(t)
	case *physical.Filter:
		in, st = t.Input, c.newFilterStage(t)
	case *physical.Project:
		in, st = t.Input, newProjectStage(t)
	case *physical.Exchange:
		x, err := c.newExchangeStage(t)
		if err != nil {
			return nil, err
		}
		in, st = t.Input, x
	case *physical.HashJoin:
		return c.openJoin(t)
	}
	if st == nil {
		began := c.tick()
		b, err := c.inputBatch(p)
		if err != nil {
			return nil, err
		}
		pl := c.newPipeline(p, &batchSource{in: b}, began)
		pl.srcDone = true
		return pl, nil
	}
	pl, err := c.open(in)
	if err != nil {
		return nil, err
	}
	return pl.add(p, st), nil
}

// execPlan dispatches a row operator, which materializes its inputs (inner
// operators of joins may be re-materialized only once — the engine caches
// nothing across calls) and its output.
func (c *Ctx) execPlan(p physical.Plan) (*Batch, []datum.Row, error) {
	switch t := p.(type) {
	case *physical.ValuesOp:
		res, err := c.naiveValues(&logical.Values{Cols: t.Cols, Rows: t.Rows}, nil)
		if err != nil {
			return nil, nil, err
		}
		return nil, res.Rows, nil
	case *physical.Sort:
		in, err := c.runPlan(t.Input)
		if err != nil {
			return nil, nil, err
		}
		res := &Result{Cols: t.Input.Columns(), Rows: in}
		if err := c.sortResult(res, t.By); err != nil {
			return nil, nil, err
		}
		return nil, res.Rows, nil
	case *physical.NLJoin:
		return rowsOf(c.runNLJoin(t))
	case *physical.INLJoin:
		return rowsOf(c.runINLJoin(t))
	case *physical.MergeJoin:
		return rowsOf(c.runMergeJoin(t))
	case *physical.LimitOp:
		in, err := c.runPlan(t.Input)
		if err != nil {
			return nil, nil, err
		}
		if int64(len(in)) > t.N {
			in = in[:t.N]
		}
		return nil, in, nil
	case *physical.Exchange:
		return c.runExchange(t)
	case *physical.UnionAll:
		left, err := c.runPlan(t.Left)
		if err != nil {
			return nil, nil, err
		}
		right, err := c.runPlan(t.Right)
		if err != nil {
			return nil, nil, err
		}
		out := &Result{Cols: t.Cols}
		if err := appendAligned(out, &Result{Cols: t.Left.Columns(), Rows: left}, t.LeftCols); err != nil {
			return nil, nil, err
		}
		if err := appendAligned(out, &Result{Cols: t.Right.Columns(), Rows: right}, t.RightCols); err != nil {
			return nil, nil, err
		}
		c.Counters.RowsProcessed += int64(len(out.Rows))
		return nil, out.Rows, nil
	}
	return nil, nil, fmt.Errorf("exec: unknown physical operator %T", p)
}

// matchedSets tracks which build-side rows found a join partner — the state
// behind FULL OUTER's unmatched-right pass; nil for every other join kind.
// Worker w owns set w, so probes never synchronize.
type matchedSets [][]bool

func newMatchedSets(kind logical.JoinKind, workers, buildRows int) matchedSets {
	if kind != logical.FullOuterJoin {
		return nil
	}
	s := make(matchedSets, workers)
	for w := range s {
		s[w] = make([]bool, buildRows)
	}
	return s
}

func (s matchedSets) mark(w, ri int) {
	if s != nil {
		s[w][ri] = true
	}
}

// any reports whether some worker matched build row ri.
func (s matchedSets) any(ri int) bool {
	for _, set := range s {
		if set[ri] {
			return true
		}
	}
	return false
}

// appendUnmatched appends the NULL-padded build rows no worker matched.
func (s matchedSets) appendUnmatched(out []datum.Row, leftWidth int, right []datum.Row) []datum.Row {
	if s == nil {
		return out
	}
	for ri, rr := range right {
		if !s.any(ri) {
			out = append(out, nullRow(leftWidth).Concat(rr))
		}
	}
	return out
}

// emitJoined appends the join output for one matching (lr, rr) pair and
// reports whether the probe row is done (semi/anti need only one match).
func emitJoined(kind logical.JoinKind, out []datum.Row, lr, rr datum.Row) ([]datum.Row, bool) {
	switch kind {
	case logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin:
		return append(out, lr.Concat(rr)), false
	case logical.SemiJoin:
		return append(out, lr), true
	}
	return out, kind == logical.AntiJoin
}

// emitUnmatched appends the output of a probe row that matched nothing.
func emitUnmatched(kind logical.JoinKind, out []datum.Row, lr datum.Row, rightWidth int) []datum.Row {
	switch kind {
	case logical.LeftOuterJoin, logical.FullOuterJoin:
		return append(out, lr.Concat(nullRow(rightWidth)))
	case logical.AntiJoin:
		return append(out, lr)
	}
	return out
}

// candidates feeds visit the inner rows an outer row must be tested against
// (ri is the row's index in the materialized inner input, for FULL OUTER
// bookkeeping) and stops when visit reports the outer row is done.
type candidates func(wc *Ctx, lr datum.Row, visit func(ri int, rr datum.Row) (done bool, err error)) error

// probeJoin is the probe loop of the nested-loop and index-nested-loop
// joins: for each outer row of a morsel, the rows cand proposes are tested
// against the join predicate on and emitted per the join kind. Per-morsel
// outputs concatenate in morsel order, so the outer order is kept at every
// worker count. right is the materialized inner input (nil for the index
// join, which has no FULL OUTER form).
func (c *Ctx) probeJoin(kind logical.JoinKind, left, right []datum.Row, leftCols, rightCols []logical.ColumnID, on []logical.Scalar, cand candidates) ([]datum.Row, error) {
	combined := append(append([]logical.ColumnID{}, leftCols...), rightCols...)
	nw := c.morselWorkers(len(left))
	matched := newMatchedSets(kind, nw, len(right))
	outs := make([][]datum.Row, numMorsels(len(left)))
	err := c.forMorsels(len(left), nw, func(wc *Ctx, m, lo, hi int) error {
		// The candidate pair is tested in one reused row; only a pair that
		// joins is copied out.
		e := newEnv(combined, nil)
		ectx := wc.evalCtx(e)
		var out []datum.Row
		var lr datum.Row
		var found bool
		visit := func(ri int, rr datum.Row) (bool, error) {
			wc.Counters.RowsProcessed++
			e.row = append(append(e.row[:0], lr...), rr...)
			ok, err := allTrue(on, ectx)
			if err != nil || !ok {
				return false, err
			}
			found = true
			matched.mark(m%nw, ri)
			var done bool
			out, done = emitJoined(kind, out, lr, rr)
			return done, nil
		}
		for _, lr = range left[lo:hi] {
			found = false
			if err := cand(wc, lr, visit); err != nil {
				return err
			}
			if !found {
				out = emitUnmatched(kind, out, lr, len(rightCols))
			}
		}
		outs[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Per-morsel outputs concatenate in morsel order: the same row order at
	// every worker count.
	return matched.appendUnmatched(slices.Concat(outs...), len(leftCols), right), nil
}

func (c *Ctx) runNLJoin(t *physical.NLJoin) ([]datum.Row, error) {
	left, err := c.runPlan(t.Left)
	if err != nil {
		return nil, err
	}
	right, err := c.runPlan(t.Right)
	if err != nil {
		return nil, err
	}
	return c.probeJoin(t.Kind, left, right, t.Left.Columns(), t.Right.Columns(), t.On,
		func(wc *Ctx, lr datum.Row, visit func(int, datum.Row) (bool, error)) error {
			for ri, rr := range right {
				// One cancellation check per ~MorselSize row pairs.
				if ri%MorselSize == 0 {
					if err := wc.canceled(); err != nil {
						return err
					}
				}
				if done, err := visit(ri, rr); done || err != nil {
					return err
				}
			}
			return nil
		})
}

// runINLJoin probes the inner table's index with the outer rows — the
// parallel index scan of §7.1 (the index is shared storage, so probes stay
// local to each worker).
func (c *Ctx) runINLJoin(t *physical.INLJoin) ([]datum.Row, error) {
	left, err := c.runPlan(t.Left)
	if err != nil {
		return nil, err
	}
	tab, ok := c.Store.Table(t.Table.Name)
	if !ok {
		return nil, fmt.Errorf("exec: no storage for table %s", t.Table.Name)
	}
	ix, err := tab.Index(t.Index.Name)
	if err != nil {
		return nil, err
	}
	keyOffsets, err := offsetsOf(t.Left.Columns(), t.LeftKeys)
	if err != nil {
		return nil, err
	}
	return c.probeJoin(t.Kind, left, nil, t.Left.Columns(), t.Cols, t.ExtraOn,
		func(wc *Ctx, lr datum.Row, visit func(int, datum.Row) (bool, error)) error {
			key := make(datum.Row, len(keyOffsets))
			for i, off := range keyOffsets {
				if key[i] = lr[off]; key[i].IsNull() {
					return nil // NULL keys never match under SQL equality
				}
			}
			wc.Counters.IndexSeeks++
			ids := ix.Seek(key, datum.Null, false, datum.Null, false)
			wc.touchRows(tab, ids)
			for _, id := range ids {
				ir, err := wc.rowAt(tab, id)
				if err != nil {
					return err
				}
				if done, err := visit(0, projectRow(ir, t.ColOrds)); done || err != nil {
					return err
				}
			}
			return nil
		})
}

func (c *Ctx) runMergeJoin(t *physical.MergeJoin) ([]datum.Row, error) {
	left, err := c.runPlan(t.Left)
	if err != nil {
		return nil, err
	}
	right, err := c.runPlan(t.Right)
	if err != nil {
		return nil, err
	}
	leftLayout, rightLayout := t.Left.Columns(), t.Right.Columns()
	lOff, err := offsetsOf(leftLayout, t.LeftKeys)
	if err != nil {
		return nil, err
	}
	rOff, err := offsetsOf(rightLayout, t.RightKeys)
	if err != nil {
		return nil, err
	}
	combined := append(append([]logical.ColumnID{}, leftLayout...), rightLayout...)
	e := newEnv(combined, nil)
	rightWidth := len(rightLayout)
	var out []datum.Row

	li, ri := 0, 0
	for iters := 0; li < len(left); iters++ {
		if iters%MorselSize == 0 {
			if err := c.canceled(); err != nil {
				return nil, err
			}
		}
		lr := left[li]
		if hasNullAt(lr, lOff) {
			// NULL keys match nothing.
			out = emitUnmatched(t.Kind, out, lr, rightWidth)
			li++
			continue
		}
		// Advance right until >= left key.
		for ri < len(right) && (hasNullAt(right[ri], rOff) || compareKeys(right[ri], rOff, lr, lOff, &c.Counters) < 0) {
			ri++
		}
		// Collect the right group equal to the left key.
		rj := ri
		for rj < len(right) && compareKeys(right[rj], rOff, lr, lOff, &c.Counters) == 0 {
			rj++
		}
		// Emit all left rows with this key against the group.
		lj := li
		for lj < len(left) && compareKeys(left[lj], lOff, lr, lOff, &c.Counters) == 0 {
			curr := left[lj]
			matched := false
			for k := ri; k < rj; k++ {
				c.Counters.RowsProcessed++
				e.row = curr.Concat(right[k])
				ok, err := c.filterRow(t.ExtraOn, e)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				matched = true
				var done bool
				if out, done = emitJoined(t.Kind, out, curr, right[k]); done {
					break
				}
			}
			if !matched {
				out = emitUnmatched(t.Kind, out, curr, rightWidth)
			}
			lj++
		}
		li = lj
	}
	return out, nil
}

func offsetsOf(layout []logical.ColumnID, keys []logical.ColumnID) ([]int, error) {
	res := &Result{Cols: layout}
	out := make([]int, len(keys))
	for i, k := range keys {
		off := res.ColIndex(k)
		if off < 0 {
			return nil, fmt.Errorf("exec: key column @%d not in layout", int(k))
		}
		out[i] = off
	}
	return out, nil
}

func hasNullAt(r datum.Row, offs []int) bool {
	for _, o := range offs {
		if r[o].IsNull() {
			return true
		}
	}
	return false
}

func compareKeys(a datum.Row, aOff []int, b datum.Row, bOff []int, counters *Counters) int {
	counters.Comparisons++
	for i := range aOff {
		c := datum.Compare(a[aOff[i]], b[bOff[i]])
		if c != 0 {
			return c
		}
	}
	return 0
}
