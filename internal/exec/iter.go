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
// result in the plan's layout. It and RunPlanQuery are where a plan's output
// becomes rows: every operator below them runs on batches.
func Run(p physical.Plan, c *Ctx) (*Result, error) { return RunPlanQuery(p, nil, c) }

// RunPlanQuery executes a physical plan for a query (nil: in the plan's
// layout and order) under c's parameter bindings: Prepare, then Program.Run.
func RunPlanQuery(p physical.Plan, q *logical.Query, c *Ctx) (*Result, error) {
	b, err := Prepare(p, q).Run(c, c.params)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: b.Cols, Rows: b.ToRows()}, nil
}

// Program is a plan made ready to run for a query (§7.4: optimized once, then
// only dispatched per binding): what every run needs that depends on the
// plan alone — the result's sort, when the plan does not deliver the query's
// order, and the result columns' offsets in the plan's layout. Runs read
// parameter values from their bindings, so a Program is immutable and
// serves concurrent runs.
type Program struct {
	plan physical.Plan
	cols []logical.ColumnID
	sort []datum.SortSpec
	offs []int // nil when the result columns are the layout
	err  error // a result or order column missing from the layout, for Run
}

// Prepare makes plan p ready to run for q (nil: in p's layout and order).
func Prepare(p physical.Plan, q *logical.Query) *Program {
	layout := p.Columns()
	pg := &Program{plan: p, cols: layout}
	if q == nil {
		return pg
	}
	if len(q.OrderBy) > 0 && !q.OrderBy.SatisfiedBy(p.Ordering()) {
		if pg.sort, pg.err = sortSpec(layout, q.OrderBy); pg.err != nil {
			return pg
		}
	}
	if pg.cols, pg.offs = q.ResultCols, nil; !slices.Equal(layout, q.ResultCols) {
		pg.offs, pg.err = colOffsets(layout, q.ResultCols, "result")
	}
	return pg
}

// Run executes the program under c, parameter $n bound to binds[n-1] (nil
// runs it on the values the plan holds): run the plan, order, project to the
// result columns. The batch it returns is the result.
func (pg *Program) Run(c *Ctx, binds []datum.D) (*Batch, error) {
	if pg.err != nil {
		return nil, pg.err
	}
	c.params = binds
	b, err := c.run(pg.plan)
	if err == nil && pg.sort != nil {
		b, err = c.sortBatch(b, pg.sort)
	}
	if err != nil {
		return nil, err
	}
	out := b
	if pg.offs != nil {
		out = &Batch{Vecs: make([]*datum.Vec, len(pg.offs)), Sel: b.Sel, n: b.n}
		for i, off := range pg.offs {
			out.Vecs[i] = b.Vecs[off]
		}
	}
	out.Cols = pg.cols
	return out, nil
}

// run executes one operator and returns its output as a batch: the pipeline
// ending at p collected, an aggregation's groups, or a breaker's result.
// Every operator entry doubles as a cancellation checkpoint. Analyze mode
// meters breakers here and pipelines per stage (pipeline.go); the nil check is
// the entire cost of the instrumentation when analyze is off.
func (c *Ctx) run(p physical.Plan) (*Batch, error) {
	if err := c.canceled(); err != nil {
		return nil, err
	}
	switch p.(type) {
	case *physical.HashGroupBy, *physical.StreamGroupBy:
		return c.aggregate(p)
	}
	if streams(p) {
		pl, err := c.open(p)
		if err != nil {
			return nil, err
		}
		defer pl.close()
		return pl.collect()
	}
	if c.Metrics == nil {
		return c.execPlan(p)
	}
	m := c.Metrics.Node(p)
	m.Invocations++
	m.Pipeline = c.Metrics.NewPipeline()
	defer c.leave(c.enter(p))
	start := time.Now()
	b, err := c.execPlan(p)
	m.WallNanos += time.Since(start).Nanoseconds()
	if b != nil {
		m.ActualRows += int64(b.NumRows())
	}
	return b, err
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

// noteFallback meters an operator that finished on a materialized batch — a
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

// streams reports whether p is a pipeline stage rather than a breaker: a
// scan, a filter, a projection, the probe of a join. It depends on the plan
// alone: Ctx.Vectorize decides which kernels the stages compile, never which
// operators run.
func streams(p physical.Plan) bool {
	switch p.(type) {
	case *physical.TableScan, *physical.IndexScan, *physical.Filter, *physical.Project,
		*physical.HashJoin, *physical.NLJoin, *physical.INLJoin, *physical.MergeJoin:
		return true
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
	case *physical.HashJoin, *physical.NLJoin, *physical.INLJoin, *physical.MergeJoin:
		return c.openJoin(t)
	}
	if st == nil {
		began := c.tick()
		b, err := c.run(p)
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

// execPlan runs a breaker that is not an aggregation: it runs its inputs to
// completion and returns its output.
func (c *Ctx) execPlan(p physical.Plan) (*Batch, error) {
	switch t := p.(type) {
	case *physical.ValuesOp:
		return c.values(t)
	case *physical.Sort:
		in, err := c.run(t.Input)
		if err != nil {
			return nil, err
		}
		spec, err := sortSpec(t.Input.Columns(), t.By)
		if err != nil {
			return nil, err
		}
		return c.sortBatch(in, spec)
	case *physical.LimitOp:
		in, err := c.run(t.Input)
		if err != nil {
			return nil, err
		}
		return limitBatch(in, t.N), nil
	case *physical.UnionAll:
		return c.runUnion(t)
	}
	return nil, fmt.Errorf("exec: unknown physical operator %T", p)
}

// values evaluates literal rows into a batch; a column's vector takes the
// kind of its first non-NULL value, and a column mixing kinds is boxed.
func (c *Ctx) values(t *physical.ValuesOp) (*Batch, error) {
	b := emptyBatch(t.Cols)
	b.n = len(t.Rows)
	ectx := c.evalCtx(newEnv(nil, c.outer))
	for _, row := range t.Rows {
		for ci, s := range row {
			v, err := logical.Eval(s, ectx)
			if err != nil {
				return nil, err
			}
			b.Vecs[ci].AppendD(v)
		}
	}
	return b, nil
}

// runUnion concatenates the arms' rows, each arm's columns aligned to the
// union's layout.
func (c *Ctx) runUnion(t *physical.UnionAll) (*Batch, error) {
	left, err := c.run(t.Left)
	if err != nil {
		return nil, err
	}
	right, err := c.run(t.Right)
	if err != nil {
		return nil, err
	}
	lOff, err := colOffsets(t.Left.Columns(), t.LeftCols, "union")
	if err != nil {
		return nil, err
	}
	rOff, err := colOffsets(t.Right.Columns(), t.RightCols, "union")
	if err != nil {
		return nil, err
	}
	out := emptyBatch(t.Cols)
	out.n = left.NumRows() + right.NumRows()
	for ci, v := range out.Vecs {
		appendLive(v, left.Vecs[lOff[ci]], left)
		appendLive(v, right.Vecs[rOff[ci]], right)
	}
	c.Counters.RowsProcessed += int64(out.n)
	return out, nil
}

// colOffsets locates cols in layout; a column missing from it is an
// execution error that names what the column is for.
func colOffsets(layout, cols []logical.ColumnID, what string) ([]int, error) {
	offs := make([]int, len(cols))
	for i, id := range cols {
		if offs[i] = slices.Index(layout, id); offs[i] < 0 {
			return nil, fmt.Errorf("exec: %s column @%d not in layout", what, int(id))
		}
	}
	return offs, nil
}
