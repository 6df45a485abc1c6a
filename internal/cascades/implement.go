package cascades

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/implement"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/stats"
)

// Options tunes the Cascades search.
type Options struct {
	// MaxExprs caps memo growth (a search budget "knob", §6).
	MaxExprs int
	// Pruning enables cost-bound (branch and bound) pruning guided by the
	// promise of already-found plans.
	Pruning bool
}

// DefaultOptions enables pruning with a generous memo budget.
func DefaultOptions() Options {
	return Options{MaxExprs: 200000, Pruning: true}
}

// Metrics counts the work done (E14 compares these with System-R's).
type Metrics struct {
	RulesFired  int // transformation rule applications producing new exprs
	TasksRun    int // optGroup invocations (tasks)
	PlansCosted int // physical alternatives costed
	WinnerHits  int // memoized (group, property) lookups served from cache
}

// winner is the memoized outcome of optimizing a group for one required
// ordering.
type winner struct {
	// native is the cheapest alternative that delivers the ordering by
	// itself (Plan nil if none does) — what an order-consuming parent (a
	// merge join input, an order-preserving join's outer side) builds on.
	native implement.Cand
	// best is the cheapest plan delivering the ordering: native, or the Sort
	// enforcer over the group's cheapest plan for no requirement.
	best implement.Cand
}

// Optimizer is a Volcano/Cascades-style optimizer instance.
type Optimizer struct {
	memo    *Memo
	Est     *stats.Estimator
	Model   cost.Model
	Opts    Options
	Metrics Metrics
	impl    implement.Space
}

// New returns an optimizer sharing the estimator and cost model types used
// by the System-R implementation.
func New(est *stats.Estimator, model cost.Model, opts Options) *Optimizer {
	if opts.MaxExprs <= 0 {
		opts.MaxExprs = 200000
	}
	o := &Optimizer{memo: NewMemo(), Est: est, Model: model, Opts: opts}
	o.impl = implement.Space{Est: est, Model: model, OrderedIndexScans: true, Costed: &o.Metrics.PlansCosted}
	return o
}

// Memo exposes the memo for inspection (metrics, tests).
func (o *Optimizer) Memo() *Memo { return o.memo }

// Optimize builds the memo from the query, explores it on demand, and
// returns the best physical plan satisfying the query's ORDER BY.
func (o *Optimizer) Optimize(q *logical.Query) (physical.Plan, error) {
	root := q.Root
	var limitN int64 = -1
	if lim, ok := root.(*logical.Limit); ok && len(q.OrderBy) > 0 {
		root = lim.Input
		limitN = lim.N
	}
	o.impl.NonNull = implement.NullRejected(root)
	g, err := o.memo.Build(root)
	if err != nil {
		return nil, err
	}
	w, err := o.optGroup(g, q.OrderBy)
	if err != nil {
		return nil, err
	}
	plan := w.best.Plan
	if limitN >= 0 {
		rows, c := plan.Estimate()
		if float64(limitN) < rows {
			rows = float64(limitN)
		}
		plan = &physical.LimitOp{
			Props: physical.Props{Rows: rows, Cost: c + o.Model.Limit(rows)},
			Input: plan, N: limitN,
		}
	}
	return plan, nil
}

// groupSink keeps the cheapest alternative of one group that delivers the
// required ordering by itself.
type groupSink struct {
	required logical.Ordering
	best     implement.Cand
}

func (s *groupSink) Beats(ord logical.Ordering, cost float64) bool {
	return cost < s.best.Cost && s.required.SatisfiedBy(ord)
}

func (s *groupSink) Put(c implement.Cand) { s.best = c }

// pruned reports whether an alternative whose own operator costs at least
// promise can be skipped: bound pruning against the best plan found so far.
func (o *Optimizer) pruned(s *groupSink, promise float64) bool {
	return o.Opts.Pruning && s.best.Plan != nil && promise >= s.best.Cost
}

// offer prices a built plan into the sink.
func (o *Optimizer) offer(s *groupSink, p physical.Plan) {
	o.Metrics.PlansCosted++
	if c := implement.NewCand(p); s.Beats(c.Ord, c.Cost) {
		s.Put(c)
	}
}

// optGroup optimizes the group for the required ordering, memoized per
// (group, ordering) — the "table of plans that have been optimized in the
// past" of §6.2. The Sort enforcer goes over the group's cheapest plan for
// no requirement.
func (o *Optimizer) optGroup(g *Group, required logical.Ordering) (*winner, error) {
	key := required.Key()
	if w, ok := g.winners[key]; ok {
		o.Metrics.WinnerHits++
		return w, nil
	}
	o.Metrics.TasksRun++
	o.exploreGroup(g)

	rows := o.Est.Stats(o.memo.Repr(g)).Rows
	s := &groupSink{required: required, best: implement.Cand{Cost: math.Inf(1)}}
	for _, e := range g.Exprs {
		if err := o.implement(e, rows, s); err != nil {
			return nil, err
		}
	}
	w := &winner{native: s.best, best: s.best}
	if len(required) > 0 {
		u, err := o.optGroup(g, nil)
		if err != nil {
			return nil, err
		}
		o.Metrics.PlansCosted++
		if c := u.best.Cost + o.Model.Sort(u.best.Rows); c < w.best.Cost {
			w.best = implement.Cand{Rows: u.best.Rows, Cost: c, Ord: required, Plan: &physical.Sort{
				Props: physical.Props{Rows: u.best.Rows, Cost: c},
				Input: u.best.Plan, By: required,
			}}
		}
	}
	if w.best.Plan == nil {
		return nil, fmt.Errorf("cascades: no plan for group %d", int(g.ID))
	}
	g.winners[key] = w
	return w, nil
}

// implement offers the physical alternatives for one memo expression.
func (o *Optimizer) implement(e *MExpr, rows float64, s *groupSink) error {
	required := s.required
	switch e.Kind {
	case opScan:
		o.impl.Leaf(e.Scan, nil, rows, s)
	case opValues:
		n := float64(len(e.Values.Rows))
		o.offer(s, &physical.ValuesOp{
			Props: physical.Props{Rows: n, Cost: o.Model.Values(n)},
			Cols:  e.Values.Cols, Rows: e.Values.Rows,
		})
	case opSelect:
		child := o.memo.Group(e.Children[0])
		// Over a base table the filters fuse into its access paths.
		for _, ce := range child.Exprs {
			if ce.Kind == opScan {
				o.impl.Leaf(ce.Scan, e.Filters, rows, s)
				return nil
			}
		}
		// Otherwise a filter over the child's best plan (ordering preserved,
		// so the requirement pushes down).
		w, err := o.optGroup(child, required)
		if err != nil {
			return err
		}
		o.offer(s, &physical.Filter{
			Props: physical.Props{Rows: rows, Cost: w.best.Cost + o.Model.Filter(w.best.Rows, len(e.Filters))},
			Input: w.best.Plan, Preds: e.Filters,
		})
	case opProject:
		child := o.memo.Group(e.Children[0])
		// Push the requirement down when every required column passes
		// through unchanged.
		childReq := required
		passthrough := map[logical.ColumnID]bool{}
		for _, it := range e.Items {
			if c, ok := it.Expr.(*logical.Col); ok && c.ID == it.ID {
				passthrough[it.ID] = true
			}
		}
		for _, sp := range required {
			if !passthrough[sp.Col] {
				childReq = nil
				break
			}
		}
		w, err := o.optGroup(child, childReq)
		if err != nil {
			return err
		}
		cr := w.best.Rows
		o.offer(s, &physical.Project{
			Props: physical.Props{Rows: cr, Cost: w.best.Cost + o.Model.Project(cr, len(e.Items))},
			Input: w.best.Plan, Items: e.Items,
		})
	case opJoin:
		return o.implementJoin(e, rows, s)
	case opGroupBy:
		return o.implementGroupBy(e, rows, s)
	case opLimit:
		w, err := o.optGroup(o.memo.Group(e.Children[0]), required)
		if err != nil {
			return err
		}
		out := math.Min(w.best.Rows, float64(e.N))
		o.offer(s, &physical.LimitOp{
			Props: physical.Props{Rows: out, Cost: w.best.Cost + o.Model.Limit(out)},
			Input: w.best.Plan, N: e.N,
		})
	case opUnion:
		lw, err := o.optGroup(o.memo.Group(e.Children[0]), nil)
		if err != nil {
			return err
		}
		rw, err := o.optGroup(o.memo.Group(e.Children[1]), nil)
		if err != nil {
			return err
		}
		total := lw.best.Rows + rw.best.Rows
		o.offer(s, &physical.UnionAll{
			Props: physical.Props{Rows: total, Cost: lw.best.Cost + rw.best.Cost + total*o.Model.CPUTuple},
			Left:  lw.best.Plan, Right: rw.best.Plan,
			LeftCols: e.UnionLeft, RightCols: e.UnionRight, Cols: e.UnionCols,
		})
	}
	return nil
}

// withNative appends the group's cheapest plan that delivers the ordering by
// itself, unless there is none or it is already among the candidates.
func (o *Optimizer) withNative(cands []implement.Cand, g *Group, ord logical.Ordering) ([]implement.Cand, error) {
	w, err := o.optGroup(g, ord)
	if err != nil || w.native.Plan == nil {
		return cands, err
	}
	for _, c := range cands {
		if c.Plan == w.native.Plan {
			return cands, nil
		}
	}
	return append(cands, w.native), nil
}

// implementJoin offers the join methods of the implementation layer over
// the children's cheapest plans, plus the plans that deliver an ordering by
// themselves where one pays: the merge keys' order on both sides, and the
// required order on the outer side, which nested-loop, hash and index
// nested-loop joins preserve. Promises — a method's own cost, a lower bound
// of any plan using it — decide, against the best plan found so far, whether
// the children are optimized at all and whether ordered inputs are sought.
func (o *Optimizer) implementJoin(e *MExpr, rows float64, s *groupSink) error {
	left := o.memo.Group(e.Children[0])
	right := o.memo.Group(e.Children[1])
	on := implement.SplitOn(e.On, left.Cols, right.Cols)
	lRows := o.Est.Stats(o.memo.Repr(left)).Rows
	rRows := o.Est.Stats(o.memo.Repr(right)).Rows

	var rightLeaf logical.RelExpr
	keyed := len(on.Keys) > 0
	merge := keyed && e.JoinKind != logical.FullOuterJoin
	var lOrd, rOrd logical.Ordering
	if merge {
		lOrd, rOrd = implement.OrderOf(on.LeftKeys()), implement.OrderOf(on.RightKeys())
	}
	// Only order-preserving methods over an outer side that delivers the
	// order, or a merge on keys that start with it, can satisfy a requirement.
	outerOrder := len(s.required) > 0
	for _, sp := range s.required {
		outerOrder = outerOrder && left.Cols.Contains(sp.Col)
	}
	if len(s.required) > 0 && !outerOrder && !s.required.SatisfiedBy(lOrd) {
		return nil
	}
	promise := lRows * rRows * o.Model.CPUEval // nested loop
	if keyed {
		promise = math.Min(promise, o.Model.HashJoin(lRows, rRows))
		if scan, _ := implement.ScanOf(o.memo.Repr(right)); scan != nil {
			rightLeaf = o.memo.Repr(right)
			promise = 0 // an index probe may cost next to nothing
		}
	}
	if merge {
		promise = math.Min(promise, o.Model.MergeJoin(lRows, rRows))
	}
	if o.pruned(s, promise) {
		return nil
	}
	lw, err := o.optGroup(left, nil)
	if err != nil {
		return err
	}
	rw, err := o.optGroup(right, nil)
	if err != nil {
		return err
	}
	lc, rc := []implement.Cand{lw.best}, []implement.Cand{rw.best}
	if outerOrder {
		if lc, err = o.withNative(lc, left, s.required); err != nil {
			return err
		}
	}
	if merge && !o.pruned(s, o.Model.MergeJoin(lRows, rRows)) {
		if lc, err = o.withNative(lc, left, lOrd); err != nil {
			return err
		}
		if rc, err = o.withNative(rc, right, rOrd); err != nil {
			return err
		}
	}
	o.impl.Join(e.JoinKind, lc, rc, rightLeaf, on, rows, s)
	return nil
}

// implementGroupBy offers hash and stream aggregation over the child's
// cheapest plan and over its cheapest plan already ordered on the grouping
// columns.
func (o *Optimizer) implementGroupBy(e *MExpr, rows float64, s *groupSink) error {
	child := o.memo.Group(e.Children[0])
	w, err := o.optGroup(child, nil)
	if err != nil {
		return err
	}
	in := []implement.Cand{w.best}
	if len(e.GroupCols) > 0 {
		if in, err = o.withNative(in, child, implement.OrderOf(e.GroupCols)); err != nil {
			return err
		}
	}
	o.impl.GroupBy(e.GroupCols, e.Aggs, in, rows, s)
	return nil
}
