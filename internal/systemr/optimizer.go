// Package systemr implements the System-R optimizer of Section 3 of the
// paper: bottom-up dynamic-programming join enumeration over linear (or,
// optionally, bushy) join sequences, and pruning moderated by interesting
// orders. A naive O(n!) enumerator is included as the baseline the paper
// compares DP against. The access paths and join methods it chooses among
// come from internal/implement, which Cascades searches too.
package systemr

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/implement"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/stats"
)

// Options tunes the search space — the knobs §4.1.1 describes.
type Options struct {
	// Bushy admits bushy join trees; otherwise only linear (left-deep)
	// sequences are enumerated, as in System R.
	Bushy bool
	// CartesianProducts admits joins between disconnected subgraphs. System
	// R deferred Cartesian products; enabling them helps star queries.
	CartesianProducts bool
	// InterestingOrders keeps the best plan per interesting order instead
	// of a single best plan per subset.
	InterestingOrders bool
	// DisableINLJoin / DisableMergeJoin / DisableHashJoin shrink the
	// physical operator repertoire (System R had only NL and sort-merge).
	DisableINLJoin   bool
	DisableMergeJoin bool
	DisableHashJoin  bool
	// MaxRelations caps DP enumeration (beyond it, a greedy fallback runs).
	MaxRelations int
	// GreedyThreshold routes join blocks of up to this many relations to the
	// greedy orderer instead of DP — the adaptive fast-path that trades a
	// possibly worse join order for near-zero planning time on short
	// statements. 0 disables it (DP up to MaxRelations, greedy beyond: the
	// classical setup).
	GreedyThreshold int
	// GreedyCostThreshold, when > 0, orders every block greedily first and
	// accepts the result if its estimated cost is at or below the threshold;
	// costlier blocks fall through to full DP enumeration. This is the
	// "estimated total cost is small" trigger: cheap statements skip DP even
	// when they join more relations than GreedyThreshold.
	GreedyCostThreshold float64
}

// DefaultOptions mirrors classical System R: linear joins, no Cartesian
// products, interesting orders on.
func DefaultOptions() Options {
	return Options{InterestingOrders: true, MaxRelations: 16}
}

// Metrics counts enumeration work for the experiments (E2, E4, E14).
type Metrics struct {
	PlansCosted    int // physical plan alternatives costed
	SubsetsVisited int // DP table entries (relation subsets) expanded
	EntriesKept    int // plans retained after pruning
}

// Tier identifies which planning tier produced a plan — the adaptive
// fast-path marker EXPLAIN surfaces.
type Tier string

// Planning tiers, ordered by enumeration effort.
const (
	// TierTrivial: no join block of two or more relations was ordered.
	TierTrivial Tier = "trivial"
	// TierGreedy: the greedy fast-path ordered every join block.
	TierGreedy Tier = "greedy"
	// TierGreedyFallback: greedy ran because a block exceeded MaxRelations
	// (the classical overflow fallback, not the adaptive fast-path).
	TierGreedyFallback Tier = "greedy-fallback"
	// TierDP: at least one block paid for full DP enumeration.
	TierDP Tier = "dp"
)

// tierRank orders tiers so a query touching several join blocks reports the
// most expensive tier any of them used.
func tierRank(t Tier) int {
	switch t {
	case TierGreedy:
		return 1
	case TierGreedyFallback:
		return 2
	case TierDP:
		return 3
	}
	return 0
}

// Optimizer drives optimization of a logical query into a physical plan.
type Optimizer struct {
	Est     *stats.Estimator
	Model   cost.Model
	Opts    Options
	Metrics Metrics
	// Tier reports which planning tier produced the last Optimize call's
	// plan (the most expensive tier when the query has several join blocks).
	Tier Tier
	// requiredOrder is the query's ORDER BY; the DP's final selection
	// compares order-providing plans against cheapest-plus-sort (§3's
	// payoff for retaining interesting orders).
	requiredOrder logical.Ordering
	// impl prices the physical alternatives (access paths, join methods,
	// aggregation) under Opts.
	impl implement.Space
	// naive orders every join block by exhaustive permutation
	// (OptimizeNaive) instead of by the tiers.
	naive bool
}

// New returns an optimizer over the given estimator and cost model.
func New(est *stats.Estimator, model cost.Model, opts Options) *Optimizer {
	if opts.MaxRelations <= 0 {
		opts.MaxRelations = 16
	}
	return &Optimizer{Est: est, Model: model, Opts: opts}
}

// Optimize produces a physical plan for the query. The query's ORDER BY is
// treated as an interesting order: if the chosen plan does not provide it,
// a Sort enforcer is added at the root.
func (o *Optimizer) Optimize(q *logical.Query) (physical.Plan, error) {
	o.requiredOrder = q.OrderBy
	o.Tier = TierTrivial
	defer func() { o.requiredOrder = nil }()
	return o.optimizeRoot(q)
}

// noteTier records the planning tier one join block used, keeping the most
// expensive across the query's blocks.
func (o *Optimizer) noteTier(t Tier) {
	if tierRank(t) > tierRank(o.Tier) {
		o.Tier = t
	}
}

// optimizeRoot applies the ORDER BY enforcer in the right place relative to
// a root LIMIT (SQL sorts before limiting).
func (o *Optimizer) optimizeRoot(q *logical.Query) (physical.Plan, error) {
	o.impl = implement.Space{
		Est: o.Est, Model: o.Model,
		NonNull:           implement.NullRejected(q.Root),
		OrderedIndexScans: o.Opts.InterestingOrders,
		NoINL:             o.Opts.DisableINLJoin,
		NoMerge:           o.Opts.DisableMergeJoin,
		NoHash:            o.Opts.DisableHashJoin,
		Costed:            &o.Metrics.PlansCosted,
	}
	interesting := o.interestingCols(q)
	root := q.Root
	var limitN int64 = -1
	if lim, ok := root.(*logical.Limit); ok && len(q.OrderBy) > 0 {
		root = lim.Input
		limitN = lim.N
	}
	plan, err := o.optimize(root, interesting)
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 && !q.OrderBy.SatisfiedBy(plan.Ordering()) {
		rows, c := plan.Estimate()
		plan = &physical.Sort{
			Props: physical.Props{Rows: rows, Cost: c + o.Model.Sort(rows)},
			Input: plan,
			By:    q.OrderBy,
		}
	}
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

// interestingCols collects columns whose orderings are potentially
// consequential (§3): ORDER BY and GROUP BY columns. Join columns are added
// inside the DP per block.
func (o *Optimizer) interestingCols(q *logical.Query) logical.ColSet {
	var set logical.ColSet
	for _, s := range q.OrderBy {
		set.Add(s.Col)
	}
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		if g, ok := e.(*logical.GroupBy); ok {
			for _, c := range g.GroupCols {
				set.Add(c)
			}
		}
	})
	return set
}

// optimize recursively maps a logical tree to a physical plan. Inner-join
// blocks are handed to the DP enumerator; other operators are mapped
// directly with local algorithm choices.
func (o *Optimizer) optimize(e logical.RelExpr, interesting logical.ColSet) (physical.Plan, error) {
	switch t := e.(type) {
	case *logical.Scan:
		var best frontier
		o.impl.Leaf(t, nil, o.Est.Stats(t).Rows, &best)
		return best.cands[0].Plan, nil
	case *logical.Values:
		rows := float64(len(t.Rows))
		return &physical.ValuesOp{
			Props: physical.Props{Rows: rows, Cost: o.Model.Values(rows)},
			Cols:  t.Cols, Rows: t.Rows,
		}, nil
	case *logical.Select:
		return o.optimizeBlock(e, interesting)
	case *logical.Join:
		if t.Kind == logical.InnerJoin {
			return o.optimizeBlock(e, interesting)
		}
		left, err := o.optimize(t.Left, interesting)
		if err != nil {
			return nil, err
		}
		right, err := o.optimize(t.Right, interesting)
		if err != nil {
			return nil, err
		}
		var best frontier
		on := implement.SplitOn(t.On, logical.MakeColSet(left.Columns()...), logical.MakeColSet(right.Columns()...))
		o.impl.Join(t.Kind, []cand{implement.NewCand(left)}, []cand{implement.NewCand(right)}, t.Right, on, o.Est.Stats(t).Rows, &best)
		if len(best.cands) == 0 {
			return nil, fmt.Errorf("systemr: no join candidates for %v", t.Kind)
		}
		return best.cands[0].Plan, nil
	case *logical.Project:
		in, err := o.optimize(t.Input, interesting)
		if err != nil {
			return nil, err
		}
		rows, c := in.Estimate()
		return &physical.Project{
			Props: physical.Props{Rows: rows, Cost: c + o.Model.Project(rows, len(t.Items))},
			Input: in, Items: t.Items,
		}, nil
	case *logical.GroupBy:
		return o.optimizeGroupBy(t, interesting)
	case *logical.Limit:
		in, err := o.optimize(t.Input, interesting)
		if err != nil {
			return nil, err
		}
		rows, c := in.Estimate()
		outRows := math.Min(rows, float64(t.N))
		return &physical.LimitOp{
			Props: physical.Props{Rows: outRows, Cost: c + o.Model.Limit(outRows)},
			Input: in, N: t.N,
		}, nil
	case *logical.Union:
		left, err := o.optimize(t.Left, interesting)
		if err != nil {
			return nil, err
		}
		right, err := o.optimize(t.Right, interesting)
		if err != nil {
			return nil, err
		}
		lr, lc := left.Estimate()
		rr, rc := right.Estimate()
		rows := lr + rr
		return &physical.UnionAll{
			Props: physical.Props{Rows: rows, Cost: lc + rc + rows*o.Model.CPUTuple},
			Left:  left, Right: right,
			LeftCols: t.LeftCols, RightCols: t.RightCols, Cols: t.Cols,
		}, nil
	}
	return nil, fmt.Errorf("systemr: cannot optimize %T", e)
}

// addFilter wraps a plan with a Filter node (costed).
func (o *Optimizer) addFilter(in physical.Plan, preds []logical.Scalar) physical.Plan {
	rows, c := in.Estimate()
	// Without a logical handle we scale rows by the default selectivity per
	// predicate; block optimization paths use the estimator instead.
	out := rows
	for range preds {
		out *= stats.DefaultSel
	}
	return &physical.Filter{
		Props: physical.Props{Rows: out, Cost: c + o.Model.Filter(rows, len(preds))},
		Input: in, Preds: preds,
	}
}

// optimizeGroupBy picks hash vs. (sorted) stream aggregation.
func (o *Optimizer) optimizeGroupBy(g *logical.GroupBy, interesting logical.ColSet) (physical.Plan, error) {
	for _, c := range g.GroupCols {
		interesting = interesting.Copy()
		interesting.Add(c)
	}
	in, err := o.optimize(g.Input, interesting)
	if err != nil {
		return nil, err
	}
	var best frontier
	o.impl.GroupBy(g.GroupCols, g.Aggs, []cand{implement.NewCand(in)}, o.Est.Stats(g).Rows, &best)
	return best.cands[0].Plan, nil
}
