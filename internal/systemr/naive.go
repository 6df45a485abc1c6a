package systemr

import (
	"fmt"
	"math"

	"repro/internal/logical"
	"repro/internal/physical"
)

// OptimizeNaive optimizes the query like Optimize but enumerates join orders
// exhaustively — every permutation of the relations as a left-deep tree,
// with no memoization across permutations. It is the O(n!) baseline of §3
// that dynamic programming improves to O(n·2^(n-1)).
func (o *Optimizer) OptimizeNaive(q *logical.Query) (physical.Plan, error) {
	interesting := o.interestingCols(q)
	return o.optimizeRoot(q, interesting, o.optimizeNaiveRel)
}

func (o *Optimizer) optimizeNaiveRel(e logical.RelExpr, interesting logical.ColSet) (physical.Plan, error) {
	switch t := e.(type) {
	case *logical.Select:
		if blockRoot(e) {
			return o.naiveBlock(e, interesting)
		}
		in, err := o.optimizeNaiveRel(t.Input, interesting)
		if err != nil {
			return nil, err
		}
		return o.addFilter(in, t.Filters), nil
	case *logical.Join:
		if t.Kind == logical.InnerJoin {
			return o.naiveBlock(e, interesting)
		}
	case *logical.Project:
		in, err := o.optimizeNaiveRel(t.Input, interesting)
		if err != nil {
			return nil, err
		}
		rows, c := in.Estimate()
		return &physical.Project{
			Props: physical.Props{Rows: rows, Cost: c + o.Model.Project(rows, len(t.Items))},
			Input: in, Items: t.Items,
		}, nil
	case *logical.GroupBy:
		cp := *t
		in, err := o.optimizeNaiveRel(t.Input, interesting)
		if err != nil {
			return nil, err
		}
		inRows, inCost := in.Estimate()
		outRows := o.Est.Stats(&cp).Rows
		return &physical.HashGroupBy{
			Props: physical.Props{Rows: outRows, Cost: inCost + o.Model.HashGroupBy(inRows, len(t.Aggs))},
			Input: in, GroupCols: t.GroupCols, Aggs: t.Aggs,
		}, nil
	case *logical.Limit:
		in, err := o.optimizeNaiveRel(t.Input, interesting)
		if err != nil {
			return nil, err
		}
		rows, c := in.Estimate()
		return &physical.LimitOp{
			Props: physical.Props{Rows: math.Min(rows, float64(t.N)), Cost: c},
			Input: in, N: t.N,
		}, nil
	}
	return o.optimize(e, interesting)
}

// naiveBlock enumerates all permutations of the block's relations.
func (o *Optimizer) naiveBlock(root logical.RelExpr, interesting logical.ColSet) (physical.Plan, error) {
	leaves, preds, ok := logical.ExtractJoinBlock(root)
	if !ok {
		return nil, fmt.Errorf("systemr: not a join block")
	}
	n := len(leaves)
	if n > 10 {
		return nil, fmt.Errorf("systemr: naive enumeration of %d relations is infeasible", n)
	}
	b := o.newBlock(leaves, preds, interesting)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var best physical.Plan
	bestCost := math.Inf(1)
	var walk func(k int) error
	walk = func(k int) error {
		if k == n {
			p, err := b.costPermutation(perm)
			if err != nil || p == nil {
				return err
			}
			if _, c := p.Estimate(); c < bestCost {
				best, bestCost = p, c
			}
			return nil
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if err := walk(k + 1); err != nil {
				return err
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("systemr: naive enumeration found no plan")
	}
	return best, nil
}

// costPermutation builds the left-deep plan for one relation order, choosing
// the cheapest algorithms at each step. It returns nil (not an error) for
// orders requiring a Cartesian product when they are disabled.
func (b *block) costPermutation(perm []int) (physical.Plan, error) {
	plans, err := b.leafCandidates(perm[0])
	if err != nil {
		return nil, err
	}
	cur := toCands(plans)
	mask := uint64(1) << uint(perm[0])
	for _, next := range perm[1:] {
		bit := uint64(1) << uint(next)
		on := b.joinPreds(mask, bit)
		if len(on.preds) == 0 && !b.opt.Opts.CartesianProducts {
			return nil, nil
		}
		rightPlans, err := b.leafCandidates(next)
		if err != nil {
			return nil, err
		}
		mask |= bit
		// Keep the per-interesting-order frontier to mirror DP's pruning
		// within a single permutation.
		joined := b.frontier()
		b.opt.joinCandidates(logical.InnerJoin, cur, toCands(rightPlans), b.rightLeaf(bit), on, b.card(mask), &joined)
		if len(joined.cands) == 0 {
			return nil, nil
		}
		cur = joined.cands
	}
	best := cur[0]
	for _, c := range cur[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
	return best.plan, nil
}
