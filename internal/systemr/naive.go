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
	o.naive = true
	defer func() { o.naive = false }()
	return o.Optimize(q)
}

// all is a sink that keeps every alternative offered.
type all []cand

func (*all) Beats(logical.Ordering, float64) bool { return true }
func (a *all) Put(c cand)                         { *a = append(*a, c) }

// naiveOrder enumerates all permutations of the block's relations.
func (b *block) naiveOrder() (physical.Plan, error) {
	n := len(b.leaves)
	if n > 10 {
		return nil, fmt.Errorf("systemr: naive enumeration of %d relations is infeasible", n)
	}
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
	var cur all
	if err := b.leafCands(perm[0], &cur); err != nil {
		return nil, err
	}
	mask := uint64(1) << uint(perm[0])
	for _, next := range perm[1:] {
		bit := uint64(1) << uint(next)
		on := b.joinPreds(mask, bit)
		if len(on.Preds) == 0 && !b.opt.Opts.CartesianProducts {
			return nil, nil
		}
		var right all
		if err := b.leafCands(next, &right); err != nil {
			return nil, err
		}
		mask |= bit
		// Keep the per-interesting-order frontier to mirror DP's pruning
		// within a single permutation.
		joined := b.frontier()
		b.opt.impl.Join(logical.InnerJoin, cur, right, b.rightLeaf(bit), on, b.card(mask), &joined)
		if len(joined.cands) == 0 {
			return nil, nil
		}
		cur = joined.cands
	}
	best := cur[0]
	for _, c := range cur[1:] {
		if c.Cost < best.Cost {
			best = c
		}
	}
	return best.Plan, nil
}
