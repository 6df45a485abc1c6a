package systemr

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/implement"
	"repro/internal/logical"
	"repro/internal/physical"
)

// block holds the working state of one join-block optimization.
type block struct {
	opt    *Optimizer
	leaves []logical.RelExpr
	graph  *logical.QueryGraph
	// interesting is the set of columns whose orderings are worth keeping.
	interesting logical.ColSet
	// leafRels[i] is leaf i under its local predicates: one node per leaf, so
	// the estimator's pointer cache derives each leaf's statistics once.
	leafRels []logical.RelExpr
	// cols is the union of the leaves' output columns.
	cols logical.ColSet
	// preds are the join predicates — edge predicates in graph order, then
	// complex ones — each with the leaves it references.
	preds []blockPred
	// relMemo caches the canonical logical expression per subset. Its
	// statistics (a logical property shared by every plan for the subset)
	// are cached by the estimator under the same pointer.
	relMemo map[uint64]logical.RelExpr
}

// blockPred is a join predicate with the bitmask of leaves it references. For
// a column equality l = r between two leaves, lLeaf is the bit of the leaf
// that owns l (else 0).
type blockPred struct {
	pred   logical.Scalar
	leaves uint64
	l, r   logical.ColumnID
	lLeaf  uint64
}

// newBlock classifies the block's predicates once, so that per-subset
// questions are bitmask tests.
func (o *Optimizer) newBlock(leaves []logical.RelExpr, preds []logical.Scalar, interesting logical.ColSet) *block {
	g := logical.BuildQueryGraph(leaves, preds)
	b := &block{
		opt: o, leaves: leaves, graph: g,
		interesting: interesting.Copy(),
		leafRels:    make([]logical.RelExpr, len(leaves)),
		relMemo:     map[uint64]logical.RelExpr{},
	}
	for i, leaf := range leaves {
		b.leafRels[i] = leaf
		if len(g.Local[i]) > 0 {
			b.leafRels[i] = &logical.Select{Input: leaf, Filters: g.Local[i]}
		}
		b.cols = b.cols.Union(g.NodeCols[i])
	}
	for _, e := range g.Edges {
		for _, p := range e.Preds {
			bp := blockPred{pred: p, leaves: 1<<uint(e.A) | 1<<uint(e.B)}
			if l, r, ok := implement.EquiCols(p); ok {
				bp.l, bp.r, bp.lLeaf = l, r, 1<<uint(e.B)
				if g.NodeCols[e.A].Contains(l) {
					bp.lLeaf = 1 << uint(e.A)
				}
			}
			b.preds = append(b.preds, bp)
		}
	}
	// A complex predicate applies where all its columns in the block first
	// meet; a column outside the block is bound by an enclosing query (a
	// subquery body's correlated column). One with columns but none in the
	// block floats above the join (optimizeBlock).
	for _, p := range g.Complex {
		cols := logical.ScalarCols(p)
		if !cols.Empty() && !cols.Intersects(b.cols) {
			continue
		}
		bp := blockPred{pred: p}
		for i, nc := range g.NodeCols {
			if cols.Intersects(nc) {
				bp.leaves |= 1 << uint(i)
			}
		}
		b.preds = append(b.preds, bp)
	}
	return b
}

// optimizeBlock runs DP join enumeration over an inner-join block.
func (o *Optimizer) optimizeBlock(root logical.RelExpr, interesting logical.ColSet) (physical.Plan, error) {
	leaves, preds, ok := logical.ExtractJoinBlock(root)
	if !ok {
		return nil, fmt.Errorf("systemr: not a join block")
	}
	n := len(leaves)
	if n > 63 {
		return nil, fmt.Errorf("systemr: %d relations exceed the enumerable maximum", n)
	}
	b := o.newBlock(leaves, preds, interesting)
	// Join columns are interesting orders (§3).
	for _, p := range b.preds {
		if p.lLeaf != 0 {
			b.interesting.Add(p.l)
			b.interesting.Add(p.r)
		}
	}
	// Predicates with no column footprint inside the block (constants,
	// uncorrelated subqueries) apply once, above the join.
	var floating []logical.Scalar
	for _, p := range b.graph.Complex {
		if !logical.ScalarCols(p).Intersects(b.cols) {
			floating = append(floating, p)
		}
	}

	var plan physical.Plan
	var err error
	if n == 1 {
		var f frontier
		if err = b.leafCands(0, &f); err == nil {
			plan = f.cands[0].Plan
		}
	} else {
		plan, err = b.orderJoins(n)
	}
	if err != nil {
		return nil, err
	}
	if len(floating) > 0 {
		plan = o.addFilter(plan, floating)
	}
	return plan, nil
}

// orderJoins picks the enumeration tier for an n-relation block (n >= 2):
// every permutation under OptimizeNaive; greedy beyond MaxRelations (the
// classical overflow fallback), greedy for blocks at or below
// GreedyThreshold or whose greedy-ordered plan already costs no more than
// GreedyCostThreshold (the adaptive fast-path — planning time traded against
// join-order quality on statements too cheap to deserve DP), and full DP
// enumeration otherwise.
func (b *block) orderJoins(n int) (physical.Plan, error) {
	o := b.opt
	switch {
	case o.naive:
		return b.naiveOrder()
	case n > o.Opts.MaxRelations:
		o.noteTier(TierGreedyFallback)
		return b.greedy()
	case o.Opts.GreedyThreshold > 0 && n <= o.Opts.GreedyThreshold:
		o.noteTier(TierGreedy)
		return b.greedy()
	case o.Opts.GreedyCostThreshold > 0:
		if gp, err := b.greedy(); err == nil {
			if _, c := gp.Estimate(); c <= o.Opts.GreedyCostThreshold {
				o.noteTier(TierGreedy)
				return gp, nil
			}
		}
		// The greedy plan was too costly (or greedy failed): this block is
		// expensive enough that DP's better join order pays for itself.
		o.noteTier(TierDP)
		return b.dp()
	}
	o.noteTier(TierDP)
	return b.dp()
}

// leafCands offers leaf i's plans under its local predicates to out: the
// access paths of a base table, else the leaf's own optimized plan.
func (b *block) leafCands(i int, out implement.Sink) error {
	if scan, filters := implement.ScanOf(b.leafRels[i]); scan != nil {
		b.opt.impl.Leaf(scan, filters, b.opt.Est.Stats(b.leafRels[i]).Rows, out)
		return nil
	}
	p, err := b.opt.optimize(b.leaves[i], b.interesting)
	if err != nil {
		return err
	}
	if local := b.graph.Local[i]; len(local) > 0 {
		p = b.opt.addFilter(p, local)
	}
	if c := implement.NewCand(p); out.Beats(c.Ord, c.Cost) {
		out.Put(c)
	}
	return nil
}

// subsetRel returns the canonical logical expression for a subset: leaves
// joined left-deep in index order, each predicate attached at the first join
// where both of its sides are available — the estimator then sees accurate
// per-step selectivities instead of a cross product with a top filter. The
// left input is the memoized expression of the subset without its highest
// leaf, so deriving a subset's statistics costs one join estimate on top of
// statistics the estimator already holds.
func (b *block) subsetRel(mask uint64) logical.RelExpr {
	if e, ok := b.relMemo[mask]; ok {
		return e
	}
	top := bits.Len64(mask) - 1
	rel := b.leafRels[top]
	if rest := mask &^ (1 << uint(top)); rest != 0 {
		on := b.joinPreds(rest, 1<<uint(top)).Preds
		rel = &logical.Join{Kind: logical.InnerJoin, Left: b.subsetRel(rest), Right: rel, On: on}
	}
	b.relMemo[mask] = rel
	return rel
}

// card returns the estimated cardinality of a subset's join result.
func (b *block) card(mask uint64) float64 {
	return b.opt.Est.Stats(b.subsetRel(mask)).Rows
}

// joinPreds returns the predicates that first become applicable when two
// disjoint subsets are joined, split into equi-key pairs and residuals.
func (b *block) joinPreds(left, right uint64) implement.On {
	var on implement.On
	for i := range b.preds {
		p := &b.preds[i]
		if p.leaves&^(left|right) != 0 || p.leaves&^left == 0 || p.leaves&^right == 0 {
			continue
		}
		on.Preds = append(on.Preds, p.pred)
		switch {
		case p.lLeaf&left != 0:
			on.Keys = append(on.Keys, implement.KeyPair{L: p.l, R: p.r})
		case p.lLeaf&right != 0:
			on.Keys = append(on.Keys, implement.KeyPair{L: p.r, R: p.l})
		default:
			on.Extras = append(on.Extras, p.pred)
		}
	}
	return on
}

// connected reports whether the subset's relations form a connected subgraph
// of the join edges.
func (b *block) connected(mask uint64) bool {
	reach := mask & -mask
	for grown := true; grown; {
		grown = false
		for _, e := range b.graph.Edges {
			ends := uint64(1)<<uint(e.A) | 1<<uint(e.B)
			if ends&^mask == 0 && ends&reach != 0 && ends&^reach != 0 {
				reach |= ends
				grown = true
			}
		}
	}
	return reach == mask
}

// rightLeaf returns the logical leaf when the right side is a single
// relation (enabling index nested-loop joins), else nil.
func (b *block) rightLeaf(right uint64) logical.RelExpr {
	if right&(right-1) != 0 {
		return nil
	}
	return b.leafRels[bits.TrailingZeros64(right)]
}

// cand is a costed plan with its rows and output ordering.
type cand = implement.Cand

// frontier holds the plans retained for one relation subset: the cheapest
// per interesting-order key — the longest prefix of a plan's output ordering
// made of interesting columns; plans compete only within a key (§3) — in the
// order their keys were first seen. Among equal costs the plan enumerated
// first stays, so the same statement always gets the same plan.
type frontier struct {
	// orders is the interesting-column set; when empty, every plan has the
	// same key and the frontier keeps one plan, the cheapest.
	orders logical.ColSet
	cands  []cand
}

// frontier returns an empty frontier keyed by the block's interesting orders.
func (b *block) frontier() frontier {
	if !b.opt.Opts.InterestingOrders {
		return frontier{}
	}
	return frontier{orders: b.interesting}
}

func (f *frontier) key(ord logical.Ordering) logical.Ordering {
	k := 0
	for k < len(ord) && f.orders.Contains(ord[k].Col) {
		k++
	}
	return ord[:k]
}

// find returns the index of the retained plan ord competes with, or -1.
func (f *frontier) find(ord logical.Ordering) int {
	key := f.key(ord)
	for i := range f.cands {
		if slices.Equal(f.key(f.cands[i].Ord), key) {
			return i
		}
	}
	return -1
}

// Beats reports whether a plan of this output ordering and cost would be
// retained — asked before the plan is built, so losers are never allocated.
func (f *frontier) Beats(ord logical.Ordering, cost float64) bool {
	i := f.find(ord)
	return i < 0 || !(f.cands[i].Cost <= cost)
}

// Put retains c, which must beat the plan it competes with.
func (f *frontier) Put(c cand) {
	if i := f.find(c.Ord); i >= 0 {
		f.cands[i] = c
	} else {
		f.cands = append(f.cands, c)
	}
}

// nextRight steps through the right sides of a subset's (left, right)
// splits, starting from the subset's lowest relation: linear mode extends a
// (k-1)-subset by each single relation in turn (0 ends it); bushy mode tries
// every proper sub-mask in ascending order (the mask itself ends it), which
// yields both orders of each partition for the asymmetric join algorithms.
func (b *block) nextRight(mask, right uint64) uint64 {
	if b.opt.Opts.Bushy {
		return ((right | ^mask) + 1) & mask
	}
	above := mask &^ (right<<1 - 1)
	return above & -above
}

// dp runs the bottom-up enumeration. Ascending numeric order visits every
// sub-mask before its super-masks.
func (b *block) dp() (physical.Plan, error) {
	n := len(b.leaves)
	table := make([]frontier, uint64(1)<<uint(n))
	for i := 0; i < n; i++ {
		table[1<<uint(i)] = b.frontier()
		if err := b.leafCands(i, &table[1<<uint(i)]); err != nil {
			return nil, err
		}
		b.opt.Metrics.SubsetsVisited++
	}

	full := uint64(1)<<uint(n) - 1
	// System R defers Cartesian products: when the full query graph is
	// connected, no cross join is ever required, so pred-less splits are
	// skipped entirely unless the knob enables them.
	crossJoins := b.opt.Opts.CartesianProducts || !b.connected(full)
	for mask := uint64(3); mask <= full; mask++ {
		if mask&(mask-1) == 0 {
			continue
		}
		b.opt.Metrics.SubsetsVisited++
		// rows is derived at the first viable split: a subset no split
		// reaches (a disconnected one) costs no estimate.
		table[mask] = b.frontier()
		rows := -1.0
		for right := mask & -mask; right != 0 && right != mask; right = b.nextRight(mask, right) {
			left := mask &^ right
			lp, rp := table[left].cands, table[right].cands
			if len(lp) == 0 || len(rp) == 0 {
				continue
			}
			on := b.joinPreds(left, right)
			if len(on.Preds) == 0 && !crossJoins {
				continue
			}
			if rows < 0 {
				rows = b.card(mask)
			}
			b.opt.impl.Join(logical.InnerJoin, lp, rp, b.rightLeaf(right), on, rows, &table[mask])
		}
	}
	final := table[full].cands
	if len(final) == 0 {
		return nil, fmt.Errorf("systemr: DP found no plan (disconnected graph without Cartesian products?)")
	}
	// Final selection: when the query requires an order the block can
	// provide, compare each retained plan's cost plus the sort it would
	// still need — the payoff for keeping interesting-order entries.
	required := b.opt.requiredOrder
	for _, spec := range required {
		if !b.cols.Contains(spec.Col) {
			required = nil
			break
		}
	}
	var best physical.Plan
	bestCost := math.Inf(1)
	for _, p := range final {
		c := p.Cost
		if len(required) > 0 && !required.SatisfiedBy(p.Ord) {
			c += b.opt.Model.Sort(p.Rows)
		}
		if c < bestCost {
			best, bestCost = p.Plan, c
		}
	}
	for _, f := range table {
		b.opt.Metrics.EntriesKept += len(f.cands)
	}
	return best, nil
}

// greedy joins the cheapest pair repeatedly — the fallback beyond
// MaxRelations and the adaptive fast path.
func (b *block) greedy() (physical.Plan, error) {
	type part struct {
		mask uint64
		cand
	}
	var parts []part
	// f collects one step's alternatives: with no orders it keeps only the
	// cheapest.
	var f frontier
	for i := range b.leaves {
		f.cands = f.cands[:0]
		if err := b.leafCands(i, &f); err != nil {
			return nil, err
		}
		parts = append(parts, part{1 << uint(i), f.cands[0]})
	}
	for len(parts) > 1 {
		bestI, bestJ := -1, -1
		best := cand{Cost: math.Inf(1)}
		// Pairs without a connecting predicate wait for a second pass, taken
		// only when nothing else combines: a forced Cartesian product.
		for _, forced := range []bool{false, true} {
			if bestI >= 0 {
				break
			}
			for i := range parts {
				for j := range parts {
					if i == j {
						continue
					}
					on := b.joinPreds(parts[i].mask, parts[j].mask)
					if len(on.Preds) == 0 && !forced && !b.opt.Opts.CartesianProducts && len(parts) > 2 {
						continue
					}
					f.cands = f.cands[:0]
					b.opt.impl.Join(logical.InnerJoin, []cand{parts[i].cand}, []cand{parts[j].cand},
						b.rightLeaf(parts[j].mask), on, b.card(parts[i].mask|parts[j].mask), &f)
					if len(f.cands) > 0 && f.cands[0].Cost < best.Cost {
						bestI, bestJ, best = i, j, f.cands[0]
					}
				}
			}
		}
		if bestI < 0 {
			return nil, fmt.Errorf("systemr: greedy failed to combine partitions")
		}
		merged := part{parts[bestI].mask | parts[bestJ].mask, best}
		var next []part
		for k, p := range parts {
			if k != bestI && k != bestJ {
				next = append(next, p)
			}
		}
		parts = append(next, merged)
	}
	return parts[0].Plan, nil
}
