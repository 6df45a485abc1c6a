package systemr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/stats"
	"repro/internal/workload"
)

// blockOf builds the block of a statement's join tree the way optimizeBlock
// does.
func blockOf(t *testing.T, o *Optimizer, q *logical.Query) *block {
	t.Helper()
	root := q.Root
	for {
		p, ok := root.(*logical.Project)
		if !ok {
			break
		}
		root = p.Input
	}
	leaves, preds, ok := logical.ExtractJoinBlock(root)
	if !ok {
		t.Fatalf("not a join block: %T", root)
	}
	return o.newBlock(leaves, preds, logical.ColSet{})
}

// oracleRel builds a subset's index-order left-deep tree from scratch, with
// no node shared between subsets and predicate placement decided from column
// sets: each join takes the edge predicates between what is joined so far and
// the new leaf, then the complex predicates whose columns first meet there.
func oracleRel(g *logical.QueryGraph, mask uint64) logical.RelExpr {
	var rel logical.RelExpr
	var have []int
	var haveCols logical.ColSet
	for i, leaf := range g.Nodes {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if len(g.Local[i]) > 0 {
			leaf = &logical.Select{Input: leaf, Filters: g.Local[i]}
		}
		if rel == nil {
			rel = leaf
		} else {
			var on []logical.Scalar
			for _, e := range g.Edges {
				if (e.A == i && slices.Contains(have, e.B)) || (e.B == i && slices.Contains(have, e.A)) {
					on = append(on, e.Preds...)
				}
			}
			union := haveCols.Union(g.NodeCols[i])
			for _, p := range g.Complex {
				cols := logical.ScalarCols(p)
				if cols.SubsetOf(union) && !cols.SubsetOf(haveCols) && !cols.SubsetOf(g.NodeCols[i]) {
					on = append(on, p)
				}
			}
			rel = &logical.Join{Kind: logical.InnerJoin, Left: rel, Right: leaf, On: on}
		}
		have = append(have, i)
		haveCols = haveCols.Union(g.NodeCols[i])
	}
	return rel
}

// TestSubsetCardinalityMatchesIndependentTree: for random 2-8-relation
// blocks — chain, star and clique, with local filters and a three-table
// predicate — the cardinality the block derives incrementally (each subset
// from the memoized subset below it, histogram joins memoized per pair)
// equals, bit for bit, what a fresh estimator computes over an independently
// built tree, for every subset.
func TestSubsetCardinalityMatchesIndependentTree(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 8, RowsPer: []int{300, 80, 500, 120, 60, 400, 90, 200}, Seed: 4})
	db.Analyze(stats.AnalyzeOptions{})
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 24; iter++ {
		n := 2 + rng.Intn(7)
		shape := []string{"chain", "star", "clique"}[iter%3]
		var from, where []string
		for i := 1; i <= n; i++ {
			from = append(from, fmt.Sprintf("r%d", i))
			if rng.Intn(3) == 0 {
				where = append(where, fmt.Sprintf("r%d.payload < %d", i, 100+rng.Intn(800)))
			}
			for j := i + 1; j <= n; j++ {
				switch {
				case shape == "chain" && j == i+1, shape == "star" && i == 1:
					where = append(where, fmt.Sprintf("r%d.fk = r%d.pk", i, j))
				case shape == "clique":
					where = append(where, fmt.Sprintf("r%d.fk = r%d.pk", i, j))
				}
			}
		}
		if n >= 3 {
			a := 1 + rng.Intn(n-2)
			where = append(where, fmt.Sprintf("r%d.payload + r%d.payload + r%d.payload < %d", a, a+1, a+2, 500+rng.Intn(2000)))
		}
		text := "SELECT r1.payload FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
		q := buildQuery(t, db, text)
		b := blockOf(t, optimizer(q, DefaultOptions()), q)
		if n >= 3 && len(b.graph.Complex) == 0 {
			t.Fatalf("%s: the three-table predicate is not a complex predicate", text)
		}
		oracle := stats.NewEstimator(q.Meta)
		// Descending, so that most subsets are asked for before the subsets
		// they are built from.
		for mask := uint64(1)<<uint(n) - 1; mask >= 1; mask-- {
			got, want := b.card(mask), oracle.Stats(oracleRel(b.graph, mask)).Rows
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s\nsubset %b: card = %v (%x), independent tree = %v (%x)",
					text, mask, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestOptimizeAllocCeiling pins the allocations of one 7-way chain Optimize.
// The DP builds a plan node only for an alternative that beats the incumbent
// of its interesting order; a change that goes back to allocating per
// alternative costed, per subset key or per statistic re-derived lands far
// above the ceiling. Measured: 1803 allocations (16561 at the parent commit,
// which built every alternative it costed); the ceiling is ~20 % above.
func TestOptimizeAllocCeiling(t *testing.T) {
	const ceiling = 2150
	q := planQuery(t, adhocDB(200), adhocChain(1, 7, 200, false))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := optimizer(q, DefaultOptions()).Optimize(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per 7-way chain Optimize", allocs)
	if allocs > ceiling {
		t.Errorf("7-way chain Optimize allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// TestGreedyForcedCartesian: three relations with no join predicate between
// any of them leave the greedy orderer nothing to combine on its first pass;
// the forced pass must cross-join them instead of failing.
func TestGreedyForcedCartesian(t *testing.T) {
	db := tierFixture(t)
	opts := DefaultOptions()
	opts.GreedyThreshold = 8
	q := buildQuery(t, db, "SELECT d.loc FROM Dept d, Dept e, Dept f WHERE d.budget > 100")
	o := optimizer(q, opts)
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if o.Tier != TierGreedy {
		t.Errorf("tier = %q, want %q", o.Tier, TierGreedy)
	}
	verifyPlan(t, db, q, plan)
}

// TestBlockTooWide: a block of more than 63 relations cannot be addressed by
// a subset bitmask and must be refused before any mask is formed.
func TestBlockTooWide(t *testing.T) {
	db := tierFixture(t)
	q := buildQuery(t, db, "SELECT d.loc FROM Dept d")
	scan := blockOf(t, optimizer(q, DefaultOptions()), q).leaves[0]
	root := scan
	for i := 1; i < 64; i++ {
		root = &logical.Join{Kind: logical.InnerJoin, Left: root, Right: scan}
	}
	if _, err := optimizer(q, DefaultOptions()).optimizeBlock(root, logical.ColSet{}); err == nil ||
		!strings.Contains(err.Error(), "exceed the enumerable maximum") {
		t.Errorf("64-relation block: err = %v, want the enumerable-maximum error", err)
	}
}
