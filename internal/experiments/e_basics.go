package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// E1OperatorTree reproduces Figure 1: a three-way join whose chosen plan is a
// physical operator tree mixing join algorithms — a merge join feeding an
// index nested-loop join, exactly the paper's illustration.
func E1OperatorTree() Table {
	// One join predicate has no index (payload), one does (fk = pk), and the
	// query wants an order — inviting a mix of hash/merge, index-nested-loop
	// and sort operators in one tree, as in the paper's figure.
	db := workload.Chain(workload.ChainConfig{Tables: 3, RowsPer: []int{5000, 5000, 200}, Seed: 1})
	db.Analyze(stats.AnalyzeOptions{})
	q := mustBuild(db, `SELECT r1.payload FROM r1, r2, r3
		WHERE r1.payload = r2.payload AND r2.fk = r3.pk AND r3.payload < 100
		ORDER BY r1.payload`)
	plan, _ := optimize(db, q, systemr.DefaultOptions())
	_, counters := runPlan(db, q, plan)
	t := Table{
		ID:      "E1",
		Title:   "Figure 1: physical operator tree",
		Claim:   "SQL executes as a tree of physical operators; the optimizer mixes join algorithms within one plan",
		Headers: []string{"operator", "est rows", "est cost"},
	}
	var walk func(p physical.Plan, depth int)
	walk = func(p physical.Plan, depth int) {
		rows, c := p.Estimate()
		name := fmt.Sprintf("%T", p)
		name = strings.Repeat("  ", depth) + name[strings.LastIndex(name, ".")+1:]
		t.Rows = append(t.Rows, []string{name, f0(rows), f1(c)})
		for _, ch := range physical.Children(p) {
			walk(ch, depth+1)
		}
	}
	walk(plan, 0)
	t.Notes = fmt.Sprintf("measured: %d rows processed, %d index seeks",
		counters.RowsProcessed, counters.IndexSeeks)
	return t
}

// E2DPvsNaive reproduces §3's enumeration claim: dynamic programming costs
// O(n·2^(n-1)) plans where exhaustive permutation enumeration costs O(n!),
// while finding a plan at least as good.
func E2DPvsNaive() Table {
	t := Table{
		ID:      "E2",
		Title:   "DP vs naive join enumeration (§3)",
		Claim:   "DP enumerates O(n·2^n) plans instead of O(n!) with no loss of plan quality",
		Headers: []string{"relations", "DP plans costed", "naive plans costed", "ratio", "DP cost", "naive cost"},
	}
	rows := []int{500, 800, 300, 700, 400, 600, 350, 450}
	for n := 3; n <= 7; n++ {
		db := workload.Chain(workload.ChainConfig{Tables: n, RowsPer: rows[:n], Seed: int64(n)})
		db.Analyze(stats.AnalyzeOptions{})
		q := mustBuild(db, workload.ChainQuery(n))
		dpPlan, dpOpt := optimize(db, q, systemr.DefaultOptions())
		nvOpt := systemr.New(stats.NewEstimator(q.Meta), cost.DefaultModel(), systemr.DefaultOptions())
		nvPlan, err := nvOpt.OptimizeNaive(q)
		if err != nil {
			panic(err)
		}
		_, dpCost := dpPlan.Estimate()
		_, nvCost := nvPlan.Estimate()
		t.Rows = append(t.Rows, []string{
			d(n), d(dpOpt.Metrics.PlansCosted), d(nvOpt.Metrics.PlansCosted),
			f1(float64(nvOpt.Metrics.PlansCosted) / float64(dpOpt.Metrics.PlansCosted)),
			f1(dpCost), f1(nvCost),
		})
	}
	t.Notes = "DP cost must never exceed naive cost; the plans-costed ratio grows factorially"
	return t
}

// E3InterestingOrders reproduces the §3 interesting-orders claim: pruning
// without regard to orderings discards plans whose sortedness pays off later.
func E3InterestingOrders() Table {
	t := Table{
		ID:      "E3",
		Title:   "Interesting orders (§3)",
		Claim:   "plans are comparable only within the same (expression, order); order-oblivious pruning loses optimality",
		Headers: []string{"relations", "with IO: cost", "entries kept", "without IO: cost", "entries kept", "penalty"},
	}
	for _, n := range []int{3, 4, 5} {
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 20000
		}
		db := workload.Chain(workload.ChainConfig{Tables: n, RowsPer: sizes, Seed: int64(n) * 3})
		db.Analyze(stats.AnalyzeOptions{})
		q := mustBuild(db, workload.ChainQuery(n))
		// Classic System R repertoire: nested-loop and sort-merge only, so
		// that orderings (not hash or index joins) carry the plans.
		base := systemr.Options{InterestingOrders: true, MaxRelations: 16,
			DisableHashJoin: true, DisableINLJoin: true}
		withPlan, withOpt := optimize(db, q, base)
		noIO := base
		noIO.InterestingOrders = false
		withoutPlan, withoutOpt := optimize(db, q, noIO)
		_, cw := withPlan.Estimate()
		_, co := withoutPlan.Estimate()
		t.Rows = append(t.Rows, []string{
			d(n), f1(cw), d(withOpt.Metrics.EntriesKept),
			f1(co), d(withoutOpt.Metrics.EntriesKept),
			fmt.Sprintf("%.2fx", co/cw),
		})
	}
	t.Notes = "penalty ≥ 1.00x: the interesting-order table retains more entries and never yields a worse plan"
	return t
}

// E4BushyAndStar reproduces §4.1.1: bushy trees widen the space (at a sharp
// enumeration cost) and star queries benefit from Cartesian products among
// selective dimension tables.
func E4BushyAndStar() Table {
	t := Table{
		ID:      "E4",
		Title:   "Linear vs bushy spaces; Cartesian products on star queries (§4.1.1, Fig. 2b)",
		Claim:   "bushy enumeration costs far more but can win; star queries profit from dimension Cartesian products",
		Headers: []string{"scenario", "space", "plans costed", "best est cost"},
	}
	// Chain query: linear vs bushy.
	db := workload.Chain(workload.ChainConfig{Tables: 6, RowsPer: []int{3000, 50, 3000, 50, 3000, 50}, Seed: 4})
	db.Analyze(stats.AnalyzeOptions{})
	q := mustBuild(db, workload.ChainQuery(6))
	linPlan, linOpt := optimize(db, q, systemr.DefaultOptions())
	bushyPlan, bushyOpt := optimize(db, q, systemr.Options{Bushy: true, InterestingOrders: true, MaxRelations: 16})
	_, lc := linPlan.Estimate()
	_, bc := bushyPlan.Estimate()
	t.Rows = append(t.Rows,
		[]string{"chain-6", "linear", d(linOpt.Metrics.PlansCosted), f1(lc)},
		[]string{"chain-6", "bushy", d(bushyOpt.Metrics.PlansCosted), f1(bc)},
	)
	// Star query: with and without Cartesian products.
	star := workload.Star(workload.StarConfig{FactRows: 40000, DimRows: []int{40, 40}, Seed: 4})
	star.Analyze(stats.AnalyzeOptions{})
	sq := mustBuild(star, `SELECT sales.amount FROM sales, dim1, dim2
		WHERE sales.k1 = dim1.k AND sales.k2 = dim2.k AND dim1.filt < 1 AND dim2.filt < 1`)
	noCP, noCPOpt := optimize(star, sq, systemr.Options{InterestingOrders: true, MaxRelations: 16})
	withCP, withCPOpt := optimize(star, sq, systemr.Options{InterestingOrders: true, Bushy: true, CartesianProducts: true, MaxRelations: 16})
	_, nc := noCP.Estimate()
	_, wc := withCP.Estimate()
	t.Rows = append(t.Rows,
		[]string{"star-2dim", "no Cartesian", d(noCPOpt.Metrics.PlansCosted), f1(nc)},
		[]string{"star-2dim", "with Cartesian", d(withCPOpt.Metrics.PlansCosted), f1(wc)},
	)
	t.Notes = "the wider space never yields a worse best plan; its enumeration cost is the tradeoff"
	return t
}

// E5OuterjoinReorder reproduces §4.1.2: Join(R, S LOJ T) = Join(R,S) LOJ T
// when the join predicate spans R and S only. A selective join over R makes
// evaluating the join block before the outerjoin a large win; the identity
// must still be applied cost-based (the paper's caveat), which the second
// scenario shows by making the original form cheaper.
func E5OuterjoinReorder() Table {
	t := Table{
		ID:      "E5",
		Title:   "Join/outerjoin associativity (§4.1.2)",
		Claim:   "Join(R, S LOJ T) = Join(R,S) LOJ T lets joins evaluate before outerjoins; use is cost-based",
		Headers: []string{"scenario", "form", "est cost", "rows processed", "index seeks"},
	}
	measure := func(db *workload.DB, scenario, qs string) {
		before := mustBuild(db, qs)
		planB, _ := optimize(db, before, systemr.DefaultOptions())
		_, cb := planB.Estimate()
		_, countersB := runPlan(db, before, planB)
		after := mustBuild(db, qs)
		rewrite.AssociateJoinOuterjoin(after)
		logical.NormalizeQuery(after, logical.DefaultNormalize())
		planA, _ := optimize(db, after, systemr.DefaultOptions())
		_, ca := planA.Estimate()
		_, countersA := runPlan(db, after, planA)
		t.Rows = append(t.Rows,
			[]string{scenario, "original (LOJ inside)", f1(cb), d64(countersB.RowsProcessed), d64(countersB.IndexSeeks)},
			[]string{scenario, "reassociated (joins first)", f1(ca), d64(countersA.RowsProcessed), d64(countersA.IndexSeeks)},
		)
	}
	// Selective R: the join block shrinks the stream before the outerjoin.
	db := workload.Chain(workload.ChainConfig{Tables: 3, RowsPer: []int{200, 20000, 20000}, Seed: 5})
	db.Analyze(stats.AnalyzeOptions{})
	measure(db, "selective R",
		`SELECT r1.payload FROM r1 JOIN (r2 LEFT OUTER JOIN r3 ON r2.fk = r3.pk) ON r1.fk = r2.pk`)
	// Unselective R: the identity does not pay; a cost-based optimizer keeps
	// the original shape.
	db2 := workload.Chain(workload.ChainConfig{Tables: 3, RowsPer: []int{20000, 200, 20000}, Seed: 5})
	db2.Analyze(stats.AnalyzeOptions{})
	measure(db2, "unselective R",
		`SELECT r1.payload FROM r1 JOIN (r2 LEFT OUTER JOIN r3 ON r2.fk = r3.pk) ON r1.fk = r2.pk`)
	t.Notes = "both forms return identical rows; the identity is applied only when it lowers estimated cost"
	return t
}
