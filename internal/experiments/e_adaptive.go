package experiments

// e_adaptive.go measures the adaptive greedy fast path: the same seeded
// random corpus of short statements is planned and executed twice, once with
// full System-R dynamic programming and once with every join block routed to
// the greedy orderer, and the planning-time saving is confronted with the
// execution-time cost of the (possibly worse) greedy join orders. Results
// must be identical between arms — tier selection is a planning-quality
// decision, never a correctness one.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/datum"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// adaptiveArm is one planning configuration measured over the corpus.
type adaptiveArm struct {
	Name string
	// PlanNanos and ExecNanos are wall-time totals over the whole corpus.
	PlanNanos int64
	ExecNanos int64
	// MeanPlanMicros and MeanExecMicros are per-statement means.
	MeanPlanMicros float64
	MeanExecMicros float64
	// Tiers counts statements by the planning tier that produced their plan.
	Tiers map[string]int
	// TotalEstCost sums the optimizer's cost estimates (plan quality proxy).
	TotalEstCost float64
}

// adaptiveResult is the full planning-vs-execution tradeoff run.
type adaptiveResult struct {
	Queries int
	// IdenticalResults reports that both arms produced bit-identical row
	// multisets for every statement in the corpus.
	IdenticalResults bool
	// PlanSpeedup is DP planning time over greedy planning time (>1 means
	// the fast path planned faster); ExecRegression is greedy execution time
	// over DP execution time (>1 means greedy join orders executed slower).
	PlanSpeedup    float64
	ExecRegression float64
	Arms           []adaptiveArm
}

// exactDatum renders a datum so that float equality is bit-exact.
func exactDatum(d datum.D) string {
	if d.Kind() == datum.KindFloat {
		return strconv.FormatFloat(d.Float(), 'x', -1, 64)
	}
	return d.String()
}

// resultKey renders an execution result as a sorted row multiset.
func resultKey(rows []datum.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, d := range r {
			cells[j] = exactDatum(d)
		}
		out[i] = strings.Join(cells, ",")
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// adaptiveCorpus is the analyze corpus with every third statement replaced by
// a wider join chain (3–5 relations). The 2-way analyze shapes measure the
// fast path's overhead floor; the chains are where DP's exponential
// enumeration is real work a greedy order can skip.
func adaptiveCorpus(n int, rng *rand.Rand) []string {
	qs := analyzeCorpus(n, rng)
	for i := 0; i < len(qs); i += 3 {
		sal := 2000 + rng.Intn(18000)
		budget := 50 + rng.Intn(950)
		switch (i / 3) % 3 {
		case 0: // 3-relation chain
			qs[i] = fmt.Sprintf(
				"SELECT e.name, d.loc, m.sal FROM Emp e, Dept d, Emp m WHERE e.did = d.did AND m.eid = e.eid AND d.budget > %d", budget)
		case 1: // 4-relation chain
			qs[i] = fmt.Sprintf(
				"SELECT e.name, d2.dname FROM Emp e, Dept d, Emp m, Dept d2 WHERE e.did = d.did AND m.eid = e.eid AND d2.did = m.did AND e.sal > %d", sal)
		default: // 5-relation chain
			qs[i] = fmt.Sprintf(
				"SELECT e.eid, d.loc FROM Emp e, Dept d, Emp m, Dept d2, Emp m2 WHERE e.did = d.did AND m.eid = e.eid AND d2.did = m.did AND m2.eid = m.eid AND e.sal > %d AND d.budget > %d", sal, budget)
		}
	}
	return qs
}

// adaptiveBench plans and executes a 60-statement random corpus over 5000
// employees under both arms. Each statement is planned 5 times per arm
// (planning a short statement is microseconds; repetition keeps the timer out
// of the noise) and executed once.
func adaptiveBench() *adaptiveResult {
	const queries, reps, seed = 60, 5, 7
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 5000, Depts: 100, Seed: seed})
	db.Analyze(stats.AnalyzeOptions{})
	corpus := adaptiveCorpus(queries, rand.New(rand.NewSource(seed)))

	greedyOpts := systemr.DefaultOptions()
	greedyOpts.GreedyThreshold = 63
	arms := []struct {
		name string
		opts systemr.Options
	}{
		{"dp", systemr.DefaultOptions()},
		{"greedy", greedyOpts},
	}

	out := &adaptiveResult{Queries: queries, IdenticalResults: true}
	keys := make([][]string, len(arms))
	for ai, arm := range arms {
		pt := adaptiveArm{Name: arm.name, Tiers: map[string]int{}}
		for _, text := range corpus {
			q := mustBuild(db, text)
			t0 := time.Now()
			plan, opt := optimize(db, q, arm.opts)
			for r := 1; r < reps; r++ {
				plan, opt = optimize(db, mustBuild(db, text), arm.opts)
			}
			pt.PlanNanos += time.Since(t0).Nanoseconds()
			pt.Tiers[string(opt.Tier)]++
			_, c := plan.Estimate()
			pt.TotalEstCost += c
			t1 := time.Now()
			res, _ := runPlan(db, q, plan)
			pt.ExecNanos += time.Since(t1).Nanoseconds()
			keys[ai] = append(keys[ai], resultKey(res.Rows))
		}
		pt.MeanPlanMicros = float64(pt.PlanNanos) / float64(queries*reps) / 1e3
		pt.MeanExecMicros = float64(pt.ExecNanos) / float64(queries) / 1e3
		out.Arms = append(out.Arms, pt)
	}
	for i := range keys[0] {
		if keys[0][i] != keys[1][i] {
			out.IdenticalResults = false
		}
	}
	if g := out.Arms[1].PlanNanos; g > 0 {
		out.PlanSpeedup = float64(out.Arms[0].PlanNanos) / float64(g)
	}
	if d := out.Arms[0].ExecNanos; d > 0 {
		out.ExecRegression = float64(out.Arms[1].ExecNanos) / float64(d)
	}
	return out
}

// E26AdaptivePlanning reproduces the adaptive-planning tradeoff: greedy join
// ordering cuts planning time on short statements while execution time stays
// bounded (§3's enumeration cost vs. §4's plan quality, resolved adaptively).
func E26AdaptivePlanning() Table {
	r := adaptiveBench()
	t := Table{
		ID:      "E26",
		Title:   "Adaptive planning: greedy fast path vs full DP",
		Claim:   "for short statements, greedy join ordering planned faster than DP enumeration with bounded execution-time regression and identical results",
		Headers: []string{"arm", "mean plan (µs)", "mean exec (µs)", "total est cost", "tiers", "identical"},
	}
	for _, a := range r.Arms {
		var tiers []string
		for k, v := range a.Tiers {
			tiers = append(tiers, fmt.Sprintf("%s:%d", k, v))
		}
		sort.Strings(tiers)
		t.Rows = append(t.Rows, []string{
			a.Name, f1(a.MeanPlanMicros), f1(a.MeanExecMicros), f0(a.TotalEstCost), strings.Join(tiers, " "),
			fmt.Sprintf("%v", r.IdenticalResults),
		})
	}
	t.Notes = fmt.Sprintf("plan speedup %.2fx, exec regression %.2fx (%d statements, GOMAXPROCS=%d); identical = both arms returned the same rows for every statement",
		r.PlanSpeedup, r.ExecRegression, r.Queries, runtime.GOMAXPROCS(0))
	return t
}
