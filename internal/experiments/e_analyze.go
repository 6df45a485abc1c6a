package experiments

// e_analyze.go drives a seeded random query corpus through the instrumented
// executor (the machinery behind EXPLAIN ANALYZE) and aggregates per-operator
// estimate-vs-actual q-errors. The resulting distribution quantifies how far
// the §5 statistical model drifts from runtime truth across operator kinds —
// the execution-feedback signal.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/exec"
	"repro/internal/physical"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// analyzePoint is the q-error distribution at one parallelism degree.
type analyzePoint struct {
	Degree        int
	Nodes         int
	GeoMeanQError float64
	P50QError     float64
	P90QError     float64
	P99QError     float64
	MaxQError     float64
	// WithinFactor2 is the fraction of plan nodes whose estimate is within a
	// factor of two of the measured cardinality.
	WithinFactor2 float64
	// Worst is the node with the largest q-error.
	Worst *physical.FeedbackEntry
}

// analyzeCorpus generates n seeded random SPJ/aggregate/ORDER BY queries over
// the Emp/Dept schema: selections with conjunctive range predicates (where the
// independence assumption can err), equijoins, grouped aggregates and sorted
// prefixes.
func analyzeCorpus(n int, rng *rand.Rand) []string {
	qs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		sal := 2000 + rng.Intn(18000)
		age := 20 + rng.Intn(45)
		did := rng.Intn(100)
		budget := 50 + rng.Intn(950)
		switch i % 5 {
		case 0: // selection with a single range predicate
			qs = append(qs, fmt.Sprintf(
				"SELECT eid, sal FROM Emp WHERE sal > %d", sal))
		case 1: // conjunction: independence assumption territory
			qs = append(qs, fmt.Sprintf(
				"SELECT eid FROM Emp WHERE sal > %d AND age < %d AND did <> %d", sal, age, did))
		case 2: // equijoin with a dimension filter
			qs = append(qs, fmt.Sprintf(
				"SELECT e.name, d.dname FROM Emp e, Dept d WHERE e.did = d.did AND d.budget > %d", budget))
		case 3: // grouped aggregate over a filtered scan
			qs = append(qs, fmt.Sprintf(
				"SELECT did, COUNT(*), AVG(sal) FROM Emp WHERE age >= %d GROUP BY did", age))
		default: // join + aggregate + ORDER BY prefix
			qs = append(qs, fmt.Sprintf(
				"SELECT d.loc, SUM(e.sal) FROM Emp e, Dept d WHERE e.did = d.did AND e.sal > %d GROUP BY d.loc ORDER BY d.loc LIMIT 3", sal))
		}
	}
	return qs
}

// analyzeBench executes a 60-statement random corpus over 8000 employees with
// per-operator metrics enabled at degrees 1 and 4 and aggregates the q-error
// distribution per degree.
func analyzeBench() []analyzePoint {
	const queries, seed = 60, 22
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 8000, Depts: 100, Seed: seed})
	db.Analyze(stats.AnalyzeOptions{})
	corpus := analyzeCorpus(queries, rand.New(rand.NewSource(seed)))
	pool := exec.NewPool(4)
	defer pool.Close()

	var out []analyzePoint
	for _, deg := range []int{1, 4} {
		ring := physical.NewFeedbackRing(queries * 32)
		for _, text := range corpus {
			q := mustBuild(db, text)
			plan, _ := optimize(db, q, systemr.DefaultOptions())
			ctx := exec.NewCtx(db.Store, q.Meta)
			if deg > 1 {
				ctx.Parallelism = deg
				ctx.Pool = pool
			}
			rm := ctx.EnableAnalyze()
			if _, err := exec.RunPlanQuery(plan, q, ctx); err != nil {
				panic(fmt.Sprintf("experiments: analyze bench %q: %v", text, err))
			}
			ring.RecordPlan(plan, q.Meta, rm, text)
		}
		out = append(out, summarizeQErrors(deg, ring))
	}
	return out
}

// summarizeQErrors reduces the ring's observations to a distribution point.
func summarizeQErrors(degree int, ring *physical.FeedbackRing) analyzePoint {
	entries := ring.Entries()
	qs := make([]float64, len(entries))
	logSum, within2 := 0.0, 0
	for i, e := range entries {
		qs[i] = e.QError
		logSum += math.Log(e.QError)
		if e.QError <= 2 {
			within2++
		}
	}
	sort.Float64s(qs)
	pctile := func(p float64) float64 {
		if len(qs) == 0 {
			return 0
		}
		i := int(p * float64(len(qs)-1))
		return qs[i]
	}
	pt := analyzePoint{Degree: degree, Nodes: len(entries)}
	if len(entries) > 0 {
		pt.GeoMeanQError = math.Exp(logSum / float64(len(entries)))
		pt.P50QError = pctile(0.50)
		pt.P90QError = pctile(0.90)
		pt.P99QError = pctile(0.99)
		pt.MaxQError = qs[len(qs)-1]
		pt.WithinFactor2 = float64(within2) / float64(len(entries))
	}
	if worst := ring.WorstOffenders(1); len(worst) > 0 {
		pt.Worst = &worst[0]
	}
	return pt
}

// E22AnalyzeFeedback runs the random corpus under per-operator
// instrumentation and reports the estimate-vs-actual q-error distribution at
// serial and parallel degrees. Fresh statistics on this mostly-uniform data
// keep the median near 1; the tail (conjunctions, post-join aggregates) is
// where the independence and uniformity assumptions of §5 give way.
func E22AnalyzeFeedback() Table {
	t := Table{
		ID:      "E22",
		Title:   "Execution feedback: estimate-vs-actual q-error (EXPLAIN ANALYZE)",
		Claim:   "fresh stats keep median q-error ~1; misestimation concentrates in conjunctive and post-join nodes",
		Headers: []string{"degree", "nodes", "geomean", "p50", "p90", "p99", "max", "within 2x"},
	}
	points := analyzeBench()
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			d(p.Degree), d(p.Nodes),
			f2(p.GeoMeanQError), f2(p.P50QError), f2(p.P90QError), f2(p.P99QError), f2(p.MaxQError),
			pct(p.WithinFactor2),
		})
	}
	if w := points[0].Worst; w != nil {
		t.Notes = fmt.Sprintf("worst offender: %s est=%.0f actual=%.0f q_err=%.1f",
			w.Node, w.Est, w.Actual, w.QError)
	}
	return t
}
