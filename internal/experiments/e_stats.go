package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/cost"
	"repro/internal/datum"
	"repro/internal/histogram"
	"repro/internal/physical"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// E10HistogramAccuracy reproduces the §5.1.1 claims about histogram
// structures: compressed (end-biased) histograms beat plain equi-depth on
// skewed data, and both crush the uniform assumption.
func E10HistogramAccuracy() Table {
	t := Table{
		ID:      "E10",
		Title:   "Histogram accuracy across skew (§5.1.1, [52])",
		Claim:   "compressed histograms are effective for high- or low-skew data; the uniform assumption degrades with skew",
		Headers: []string{"zipf s", "uniform-assumption err", "equi-depth err", "compressed err"},
	}
	rng := rand.New(rand.NewSource(10))
	n, dom, buckets := 50000, 1000, 20
	for _, s := range []float64{0, 1.1, 1.5, 2.0} {
		var vals []datum.D
		if s == 0 {
			for i := 0; i < n; i++ {
				vals = append(vals, datum.NewInt(rng.Int63n(int64(dom))))
			}
		} else {
			z := rand.NewZipf(rng, s, 1, uint64(dom-1))
			for i := 0; i < n; i++ {
				vals = append(vals, datum.NewInt(int64(z.Uint64())))
			}
		}
		freq := map[int64]float64{}
		distinct := 0.0
		for _, v := range vals {
			if freq[v.Int()] == 0 {
				distinct++
			}
			freq[v.Int()]++
		}
		ed := histogram.BuildEquiDepth(vals, buckets)
		cp := histogram.BuildCompressed(vals, buckets, buckets/2)
		// Mean relative error of equality estimates over sampled values.
		errOf := func(est func(datum.D) float64) float64 {
			sum, cnt := 0.0, 0
			for v, f := range freq {
				if f < 5 {
					continue
				}
				e := est(datum.NewInt(v))
				sum += math.Abs(e-f) / f
				cnt++
			}
			if cnt == 0 {
				return 0
			}
			return sum / float64(cnt)
		}
		uniform := func(datum.D) float64 { return float64(n) / distinct }
		t.Rows = append(t.Rows, []string{
			f1(s), pct(errOf(uniform)), pct(errOf(ed.EstimateEq)), pct(errOf(cp.EstimateEq)),
		})
	}
	t.Notes = "equality-estimate mean relative error over values with ≥5 occurrences; lower is better"
	return t
}

// E11SamplingAndDistinct reproduces §5.1.2: small samples yield accurate
// histograms, while distinct-value estimation is provably error-prone —
// naive scale-up fails where the GEE estimator stays within its bound.
func E11SamplingAndDistinct() Table {
	t := Table{
		ID:      "E11",
		Title:   "Sampling for histograms and distinct-value estimation (§5.1.2, [48,11,27])",
		Claim:   "a small sample builds an accurate histogram, but distinct-count estimation from samples has guaranteed worst cases",
		Headers: []string{"sample", "range est err", "distinct: scale-up err", "GEE err", "jackknife err"},
	}
	rng := rand.New(rand.NewSource(11))
	n := 100000
	// Low-distinct data (the adversarial case for scale-up).
	vals := make([]datum.D, n)
	for i := range vals {
		vals[i] = datum.NewInt(rng.Int63n(200))
	}
	exactDistinct := histogram.ExactDistinct(vals)
	exactRange := func(lo, hi int64) float64 {
		c := 0.0
		for _, v := range vals {
			if v.Int() >= lo && v.Int() <= hi {
				c++
			}
		}
		return c
	}
	for _, m := range []int{100, 1000, 10000} {
		sample := histogram.Sample(vals, m, rng)
		h := histogram.BuildFromSample(sample, n, 20)
		// Range error averaged over a few ranges.
		sumErr, cnt := 0.0, 0
		for _, rg := range [][2]int64{{0, 49}, {50, 149}, {100, 199}} {
			est := h.EstimateRange(datum.NewInt(rg[0]), true, datum.NewInt(rg[1]), true)
			exact := exactRange(rg[0], rg[1])
			sumErr += math.Abs(est-exact) / exact
			cnt++
		}
		relErr := func(est float64) float64 { return math.Abs(est-exactDistinct) / exactDistinct }
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d (%.1f%%)", m, 100*float64(m)/float64(n)),
			pct(sumErr / float64(cnt)),
			pct(relErr(histogram.DistinctScaleUp(sample, n))),
			pct(relErr(histogram.DistinctGEE(sample, n))),
			pct(relErr(histogram.DistinctJackknife(sample, n))),
		})
	}
	t.Notes = "data has only 200 distinct values in 100k rows; scale-up overestimates grossly at small samples"
	return t
}

// E12Propagation reproduces §5.1.3: the independence assumption
// underestimates correlated conjunctions; histogram joining beats the
// ad-hoc constants of [55].
func E12Propagation() Table {
	t := Table{
		ID:      "E12",
		Title:   "Propagation of statistics through operators (§5.1.3)",
		Claim:   "correlation breaks the independence assumption; joining histograms beats constant selectivities",
		Headers: []string{"case", "actual rows", "independence est", "most-selective est", "no-histogram est"},
	}
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 20000, Depts: 100})
	db.Analyze(stats.AnalyzeOptions{Buckets: 40})

	cases := []struct {
		name string
		sql  string
	}{
		{"correlated conjunction", "SELECT eid FROM Emp WHERE age >= 30 AND age >= 35 AND age >= 40"},
		{"independent conjunction", "SELECT eid FROM Emp WHERE age >= 40 AND sal > 10000"},
		{"FK join", "SELECT e.eid FROM Emp e, Dept d WHERE e.did = d.did"},
		{"join + filter", "SELECT e.eid FROM Emp e, Dept d WHERE e.did = d.did AND d.budget > 900"},
	}
	for _, c := range cases {
		q := mustBuild(db, c.sql)
		_, counters := runNaive(db, q)
		actualRows := float64(0)
		if res, _ := runNaive(db, q); res != nil {
			actualRows = float64(len(res.Rows))
		}
		_ = counters

		ind := stats.NewEstimator(q.Meta)
		ind.Mode = stats.Independence
		ms := stats.NewEstimator(q.Meta)
		ms.Mode = stats.MostSelective
		noHist := stats.NewEstimator(q.Meta)
		noHist.UseHistograms = false

		t.Rows = append(t.Rows, []string{
			c.name, f0(actualRows),
			f0(ind.Stats(q.Root).Rows), f0(ms.Stats(q.Root).Rows), f0(noHist.Stats(q.Root).Rows),
		})
	}
	t.Notes = "independence underestimates the correlated case; most-selective overestimates independent conjunctions"
	return t
}

// E13BufferModel reproduces §5.2 / [40]: modeling buffer utilization changes
// which plan the optimizer picks for repeated index probes. Each chosen plan
// then runs on a flushed, directory-backed copy of the data from a cold block
// cache the size of the modeled buffer pool, so the model's hit ratio stands
// next to the one the real cache measured.
func E13BufferModel() Table {
	// Emp fits in the modeled buffer pool, so repeated index probes are warm.
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 12000, Depts: 400})
	db.Analyze(stats.AnalyzeOptions{})
	qs := "SELECT e.eid FROM Dept d, Emp e WHERE d.did = e.did AND d.budget > 900"
	q := mustBuild(db, qs)

	withBuf := cost.DefaultModel() // BufferPages = 256
	noBuf := cost.DefaultModel()
	noBuf.BufferPages = 0
	dir := saveTemp(db)
	defer os.RemoveAll(dir)
	poolBytes := int64(withBuf.BufferPages) * storage.PageSize
	emp, _ := db.Cat.Table("Emp")

	row := func(label string, m cost.Model) []string {
		opt := systemr.New(stats.NewEstimator(q.Meta), m, systemr.DefaultOptions())
		plan, err := opt.Optimize(q)
		if err != nil {
			panic(err)
		}
		_, c := plan.Estimate()
		_, n := runPlan(openCold(db, dir, poolBytes), q, plan)
		reads := n.BlockHits + n.BlocksDict + n.BlocksRLE + n.BlocksPlain
		return []string{label, joinAlgoOf(plan), f1(c), f2(m.HitRatio(float64(emp.Stats.PageCount))),
			f2(float64(n.BlockHits) / float64(max64(reads, 1))), d64(n.BytesRead / storage.PageSize), d64(n.IndexSeeks)}
	}
	return Table{
		ID:      "E13",
		Title:   "Buffer-utilization modeling (§5.2, Mackert/Lohman [40])",
		Claim:   "accounting for buffer hits on repeated index probes changes the chosen join method",
		Headers: []string{"cost model", "chosen join", "est cost", "modeled hit ratio", "measured hit ratio", "measured pages", "index seeks"},
		Rows: [][]string{
			row("with buffer model", withBuf),
			row("no buffer model", noBuf),
		},
		Notes: fmt.Sprintf("with buffering, repeated probes hit warm pages, making index nested-loop competitive (the DB2 locality observation [17]); "+
			"measured: each plan from a cold %d KiB block cache over segment files, hit ratio = block hits / column block reads, pages = bytes read / %d",
			poolBytes>>10, storage.PageSize),
	}
}

func joinAlgoOf(p physical.Plan) string {
	switch t := p.(type) {
	case *physical.NLJoin:
		return "nested-loop"
	case *physical.HashJoin:
		return "hash"
	case *physical.MergeJoin:
		return "merge"
	case *physical.INLJoin:
		return "index-nested-loop"
	default:
		for _, c := range physical.Children(p) {
			if a := joinAlgoOf(c); a != "" {
				return a
			}
		}
		_ = t
	}
	return ""
}
