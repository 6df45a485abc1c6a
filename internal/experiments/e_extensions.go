package experiments

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/histogram"
	"repro/internal/parametric"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// E19Parametric exercises the §7.4 "future work" direction the paper points
// to: parametric / dynamic query optimization ([19,33]) — defer the plan
// choice until the parameter value is known. The template is planned at each
// candidate with $1 bound by tag, as a plan-cache miss plans it, and each plan
// is added to a plan diagram (parametric.Diagram). The dynamic run dispatches
// the box containing the actual value; the static run takes the box of one
// representative value and runs its plan under the actual value. Both run on
// a flushed, directory-backed copy of the data, each from a cold block cache
// smaller than the columns they read, so the regret is in bytes read from
// segment files: a static index plan fetches rows in key order and re-reads
// the blocks the cache evicted in between.
func E19Parametric() Table {
	t := Table{
		ID:      "E19",
		Title:   "Extension: parametric / dynamic plans (§7.4, [19,33])",
		Claim:   "the optimal plan changes with the parameter; a plan frozen for one value pays a growing penalty elsewhere",
		Headers: []string{"param (did <=)", "diagram plan", "dynamic bytes read", "static-plan bytes read", "regret"},
	}
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 100000, Depts: 2000})
	db.Analyze(stats.AnalyzeOptions{Buckets: 40})
	dir := saveTemp(db)
	defer os.RemoveAll(dir)
	const cacheBytes = 256 << 10
	sel := mustParse("SELECT name FROM Emp WHERE did <= $1")
	dg := parametric.NewDiagram(1)
	for _, v := range []int64{1, 5, 20, 100, 400, 1000, 1999} {
		binds := []datum.D{datum.NewInt(v)}
		q := buildStmt(db, sel, binds...)
		plan, _ := optimize(db, q, systemr.DefaultOptions())
		_, estCost := plan.Estimate()
		if _, err := dg.Add(binds, plan, q, parametric.Signature(plan), estCost); err != nil {
			panic(err)
		}
	}
	// run executes box's plan under the binding v over a cold block cache.
	run := func(box *parametric.Box, v datum.D) exec.Counters {
		ctx := exec.NewCtx(openCold(db, dir, cacheBytes).Store, box.Query.Meta)
		if _, err := exec.Prepare(box.Plan, box.Query).Run(ctx, []datum.D{v}); err != nil {
			panic(fmt.Sprintf("experiments: execute: %v", err))
		}
		return ctx.Counters
	}
	static := dg.Find([]datum.D{datum.NewInt(1)}) // frozen for the most selective case
	for _, v := range []int64{1, 20, 400, 1999} {
		val := datum.NewInt(v)
		box := dg.Find([]datum.D{val})
		dyn, st := run(box, val), run(static, val)
		t.Rows = append(t.Rows, []string{
			d(int(v)), shortSig(box.Signature), d64(dyn.BytesRead), d64(st.BytesRead),
			fmt.Sprintf("%.1fx", float64(st.BytesRead)/float64(max64(dyn.BytesRead, 1))),
		})
	}
	t.Notes = fmt.Sprintf("plan diagram has %d boxes over the parameter space; the static plan was frozen at did<=1; "+
		"each run from a cold %d KiB block cache over segment files", dg.NumPlans(), cacheBytes>>10)
	return t
}

func shortSig(sig string) string {
	if len(sig) > 40 {
		return sig[:37] + "..."
	}
	return sig
}

// E20JointDistribution exercises the §5.1.1 "joint distribution" option:
// 2-D histograms remove the independence error on correlated conjunctions.
func E20JointDistribution() Table {
	t := Table{
		ID:      "E20",
		Title:   "Extension: 2-D histograms for correlated columns (§5.1.1, [45,51])",
		Claim:   "joint distributions fix the independence assumption's underestimate on correlated predicates",
		Headers: []string{"correlation", "range", "actual sel", "independence est", "2-D histogram est"},
	}
	rng := rand.New(rand.NewSource(20))
	for _, noise := range []int64{10, 200, 1000} {
		var as, bs []datum.D
		n := 30000
		for i := 0; i < n; i++ {
			a := rng.Int63n(1000)
			b := a + rng.Int63n(noise*2+1) - noise
			as = append(as, datum.NewInt(a))
			bs = append(bs, datum.NewInt(b))
		}
		label := "strong"
		if noise >= 1000 {
			label = "none"
		} else if noise >= 200 {
			label = "moderate"
		}
		h2 := histogram.Build2D(as, bs, 20, 10)
		ha := histogram.BuildEquiDepth(as, 30)
		hb := histogram.BuildEquiDepth(bs, 30)
		for _, hi := range []int64{200, 600} {
			exact := 0.0
			for i := range as {
				if as[i].Int() <= hi && bs[i].Int() <= hi {
					exact++
				}
			}
			exact /= float64(n)
			joint := h2.SelectivityRanges(datum.Null, false, datum.NewInt(hi), true,
				datum.Null, false, datum.NewInt(hi), true)
			indep := ha.SelectivityRange(datum.Null, false, datum.NewInt(hi), true) *
				hb.SelectivityRange(datum.Null, false, datum.NewInt(hi), true)
			t.Rows = append(t.Rows, []string{
				label, fmt.Sprintf("a,b <= %d", hi), pct(exact), pct(indep), pct(joint),
			})
		}
	}
	t.Notes = "with no correlation both estimators agree; under strong correlation independence underestimates ~2x while the 2-D histogram stays within a point"
	return t
}
