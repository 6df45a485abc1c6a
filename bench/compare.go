package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// exactCounters are the traced metrics that count fixed work: for one seed
// they must repeat bit for bit, so any difference is a behaviour change.
var exactCounters = []string{
	"systemr.plans_costed", "systemr.subsets_visited", "systemr.est_cost_sum",
	"exec.rows_processed", "storage.rows_loaded", "trace.diverged",
}

func readOut(path string) (*outFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc outFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// side collects one run set's samples of one metric on one workload.
type side struct {
	values []float64
	inRun  float64 // widest in-run spread among the runs
}

func collect(doc *outFile, workload, name string) side {
	var s side
	for _, r := range doc.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			s.values = append(s.values, m.Value)
			if m.Spread > s.inRun {
				s.inRun = m.Spread
			}
		}
	}
	return s
}

// noise is the spread a side's median carries: across runs when there are
// enough of them for quartiles, else the widest spread seen inside a run.
func (s side) noise() float64 {
	if len(s.values) >= 4 {
		return spread(s.values)
	}
	return s.inRun
}

// compare checks run set B against baseline A: every end-to-end metric of
// every workload against its bound, and the exact counters of traced runs
// for equality. A metric whose noise exceeds its bound on either side is
// unresolved, not unchanged.
func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare BASELINE.json CANDIDATE.json")
	}
	a, err := readOut(args[0])
	if err != nil {
		return err
	}
	b, err := readOut(args[1])
	if err != nil {
		return err
	}
	regressed, unresolved := 0, 0
	for _, sp := range specs {
		for _, d := range endToEnd {
			sa, sb := collect(a, sp.name, d.Name), collect(b, sp.name, d.Name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			ma, mb := median(sa.values), median(sb.values)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			status := "ok"
			switch {
			case sa.noise() > d.Bound || sb.noise() > d.Bound:
				status = "UNRESOLVED"
				unresolved++
			case worse > d.Bound:
				status = "REGRESSED"
				regressed++
			}
			fmt.Printf("%-16s %-16s %14.6g -> %14.6g %-5s worse by %+7.2f%% (bound %2.0f%%, noise %.3f / %.3f, n %d / %d)  %s\n",
				sp.name, d.Name, ma, mb, d.Unit, 100*worse, 100*d.Bound, sa.noise(), sb.noise(), len(sa.values), len(sb.values), status)
		}
	}
	for _, rb := range b.Runs {
		if rb.Failed > 0 {
			fmt.Printf("%-16s seed %d: %d of %d statements failed  REGRESSED\n", rb.Workload, rb.Seed, rb.Failed, rb.Attempted)
			regressed++
		}
		if !rb.Trace {
			continue
		}
		for _, ra := range a.Runs {
			if !ra.Trace || ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			for _, name := range exactCounters {
				if va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value; va != vb {
					fmt.Printf("%-16s seed %d: exact counter %s differs: %v -> %v  REGRESSED\n", rb.Workload, rb.Seed, name, va, vb)
					regressed++
				}
			}
			break
		}
	}
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d regression(s)", regressed)
	}
	return nil
}
