package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCode keeps BENCHMARK.json and the tables in main.go
// and workload.go from drifting apart.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", c.PerLayer, perLayer)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: json %q/%q, code %q/%q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
}

// TestWorkloads runs every workload at tiny scale: untraced once and traced
// twice with the same seed.
func TestWorkloads(t *testing.T) {
	c := readContract(t)
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			rep, err := runWorkload(sp, tinySizes, 7, 0.2, false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || !rep.Correct || rep.Attempted == 0 {
				t.Errorf("failed %d of %d attempted", rep.Failed, rep.Attempted)
			}
			for _, d := range c.EndToEnd {
				if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value == 0 {
					t.Errorf("end-to-end metric %s: got %+v (present %v)", d.Name, m, ok)
				}
			}
			if len(rep.Metrics) != len(c.EndToEnd) {
				t.Errorf("untraced run emitted %d metrics, contract names %d", len(rep.Metrics), len(c.EndToEnd))
			}

			t1, err := runWorkload(sp, tinySizes, 7, 0.2, true)
			if err != nil {
				t.Fatal(err)
			}
			t2, err := runWorkload(sp, tinySizes, 7, 0.2, true)
			if err != nil {
				t.Fatal(err)
			}
			if t1.Failed != 0 || t2.Failed != 0 {
				t.Errorf("traced runs failed %d and %d statements", t1.Failed, t2.Failed)
			}
			for _, d := range c.PerLayer {
				if m, ok := t1.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v)", d.Name, m, ok)
				}
			}
			if len(t1.Metrics) != len(c.PerLayer) {
				t.Errorf("traced run emitted %d metrics, contract names %d", len(t1.Metrics), len(c.PerLayer))
			}
			// Fixed work must count the same twice.
			for _, name := range exactCounters {
				if a, b := t1.Metrics[name].Value, t2.Metrics[name].Value; a != b {
					t.Errorf("exact counter %s: %v then %v", name, a, b)
				}
			}
			if t1.ResultDigest != rep.ResultDigest || t2.ResultDigest != rep.ResultDigest {
				t.Errorf("result digests differ: %s %s %s", rep.ResultDigest, t1.ResultDigest, t2.ResultDigest)
			}
			if sp.name == "ingest_mixed" {
				// One client and a deterministic interleave: even the
				// statement count of a run repeats.
				if t1.Attempted != t2.Attempted {
					t.Errorf("ingest_mixed attempted %d then %d statements", t1.Attempted, t2.Attempted)
				}
				want := float64(tinySizes.IngestInitial + tinySizes.IngestBatch*tinySizes.IngestBatches)
				if got := t1.Metrics["storage.rows_loaded"].Value; got != want {
					t.Errorf("storage.rows_loaded = %v, want %v", got, want)
				}
			}
			if t1.Metrics["trace.diverged"].Value != 0 {
				t.Errorf("trace.diverged = %v", t1.Metrics["trace.diverged"].Value)
			}
		})
	}
}

// TestAnalyticTwinsShareDigest: analytic_mem and analytic_disk run the same
// data and statements, so their oracles must agree.
func TestAnalyticTwinsShareDigest(t *testing.T) {
	digest := func(name string) string {
		c := specByName(name).gen(3, tinySizes)
		if _, err := fillOracle(c); err != nil {
			t.Fatal(err)
		}
		return resultDigest(c)
	}
	if m, d := digest("analytic_mem"), digest("analytic_disk"); m != d {
		t.Errorf("analytic_mem digest %s, analytic_disk %s", m, d)
	}
}

// TestSeedChangesStream: inputs come from the seed and nothing else.
func TestSeedChangesStream(t *testing.T) {
	stream := func(sp *spec, seed int64) string {
		s := ""
		for _, pass := range sp.gen(seed, tinySizes).passes {
			for _, st := range pass {
				s += st.text + fmt.Sprint(st.args) + "\n"
			}
		}
		return s
	}
	for _, sp := range specs {
		a, again, b := stream(sp, 1), stream(sp, 1), stream(sp, 2)
		if a != again {
			t.Errorf("%s: the same seed gave two different streams", sp.name)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", sp.name)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	v := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
