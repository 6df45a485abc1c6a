// Command bench is the repository's standing benchmark: five closed-loop
// workloads driven through the engine's public API, six end-to-end metrics
// per workload, and a separate traced run that replays each statement
// through the layers' public functions to time them from outside. See
// README.md in this directory.
//
//	go -C bench run .                         every workload, end-to-end metrics
//	go -C bench run . --workload adhoc_planning --trace 1
//	go -C bench run . compare A.json B.json   regressions between two run sets
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef declares a metric as BENCHMARK.json does. Bound is the share of
// the baseline median by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.10},
}

var perLayer = []metricDef{
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "logical.build_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.apply_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.unnested_share", Unit: "ratio", Better: "higher"},
	{Name: "systemr.optimize_us", Unit: "us", Better: "lower"},
	{Name: "systemr.plans_costed", Unit: "count", Better: "lower"},
	{Name: "systemr.subsets_visited", Unit: "count", Better: "lower"},
	{Name: "systemr.tier_dp_share", Unit: "ratio", Better: "lower"},
	{Name: "systemr.est_cost_sum", Unit: "cost", Better: "lower"},
	{Name: "cascades.optimize_us", Unit: "us", Better: "lower"},
	{Name: "qgm.optimize_us", Unit: "us", Better: "lower"},
	{Name: "stats.worst_qerror_p50", Unit: "ratio", Better: "lower"},
	{Name: "plancache.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "plancache.misses", Unit: "count", Better: "lower"},
	{Name: "parallel.plan_us", Unit: "us", Better: "lower"},
	{Name: "parallel.speedup", Unit: "ratio", Better: "higher"},
	{Name: "exec.run_us", Unit: "us", Better: "lower"},
	{Name: "exec.run_share", Unit: "ratio", Better: "higher"},
	{Name: "exec.ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "exec.rows_processed", Unit: "count", Better: "lower"},
	{Name: "exec.hash_ops", Unit: "count", Better: "lower"},
	{Name: "exec.comparisons", Unit: "count", Better: "lower"},
	{Name: "exec.peak_mem_bytes", Unit: "bytes", Better: "lower"},
	{Name: "storage.delta_us", Unit: "us", Better: "lower"},
	{Name: "storage.prune_share", Unit: "ratio", Better: "higher"},
	{Name: "storage.miss_bytes_per_query", Unit: "bytes", Better: "lower"},
	{Name: "storage.blocks_dict", Unit: "count", Better: "lower"},
	{Name: "storage.blocks_rle", Unit: "count", Better: "lower"},
	{Name: "storage.blocks_plain", Unit: "count", Better: "lower"},
	{Name: "storage.bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "storage.rows_loaded", Unit: "count", Better: "higher"},
	{Name: "storage.load_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "storage.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "queryopt.overhead_us", Unit: "us", Better: "lower"},
	{Name: "queryopt.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "queryopt.planning_share", Unit: "ratio", Better: "lower"},
	{Name: "go.alloc_kb_per_query", Unit: "KiB", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.statements", Unit: "count", Better: "higher"},
	{Name: "trace.diverged", Unit: "count", Better: "lower"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
}

// metric is one measured value. Spread is the in-run IQR/median where the
// run holds several samples of the metric (rounds, set-ups, cycles).
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// report is one run of one workload, as written to the -out file.
type report struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Trace        bool              `json:"trace"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	FailedShare  float64           `json:"failed_share"`
	ResultDigest string            `json:"result_digest"`
	Statements   int               `json:"distinct_statements"`
	Samples      int               `json:"latency_samples,omitempty"`
	Rounds       int               `json:"rounds,omitempty"`
	OracleS      float64           `json:"oracle_s"`
	WallS        float64           `json:"wall_s"`
	Metrics      map[string]metric `json:"metrics"`
}

// provenance records where and on what a run set was taken.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seconds    float64 `json:"seconds"`
	Sizes      sizes   `json:"sizes"`
}

// outFile is the -out document; compare reads two of them. Running with the
// same -out again appends, so a run set can span invocations and seeds.
type outFile struct {
	Provenance provenance `json:"provenance"`
	Runs       []report   `json:"runs"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runWorkload generates the corpus, fills the oracle and runs one workload,
// untraced or traced.
func runWorkload(sp *spec, sz sizes, seed int64, seconds float64, trace bool) (*report, error) {
	start := time.Now()
	c := sp.gen(seed, sz)
	oracle, err := fillOracle(c)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: sp.name, Seed: seed, Trace: trace,
		ResultDigest: resultDigest(c), Statements: len(c.stmts),
		OracleS: oracle.Seconds(), Metrics: map[string]metric{},
	}
	var t *tally
	if trace {
		values, tt, err := traceWorkload(sp, c, seed, seconds)
		if err != nil {
			return nil, err
		}
		t = tt
		for _, d := range perLayer {
			rep.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		}
	} else {
		m, err := measure(sp, c, sz, seconds)
		if err != nil {
			return nil, err
		}
		t = &m.tally
		rep.Samples, rep.Rounds = len(m.lat), len(m.roundQPS)
		rep.Metrics["setup_s"] = metric{median(m.setups), "s", spread(m.setups)}
		rep.Metrics["queries_per_s"] = metric{median(m.roundQPS), "1/s", spread(m.roundQPS)}
		rep.Metrics["latency_p50_ms"] = metric{percentileMs(m.lat, 0.50), "ms", spread(m.roundP50)}
		rep.Metrics["latency_p95_ms"] = metric{percentileMs(m.lat, 0.95), "ms", spread(m.roundP95)}
		rep.Metrics["heap_live_mb"] = metric{median(m.heap), "MiB", spread(m.heap)}
	}
	rep.Attempted, rep.Failed = t.attempted, t.failed
	rep.Correct = t.failed == 0
	rep.FailedShare = float64(t.failed) / float64(t.attempted)
	rep.WallS = time.Since(start).Seconds()
	return rep, nil
}

// print writes one line per (workload, metric) pair, then the machine
// summary line the driver reads.
func (r *report) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("%-16s %-30s %16.6g %s", r.Workload, n, m.Value, m.Unit)
		if m.Spread > 0 {
			line += fmt.Sprintf("  (in-run IQR/median %.3f)", m.Spread)
		}
		fmt.Println(line)
	}
	fmt.Printf("%-16s %-30s %16.6g ratio  (%d failed of %d attempted)\n", r.Workload, "failed_share", r.FailedShare, r.Failed, r.Attempted)
	fmt.Printf("%-16s result_digest=%s distinct_statements=%d latency_samples=%d rounds=%d oracle_s=%.3f wall_s=%.3f\n",
		r.Workload, r.ResultDigest, r.Statements, r.Samples, r.Rounds, r.OracleS, r.WallS)
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for n, m := range r.Metrics {
		summary.Metrics[n] = metric{Value: m.Value, Unit: m.Unit} // exactly value and unit
	}
	line, _ := json.Marshal(summary)
	fmt.Println(string(line))
}

func appendOut(path string, prov provenance, runs []report) error {
	doc := outFile{Provenance: prov}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	doc.Runs = append(doc.Runs, runs...)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 15, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
	out := fs.String("out", "", "append the run records to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	selected := specs
	if *workload != "all" {
		sp := specByName(*workload)
		if sp == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		selected = []*spec{sp}
	}
	prov := provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(), Seconds: *seconds, Sizes: fullSizes,
	}
	fmt.Printf("nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%g sizes=%+v\n",
		prov.NProc, prov.GOMAXPROCS, prov.GoVersion, prov.Commit, *seed, *seconds, prov.Sizes)
	var runs []report
	failed := false
	for _, sp := range selected {
		rep, err := runWorkload(sp, fullSizes, *seed, *seconds, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		rep.print()
		runs = append(runs, *rep)
		failed = failed || !rep.Correct
	}
	if *out != "" {
		if err := appendOut(*out, prov, runs); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("results differ from the oracle")
	}
	return nil
}

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compare(os.Args[2:])
	} else {
		err = run(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
