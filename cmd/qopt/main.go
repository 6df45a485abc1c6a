// Command qopt is an interactive SQL shell over the embedded engine. It
// reads one statement per line (or runs a single -e statement), supports
// EXPLAIN, and can preload demo datasets:
//
//	go run ./cmd/qopt -demo empdept
//	go run ./cmd/qopt -demo star -optimizer cascades -e "EXPLAIN SELECT ..."
//	echo "SELECT 1" | go run ./cmd/qopt
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	queryopt "repro"
	"repro/internal/systemr"
)

func main() {
	optimizer := flag.String("optimizer", "systemr", "optimizer: systemr | starburst | cascades | reference")
	demo := flag.String("demo", "", "preload a demo dataset: empdept | star")
	stmt := flag.String("e", "", "execute one statement and exit")
	useMV := flag.Bool("matviews", true, "answer queries using materialized views")
	par := flag.Int("parallel", 1, "execute with this degree of parallelism (morsel-driven executor, §7.1)")
	analyzeAll := flag.Bool("analyze", false, "run every SELECT as EXPLAIN ANALYZE (per-operator runtime metrics)")
	memBudget := flag.Int64("membudget", 0, "per-query working-memory cap in bytes; operators spill to disk past it (0 = unlimited)")
	vectorize := flag.Bool("vectorize", true, "compile typed kernels for the predicates and aggregates that have one (false: the same operators evaluate predicates row-at-a-time and aggregate through the row accumulators)")
	timeout := flag.Duration("timeout", 0, "per-statement deadline, e.g. 500ms or 10s (0 = none)")
	sessions := flag.Int("sessions", 1, "with -e: run the statement concurrently from this many sessions and report qps")
	planCache := flag.String("plancache", "on", "parameterized plan cache for prepared statements: on | off")
	greedyThreshold := flag.Int("greedy-threshold", 0, "adaptive greedy fast path: join blocks of up to this many relations skip DP (0 = off)")
	replanQError := flag.Float64("replan-qerror", 0, "re-optimize a statement after an analyzed run whose worst q-error exceeds this (0 = off; implies feedback patching)")
	storageDir := flag.String("storage-dir", "", "give sealed columnar segments files under this directory (empty = segments pinned in memory)")
	segmentRows := flag.Int("segment-rows", 0, "rows per sealed segment, with or without -storage-dir (0 = default 4096)")
	compression := flag.String("compression", "on", "dictionary/run-length encoding when sealing segments: on | off")
	scrub := flag.Bool("scrub", false, "verify every checksum under -storage-dir and exit (0 = clean, 1 = corruption found)")
	flag.Parse()

	if *scrub {
		if *storageDir == "" {
			fmt.Fprintln(os.Stderr, "-scrub requires -storage-dir")
			os.Exit(1)
		}
		found, err := queryopt.ScrubDir(*storageDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scrub: %v\n", err)
			os.Exit(1)
		}
		for _, ce := range found {
			fmt.Printf("corrupt: table=%s segment=%d region=%s column=%d offset=%d: %s\n",
				ce.Table, ce.Segment, ce.Region, ce.Column, ce.Offset, ce.Detail)
		}
		if len(found) > 0 {
			fmt.Printf("%d corruptions found\n", len(found))
			os.Exit(1)
		}
		fmt.Println("scrub clean")
		return
	}

	opts := queryopt.Options{
		UseMaterializedViews: *useMV, Parallelism: *par, MemBudget: *memBudget,
		SystemR:               systemr.Options{GreedyThreshold: *greedyThreshold},
		ReplanQErrorThreshold: *replanQError,
		StorageDir:            *storageDir,
		SegmentRows:           *segmentRows,
		FeedbackPatching:      *replanQError > 0,
	}
	if !*vectorize {
		opts.Vectorize = queryopt.VectorizeOff
	}
	switch strings.ToLower(*compression) {
	case "on", "":
	case "off":
		opts.DisableCompression = true
	default:
		fmt.Fprintf(os.Stderr, "unknown -compression %q (want on or off)\n", *compression)
		os.Exit(1)
	}
	switch strings.ToLower(*planCache) {
	case "on", "":
	case "off":
		opts.PlanCacheSize = -1
	default:
		fmt.Fprintf(os.Stderr, "unknown -plancache %q (want on or off)\n", *planCache)
		os.Exit(1)
	}
	switch strings.ToLower(*optimizer) {
	case "systemr", "system-r":
		opts.Optimizer = queryopt.SystemR
	case "starburst":
		opts.Optimizer = queryopt.Starburst
	case "cascades", "volcano":
		opts.Optimizer = queryopt.Cascades
	case "reference", "naive":
		opts.Optimizer = queryopt.Reference
	default:
		fmt.Fprintf(os.Stderr, "unknown optimizer %q\n", *optimizer)
		os.Exit(1)
	}
	eng := queryopt.New(opts)
	defer eng.Close()
	switch strings.ToLower(*demo) {
	case "":
	case "empdept":
		loadEmpDept(eng)
		fmt.Println("loaded demo: emp (10000 rows), dept (100 rows); try:")
		fmt.Println("  SELECT d.loc, COUNT(*) FROM emp e, dept d WHERE e.did = d.did GROUP BY d.loc;")
	case "star":
		loadStar(eng)
		fmt.Println("loaded demo: sales (50000 rows), dim_product (200), dim_store (50); try:")
		fmt.Println("  EXPLAIN SELECT s.city, SUM(f.amount) FROM sales f, dim_store s WHERE f.k2 = s.k GROUP BY s.city;")
	default:
		fmt.Fprintf(os.Stderr, "unknown demo %q\n", *demo)
		os.Exit(1)
	}

	if *stmt != "" {
		if *sessions > 1 {
			if !runConcurrent(eng, *stmt, *sessions, *timeout) {
				os.Exit(1)
			}
			return
		}
		if !runStmt(eng, *stmt, *analyzeAll, *timeout) {
			os.Exit(1)
		}
		return
	}
	if *sessions > 1 {
		fmt.Fprintln(os.Stderr, "-sessions requires -e (one statement run concurrently)")
		os.Exit(1)
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := isTerminalish()
	if interactive {
		fmt.Print("qopt> ")
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && line != "exit" && line != "quit" {
			runStmt(eng, line, *analyzeAll, *timeout)
		}
		if line == "exit" || line == "quit" {
			break
		}
		if interactive {
			fmt.Print("qopt> ")
		}
	}
}

// runConcurrent executes one statement from n concurrent sessions (10
// executions each) against the shared engine and reports throughput, latency
// percentiles and plan-cache effectiveness. SELECTs go through Prepare so the
// parameterized plan cache is exercised; other statements use plain Exec.
func runConcurrent(eng *queryopt.Engine, stmt string, n int, timeout time.Duration) bool {
	const perSession = 10
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var prep *queryopt.Stmt
	if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(stmt)), "SELECT") {
		if p, err := eng.Prepare(stmt); err == nil && p.NumParams() == 0 {
			prep = p
		}
	}
	lats := make([][]float64, n)
	errs := make([]error, n)
	var rowCount int
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				t0 := time.Now()
				var res *queryopt.Result
				var err error
				if prep != nil {
					res, err = prep.ExecContext(ctx)
				} else {
					res, err = eng.ExecContext(ctx, stmt)
				}
				if err != nil {
					errs[g] = err
					return
				}
				lats[g] = append(lats[g], time.Since(t0).Seconds())
				if g == 0 && i == 0 {
					rowCount = len(res.Rows)
				}
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return false
		}
	}
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	pct := func(p float64) float64 { return all[int(p*float64(len(all)-1))] * 1000 }
	fmt.Printf("%d sessions x %d queries: %.0f qps, p50=%.3fms p99=%.3fms (%d rows each, %.3fs wall)\n",
		n, perSession, float64(len(all))/wall, pct(0.50), pct(0.99), rowCount, wall)
	st := eng.PlanCacheStats()
	if st.Hits+st.Misses > 0 {
		fmt.Printf("plan cache: %d hits, %d misses, %d entries\n", st.Hits, st.Misses, st.Entries)
	}
	return true
}

func isTerminalish() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func runStmt(eng *queryopt.Engine, stmt string, analyze bool, timeout time.Duration) bool {
	// With -analyze, plain SELECTs run as EXPLAIN ANALYZE: the query executes
	// and the output is its plan annotated with runtime metrics.
	if analyze && strings.HasPrefix(strings.ToUpper(strings.TrimSpace(stmt)), "SELECT") {
		stmt = "EXPLAIN ANALYZE " + stmt
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := eng.ExecContext(ctx, stmt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return false
	}
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
	}
	const maxRows = 50
	for i, r := range res.Rows {
		if i == maxRows {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-maxRows)
			break
		}
		cells := make([]string, len(r))
		for j, v := range r {
			if v == nil {
				cells[j] = "NULL"
			} else {
				cells[j] = fmt.Sprint(v)
			}
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	if len(res.Rows) > 0 || len(res.Columns) > 0 {
		fmt.Printf("(%d rows, %s", len(res.Rows), time.Since(start).Round(time.Microsecond))
		if res.Stats.BytesRead > 0 || res.Stats.BlockHits > 0 {
			fmt.Printf(", %d bytes read, %d block hits", res.Stats.BytesRead, res.Stats.BlockHits)
		}
		if res.Stats.Spills > 0 {
			fmt.Printf(", %d spills (%d bytes)", res.Stats.Spills, res.Stats.SpillBytes)
		}
		if res.Stats.SegmentsRead > 0 || res.Stats.SegmentsPruned > 0 {
			fmt.Printf(", %d/%d segments read", res.Stats.SegmentsRead, res.Stats.SegmentsRead+res.Stats.SegmentsPruned)
		}
		if res.UsedMaterializedView != "" {
			fmt.Printf(", via matview %s", res.UsedMaterializedView)
		}
		fmt.Println(")")
	} else {
		fmt.Println("ok")
	}
	return true
}

func loadEmpDept(eng *queryopt.Engine) {
	eng.MustExec(`CREATE TABLE emp (eid INT NOT NULL, name VARCHAR, did INT, sal FLOAT, age INT, PRIMARY KEY (eid))`)
	eng.MustExec(`CREATE TABLE dept (did INT NOT NULL, dname VARCHAR, loc VARCHAR, budget FLOAT, PRIMARY KEY (did))`)
	eng.MustExec(`CREATE INDEX emp_did ON emp (did)`)
	rng := rand.New(rand.NewSource(1))
	locs := []string{"Denver", "Austin", "Boston", "Seattle"}
	var emp [][]any
	for i := 0; i < 10000; i++ {
		emp = append(emp, []any{i, fmt.Sprintf("emp%05d", i), rng.Intn(100),
			2000.0 + float64(rng.Intn(150000))/10, 20 + rng.Intn(45)})
	}
	must(eng.LoadRows("emp", emp))
	var dept [][]any
	for dID := 0; dID < 100; dID++ {
		dept = append(dept, []any{dID, fmt.Sprintf("dept%03d", dID), locs[dID%len(locs)], float64(50 + rng.Intn(950))})
	}
	must(eng.LoadRows("dept", dept))
	eng.MustExec("ANALYZE")
}

func loadStar(eng *queryopt.Engine) {
	eng.MustExec(`CREATE TABLE sales (k1 INT, k2 INT, qty INT, amount FLOAT)`)
	eng.MustExec(`CREATE TABLE dim_product (k INT NOT NULL, pname VARCHAR, category INT, PRIMARY KEY (k))`)
	eng.MustExec(`CREATE TABLE dim_store (k INT NOT NULL, city VARCHAR, region INT, PRIMARY KEY (k))`)
	eng.MustExec(`CREATE INDEX sales_k1 ON sales (k1)`)
	eng.MustExec(`CREATE INDEX sales_k2 ON sales (k2)`)
	rng := rand.New(rand.NewSource(2))
	var fact [][]any
	for i := 0; i < 50000; i++ {
		fact = append(fact, []any{rng.Intn(200), rng.Intn(50), 1 + rng.Intn(10), float64(rng.Intn(100000)) / 100})
	}
	must(eng.LoadRows("sales", fact))
	var products [][]any
	for k := 0; k < 200; k++ {
		products = append(products, []any{k, fmt.Sprintf("product%03d", k), k % 12})
	}
	must(eng.LoadRows("dim_product", products))
	cities := []string{"Denver", "Austin", "Boston", "Seattle"}
	var stores [][]any
	for k := 0; k < 50; k++ {
		stores = append(stores, []any{k, cities[k%len(cities)], k % 4})
	}
	must(eng.LoadRows("dim_store", stores))
	eng.MustExec("ANALYZE")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
