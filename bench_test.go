package queryopt

// bench_test.go exposes every experiment of the reproduction (E1–E24 and
// E26–E29, one per figure/claim of the paper — see DESIGN.md §2) as a
// testing.B benchmark, plus micro-benchmarks of the engine's hot paths.
// Print the experiment tables with:
//
//	make experiments                                   # all 28 tables
//	go test -run '^$' -bench '^BenchmarkE2[6-9]' -benchtime 1x -v .   # a subset
import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// benchExperiment runs one experiment per iteration and reports its table
// once (experiments are deterministic; the benchmark time measures the cost
// of regenerating the result).
func benchExperiment(b *testing.B, run func() experiments.Table) {
	b.Helper()
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = run()
	}
	b.StopTimer()
	if testing.Verbose() {
		fmt.Println(t.Format())
	}
	b.ReportMetric(float64(len(t.Rows)), "table-rows")
}

func BenchmarkE1OperatorTree(b *testing.B) { benchExperiment(b, experiments.E1OperatorTree) }
func BenchmarkE2DPvsNaive(b *testing.B)    { benchExperiment(b, experiments.E2DPvsNaive) }
func BenchmarkE3InterestingOrders(b *testing.B) {
	benchExperiment(b, experiments.E3InterestingOrders)
}
func BenchmarkE4BushyAndStar(b *testing.B)     { benchExperiment(b, experiments.E4BushyAndStar) }
func BenchmarkE5OuterjoinReorder(b *testing.B) { benchExperiment(b, experiments.E5OuterjoinReorder) }
func BenchmarkE6GroupByPushdown(b *testing.B)  { benchExperiment(b, experiments.E6GroupByPushdown) }
func BenchmarkE7ViewMerging(b *testing.B)      { benchExperiment(b, experiments.E7ViewMerging) }
func BenchmarkE8Unnesting(b *testing.B)        { benchExperiment(b, experiments.E8Unnesting) }
func BenchmarkE9MagicSets(b *testing.B)        { benchExperiment(b, experiments.E9MagicSets) }
func BenchmarkE10HistogramAccuracy(b *testing.B) {
	benchExperiment(b, experiments.E10HistogramAccuracy)
}
func BenchmarkE11SamplingAndDistinct(b *testing.B) {
	benchExperiment(b, experiments.E11SamplingAndDistinct)
}
func BenchmarkE12Propagation(b *testing.B) { benchExperiment(b, experiments.E12Propagation) }
func BenchmarkE13BufferModel(b *testing.B) { benchExperiment(b, experiments.E13BufferModel) }
func BenchmarkE14Architectures(b *testing.B) {
	benchExperiment(b, experiments.E14Architectures)
}
func BenchmarkE15ExpensivePredicates(b *testing.B) {
	benchExperiment(b, experiments.E15ExpensivePredicates)
}
func BenchmarkE16MatViews(b *testing.B) { benchExperiment(b, experiments.E16MatViews) }
func BenchmarkE17Parallel(b *testing.B) { benchExperiment(b, experiments.E17Parallel) }
func BenchmarkE18QueryGraph(b *testing.B) {
	benchExperiment(b, experiments.E18QueryGraph)
}
func BenchmarkE19Parametric(b *testing.B) {
	benchExperiment(b, experiments.E19Parametric)
}
func BenchmarkE20JointDistribution(b *testing.B) {
	benchExperiment(b, experiments.E20JointDistribution)
}
func BenchmarkE21ParallelExecution(b *testing.B) {
	benchExperiment(b, experiments.E21ParallelExecution)
}
func BenchmarkE22AnalyzeFeedback(b *testing.B) {
	benchExperiment(b, experiments.E22AnalyzeFeedback)
}
func BenchmarkE23Robustness(b *testing.B) {
	benchExperiment(b, experiments.E23Robustness)
}
func BenchmarkE24Vectorized(b *testing.B) {
	benchExperiment(b, experiments.E24Vectorized)
}
func BenchmarkE26AdaptivePlanning(b *testing.B) {
	benchExperiment(b, experiments.E26AdaptivePlanning)
}
func BenchmarkE27Storage(b *testing.B)     { benchExperiment(b, experiments.E27Storage) }
func BenchmarkE28Durability(b *testing.B)  { benchExperiment(b, experiments.E28Durability) }
func BenchmarkE29Compression(b *testing.B) { benchExperiment(b, experiments.E29Compression) }

// --- engine micro-benchmarks ---

func benchDB(b *testing.B, rows int) *Engine {
	b.Helper()
	e := New(Options{})
	e.MustExec(`CREATE TABLE emp (eid INT NOT NULL, name VARCHAR, did INT, sal FLOAT, PRIMARY KEY (eid))`)
	e.MustExec(`CREATE TABLE dept (did INT NOT NULL, dname VARCHAR, PRIMARY KEY (did))`)
	e.MustExec(`CREATE INDEX emp_did ON emp (did)`)
	var emp [][]any
	for i := 0; i < rows; i++ {
		emp = append(emp, []any{i, fmt.Sprintf("e%06d", i), i % 100, float64(i%9973) + 0.5})
	}
	if err := e.LoadRows("emp", emp); err != nil {
		b.Fatal(err)
	}
	var dept [][]any
	for dID := 0; dID < 100; dID++ {
		dept = append(dept, []any{dID, fmt.Sprintf("d%03d", dID)})
	}
	if err := e.LoadRows("dept", dept); err != nil {
		b.Fatal(err)
	}
	e.MustExec("ANALYZE")
	return e
}

func BenchmarkParse(b *testing.B) {
	e := benchDB(b, 100)
	q := `SELECT e.name, d.dname FROM emp e, dept d
	      WHERE e.did = d.did AND e.sal > 100 GROUP BY e.name, d.dname ORDER BY d.dname LIMIT 10`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeJoin3(b *testing.B) {
	benchOptimizer(b, SystemR)
}

func BenchmarkOptimizeJoin3Cascades(b *testing.B) {
	benchOptimizer(b, Cascades)
}

func BenchmarkOptimizeJoin3Starburst(b *testing.B) {
	benchOptimizer(b, Starburst)
}

func benchOptimizer(b *testing.B, kind OptimizerKind) {
	b.Helper()
	e := New(Options{Optimizer: kind})
	e.MustExec(`CREATE TABLE a (x INT NOT NULL, y INT, PRIMARY KEY (x))`)
	e.MustExec(`CREATE TABLE bb (x INT NOT NULL, y INT, PRIMARY KEY (x))`)
	e.MustExec(`CREATE TABLE c (x INT NOT NULL, y INT, PRIMARY KEY (x))`)
	for _, tn := range []string{"a", "bb", "c"} {
		var rows [][]any
		for i := 0; i < 1000; i++ {
			rows = append(rows, []any{i, i % 50})
		}
		if err := e.LoadRows(tn, rows); err != nil {
			b.Fatal(err)
		}
	}
	e.MustExec("ANALYZE")
	q := "SELECT a.y FROM a, bb, c WHERE a.y = bb.x AND bb.y = c.x"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecHashJoin(b *testing.B) {
	e := benchDB(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT COUNT(*) FROM emp e, dept d WHERE e.did = d.did"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecIndexLookup(b *testing.B) {
	e := benchDB(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT name FROM emp WHERE eid = 12345"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecGroupBy(b *testing.B) {
	e := benchDB(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT did, COUNT(*), AVG(sal) FROM emp GROUP BY did"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecAnalyzeOff / BenchmarkExecAnalyzeOn compare the same query with
// instrumentation disabled and enabled. The off path must stay near the
// pre-instrumentation baseline: the executor's only added work is a nil check.
func BenchmarkExecAnalyzeOff(b *testing.B) {
	e := benchDB(b, 20000)
	q := "SELECT did, COUNT(*), AVG(sal) FROM emp WHERE sal > 100 GROUP BY did"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecAnalyzeOn(b *testing.B) {
	e := benchDB(b, 20000)
	q := "SELECT did, COUNT(*), AVG(sal) FROM emp WHERE sal > 100 GROUP BY did"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.QueryAnalyze(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIndexLookupAllocs pins what one execution of a cached prepared
// statement allocates on the index-served shapes of the oltp_prepared
// workload, over 20 000 rows: a primary-key point lookup, a secondary-index
// lookup of four rows ordered by id, and a 20-key primary-key range ordered by
// id. Measured: pk_point 2640 B in 36 allocations, index_lookup 3608 B in 55,
// short_range 6424 B in 72; the ceilings are 1.2x that.
func TestIndexLookupAllocs(t *testing.T) {
	const n = 20000
	e := New(Options{})
	e.MustExec(`CREATE TABLE acct (id INT NOT NULL, owner INT, bal FLOAT, kind TEXT, PRIMARY KEY (id))`)
	e.MustExec(`CREATE INDEX acct_owner ON acct (owner)`)
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i, (i * 7919) % (n / 4), float64(i%1000) / 4, []string{"checking", "savings", "loan"}[i%3]}
	}
	if err := e.LoadRows("acct", rows); err != nil {
		t.Fatal(err)
	}
	e.MustExec("ANALYZE")
	for _, tc := range []struct {
		name, sql     string
		args          []any
		rows          int
		bytes, allocs float64
	}{
		{"pk_point", `SELECT id, owner, bal FROM acct WHERE id = ?`, []any{12345}, 1, 2640 * 1.2, 36 * 1.2},
		{"index_lookup", `SELECT id, bal FROM acct WHERE owner = ? ORDER BY id`, []any{1234}, 4, 3608 * 1.2, 55 * 1.2},
		{"short_range", `SELECT id, bal FROM acct WHERE id >= ? AND id < ? ORDER BY id`, []any{15000, 15020}, 20, 6424 * 1.2, 72 * 1.2},
	} {
		st, err := e.Prepare(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := st.Exec(tc.args...)
			if err != nil || len(res.Rows) != tc.rows {
				t.Fatalf("%s: %v, err %v; want %d rows", tc.name, res, err, tc.rows)
			}
		}
		run() // builds the index and caches the plan
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		allocs := testing.AllocsPerRun(runs, run)
		t.Logf("%s: %.0f bytes in %.0f allocations per execution", tc.name, bytes, allocs)
		if bytes > tc.bytes || allocs > tc.allocs {
			t.Errorf("%s allocates %.0f bytes in %.0f allocations per execution; ceilings %.0f and %.0f", tc.name, bytes, allocs, tc.bytes, tc.allocs)
		}
	}
}
