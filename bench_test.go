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
	"math/rand"
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

// oltpTemplate is one statement template of the oltp_prepared workload, with
// a binding drawn from rng over n acct rows.
type oltpTemplate struct {
	name, sql string
	bind      func(rng *rand.Rand, n int) []any
}

// oltpTemplates are the six oltp_prepared statement templates.
var oltpTemplates = []oltpTemplate{
	{"pk_point", `SELECT id, owner, bal FROM acct WHERE id = ?`,
		func(rng *rand.Rand, n int) []any { return []any{rng.Intn(n)} }},
	{"index_lookup", `SELECT id, bal FROM acct WHERE owner = ? ORDER BY id`,
		func(rng *rand.Rand, n int) []any { return []any{rng.Intn(n / 4)} }},
	{"short_range", `SELECT id, bal FROM acct WHERE id >= ? AND id < ? ORDER BY id`,
		func(rng *rand.Rand, n int) []any { lo := rng.Intn(n); return []any{lo, lo + 20} }},
	{"row_aggregate", `SELECT COUNT(*), SUM(bal) FROM acct WHERE id >= ? AND id < ?`,
		func(rng *rand.Rand, n int) []any { lo := rng.Intn(n); return []any{lo, lo + 50} }},
	{"pk_join", `SELECT a.id, a.bal, b.name FROM acct a, branch b WHERE a.branch = b.id AND a.id = ?`,
		func(rng *rand.Rand, n int) []any { return []any{rng.Intn(n)} }},
	{"small_groupby", `SELECT kind, COUNT(*) FROM acct WHERE id >= ? AND id < ? GROUP BY kind ORDER BY kind`,
		func(rng *rand.Rand, n int) []any { lo := rng.Intn(n); return []any{lo, lo + 100} }},
}

// oltpEngine builds the oltp_prepared schema over n acct rows and 100
// branches from a fixed seed, analyzed: acct keyed on id with a secondary
// index on owner, branch keyed on id.
func oltpEngine(tb testing.TB, opts Options, n int) *Engine {
	tb.Helper()
	e := New(opts)
	e.MustExec(`CREATE TABLE acct (id INT NOT NULL, owner INT, branch INT, bal FLOAT, kind TEXT, PRIMARY KEY (id))`)
	e.MustExec(`CREATE INDEX acct_owner ON acct (owner)`)
	e.MustExec(`CREATE TABLE branch (id INT NOT NULL, name TEXT, region INT, PRIMARY KEY (id))`)
	rng := rand.New(rand.NewSource(36))
	kinds := []string{"checking", "savings", "loan", "card", "broker"}
	acct := make([][]any, n)
	for i := range acct {
		acct[i] = []any{i, rng.Intn(n / 4), rng.Intn(100), float64(rng.Intn(1000000)) / 100, kinds[rng.Intn(len(kinds))]}
	}
	branch := make([][]any, 100)
	for i := range branch {
		branch[i] = []any{i, fmt.Sprintf("br%03d", i), rng.Intn(8)}
	}
	if err := e.LoadRows("acct", acct); err != nil {
		tb.Fatal(err)
	}
	if err := e.LoadRows("branch", branch); err != nil {
		tb.Fatal(err)
	}
	e.MustExec("ANALYZE")
	return e
}

// BenchmarkPreparedExec times one cached execution of each oltp_prepared
// template over 20 000 acct rows, cycling through 64 drawn bindings (ns/op,
// B/op, allocs/op). `make serving-bench` runs it.
func BenchmarkPreparedExec(b *testing.B) {
	const n = 20000
	e := oltpEngine(b, Options{}, n)
	rng := rand.New(rand.NewSource(1))
	for _, tpl := range oltpTemplates {
		b.Run(tpl.name, func(b *testing.B) {
			st, err := e.Prepare(tpl.sql)
			if err != nil {
				b.Fatal(err)
			}
			binds := make([][]any, 64)
			for i := range binds {
				binds[i] = tpl.bind(rng, n)
				if _, err := st.Exec(binds[i]...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Exec(binds[i%len(binds)]...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestIndexLookupAllocs pins what one execution of a cached prepared
// statement allocates on the oltp_prepared shapes, over 20 000 rows: a
// primary-key point lookup, a secondary-index lookup ordered by id, a 20-key
// primary-key range ordered by id, a primary-key point joined to its branch
// and a 100-key range grouped by kind. Measured: pk_point 1968 B in 18
// allocations, index_lookup (8 rows) 2992 B in 41, short_range 3568 B in 54,
// pk_join 10312 B in 60, small_groupby 6296 B in 55; the ceilings are 1.2x
// that.
func TestIndexLookupAllocs(t *testing.T) {
	const n = 20000
	e := oltpEngine(t, Options{}, n)
	for _, tc := range []struct {
		name, sql     string
		args          []any
		rows          int
		bytes, allocs float64
	}{
		{"pk_point", `SELECT id, owner, bal FROM acct WHERE id = ?`, []any{12345}, 1, 1968 * 1.2, 18 * 1.2},
		{"index_lookup", `SELECT id, bal FROM acct WHERE owner = ? ORDER BY id`, []any{1234}, 8, 2992 * 1.2, 41 * 1.2},
		{"short_range", `SELECT id, bal FROM acct WHERE id >= ? AND id < ? ORDER BY id`, []any{15000, 15020}, 20, 3568 * 1.2, 54 * 1.2},
		{"pk_join", `SELECT a.id, a.bal, b.name FROM acct a, branch b WHERE a.branch = b.id AND a.id = ?`, []any{12345}, 1, 10312 * 1.2, 60 * 1.2},
		{"small_groupby", `SELECT kind, COUNT(*) FROM acct WHERE id >= ? AND id < ? GROUP BY kind ORDER BY kind`, []any{15000, 15100}, 5, 6296 * 1.2, 55 * 1.2},
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
