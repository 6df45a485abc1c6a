package queryopt

// serving_test.go covers the concurrent serving layer: Exec hammered from
// many goroutines (run under -race by `make check`), prepared statements
// with the parameterized plan cache, admission control, catalog-version
// invalidation, the shared memory pool, and clean engine shutdown racing
// in-flight parallel queries.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/physical"
)

// Exec must be safe from many goroutines at once: 32 workers over a mixed
// corpus, with a few catalog-reading analyzed executions in the mix.
func TestConcurrentExecHammer(t *testing.T) {
	queries := []struct {
		sql  string
		rows int
	}{
		{"SELECT name FROM emp WHERE sal > 100", 2},
		{"SELECT e.name, d.dname FROM emp e, dept d WHERE e.did = d.did", 4},
		{"SELECT d.loc, COUNT(*) FROM emp e, dept d WHERE e.did = d.did GROUP BY d.loc ORDER BY d.loc", 2},
		{"SELECT name FROM emp ORDER BY sal DESC LIMIT 2", 2},
		{"SELECT COUNT(*), AVG(sal) FROM emp", 1},
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			e := demoEngine(t, Options{Optimizer: SystemR, Parallelism: par})
			defer e.Close()
			var wg sync.WaitGroup
			for g := 0; g < 32; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						qc := queries[(g+i)%len(queries)]
						if i%7 == 3 {
							res, _, err := e.QueryAnalyze(qc.sql)
							if err != nil {
								t.Errorf("QueryAnalyze %s: %v", qc.sql, err)
								return
							}
							if len(res.Rows) != qc.rows {
								t.Errorf("QueryAnalyze %s: %d rows, want %d", qc.sql, len(res.Rows), qc.rows)
							}
							continue
						}
						res, err := e.Exec(qc.sql)
						if err != nil {
							t.Errorf("Exec %s: %v", qc.sql, err)
							return
						}
						if len(res.Rows) != qc.rows {
							t.Errorf("Exec %s: %d rows, want %d", qc.sql, len(res.Rows), qc.rows)
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func TestPreparedStmtCacheHits(t *testing.T) {
	e := demoEngine(t, Options{Optimizer: SystemR})
	st, err := e.Prepare("SELECT name FROM emp WHERE sal > ? ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", st.NumParams())
	}
	res, err := st.Exec(int64(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // alice (120.5), carol (210)
		t.Fatalf("sal > 100: %d rows, want 2: %v", len(res.Rows), res.Rows)
	}
	if s := e.PlanCacheStats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after first exec: %+v", s)
	}
	// Same binding: plan-cache hit.
	if _, err := st.Exec(int64(100)); err != nil {
		t.Fatal(err)
	}
	if s := e.PlanCacheStats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after repeat exec: %+v", s)
	}
	// A binding outside the diagram re-optimizes and extends the box...
	res, err = st.Exec(int64(200))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 { // carol
		t.Fatalf("sal > 200: %d rows, want 1", len(res.Rows))
	}
	// ...so a binding between the probes now hits.
	if _, err := st.Exec(int64(150)); err != nil {
		t.Fatal(err)
	}
	s := e.PlanCacheStats()
	if s.Hits != 2 || s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("after box extension: %+v", s)
	}
	// A different parameter type is a different cache entry.
	if _, err := st.Exec(150.0); err != nil {
		t.Fatal(err)
	}
	if s := e.PlanCacheStats(); s.Entries != 2 || s.Misses != 3 {
		t.Fatalf("after float binding: %+v", s)
	}
	// Arity mismatches fail before touching the engine.
	if _, err := st.Exec(); err == nil {
		t.Fatal("Exec with no args succeeded")
	}
	if _, err := st.Exec(int64(1), int64(2)); err == nil {
		t.Fatal("Exec with extra args succeeded")
	}
	// Prepared statements normalize: a differently-spelled equivalent text
	// shares the cache entry.
	st2, err := e.Prepare("select NAME from EMP where SAL > $1 order by NAME")
	if err != nil {
		t.Fatal(err)
	}
	before := e.PlanCacheStats()
	if _, err := st2.Exec(int64(150)); err != nil {
		t.Fatal(err)
	}
	if s := e.PlanCacheStats(); s.Hits != before.Hits+1 || s.Entries != before.Entries {
		t.Fatalf("normalized text did not share the entry: %+v -> %+v", before, s)
	}
}

// One Stmt executed concurrently with different bindings must give each
// caller the bit-identical result of its own binding — with the plan cache
// on, the cached plan is re-bound per execution, never mutated; with it off
// (PlanCacheSize: -1), every execution compiles its own plan.
func TestPreparedStmtConcurrentBindings(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cacheSize int
	}{{"cache=on", 0}, {"cache=off", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			e := demoEngine(t, Options{Optimizer: SystemR, PlanCacheSize: tc.cacheSize})
			st, err := e.Prepare("SELECT name FROM emp WHERE did = ? ORDER BY name")
			if err != nil {
				t.Fatal(err)
			}
			dids := []int64{10, 20, 30}
			want := map[int64][]string{}
			for _, did := range dids {
				res, err := e.Exec(fmt.Sprintf("SELECT name FROM emp WHERE did = %d ORDER BY name", did))
				if err != nil {
					t.Fatal(err)
				}
				want[did] = canonRows(res)
			}
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						did := dids[(g+i)%len(dids)]
						res, err := st.Exec(did)
						if err != nil {
							t.Errorf("Exec(%d): %v", did, err)
							return
						}
						got := canonRows(res)
						if len(got) != len(want[did]) {
							t.Errorf("Exec(%d): %v, want %v", did, got, want[did])
							return
						}
						for j := range got {
							if got[j] != want[did][j] {
								t.Errorf("Exec(%d) row %d: %q, want %q", did, j, got[j], want[did][j])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if s := e.PlanCacheStats(); tc.cacheSize == 0 && s.Hits == 0 {
				t.Fatalf("concurrent executions never hit the cache: %+v", s)
			}
		})
	}
}

// Cached executions must be bit-identical to uncached (PlanCacheSize: -1)
// and to plain Exec with the literals inlined.
func TestPreparedMatchesUnprepared(t *testing.T) {
	type tc struct {
		param   string
		literal string
		args    []any
		views   bool // run on the engines that answer from emp_by_dept
	}
	const byDept = "SELECT e.did, COUNT(*) FROM emp e GROUP BY e.did"
	cases := []tc{
		{"SELECT name FROM emp WHERE sal > ? ORDER BY name",
			"SELECT name FROM emp WHERE sal > 100 ORDER BY name", []any{int64(100)}, false},
		{"SELECT e.name, d.dname FROM emp e, dept d WHERE e.did = d.did AND d.loc = ? ORDER BY e.name",
			"SELECT e.name, d.dname FROM emp e, dept d WHERE e.did = d.did AND d.loc = 'Denver' ORDER BY e.name", []any{"Denver"}, false},
		{"SELECT d.loc, COUNT(*) FROM emp e, dept d WHERE e.did = d.did AND e.sal > ? GROUP BY d.loc ORDER BY d.loc",
			"SELECT d.loc, COUNT(*) FROM emp e, dept d WHERE e.did = d.did AND e.sal > 90 GROUP BY d.loc ORDER BY d.loc", []any{int64(90)}, false},
		{"SELECT name FROM emp WHERE did = $1 AND sal > $2 ORDER BY name",
			"SELECT name FROM emp WHERE did = 10 AND sal > 100 ORDER BY name", []any{int64(10), int64(100)}, false},
		// With views on, prepared statements answer from the view exactly as
		// Exec does, on the miss and on the hit.
		{byDept, byDept, nil, true},
		{"SELECT e.did, COUNT(*) FROM emp e WHERE e.did > ? GROUP BY e.did",
			"SELECT e.did, COUNT(*) FROM emp e WHERE e.did > 10 GROUP BY e.did", []any{int64(10)}, true},
		{"SELECT e.did, COUNT(*) FROM emp e WHERE e.did > ? GROUP BY e.did",
			"SELECT e.did, COUNT(*) FROM emp e WHERE e.did > 0 GROUP BY e.did", []any{int64(0)}, true},
	}
	cacheOn := demoEngine(t, Options{Optimizer: SystemR})
	cacheOff := demoEngine(t, Options{Optimizer: SystemR, PlanCacheSize: -1})
	viewsOn := demoEngine(t, Options{Optimizer: SystemR, UseMaterializedViews: true})
	viewsOff := demoEngine(t, Options{Optimizer: SystemR, UseMaterializedViews: true, PlanCacheSize: -1})
	for _, e := range []*Engine{viewsOn, viewsOff} {
		e.MustExec("CREATE MATERIALIZED VIEW emp_by_dept AS SELECT e.did AS did, COUNT(*) AS cnt FROM emp e GROUP BY e.did")
		e.MustExec("ANALYZE emp_by_dept")
	}
	if res := viewsOn.MustExec(byDept); res.UsedMaterializedView != "emp_by_dept" {
		t.Fatalf("Exec did not answer from the view:\n%s", res.Plan)
	}
	for _, c := range cases {
		on, off := cacheOn, cacheOff
		if c.views {
			on, off = viewsOn, viewsOff
		}
		want, err := on.Exec(c.literal)
		if err != nil {
			t.Fatalf("%s: %v", c.literal, err)
		}
		wantRows := canonRows(want)
		check := func(e *Engine, label string) {
			st, err := e.Prepare(c.param)
			if err != nil {
				t.Fatalf("[%s] prepare %s: %v", label, c.param, err)
			}
			for i := 0; i < 2; i++ { // second round hits the cache when enabled
				res, err := st.Exec(c.args...)
				if err != nil {
					t.Fatalf("[%s] %s: %v", label, c.param, err)
				}
				got := canonRows(res)
				if len(got) != len(wantRows) {
					t.Fatalf("[%s] %s: %v, want %v", label, c.param, got, wantRows)
				}
				for j := range got {
					if got[j] != wantRows[j] {
						t.Fatalf("[%s] %s row %d: %q, want %q", label, c.param, j, got[j], wantRows[j])
					}
				}
				if c.param == c.literal && (res.Plan != want.Plan || res.UsedMaterializedView != want.UsedMaterializedView) {
					t.Fatalf("[%s] %s execution %d: view %q plan\n%s\nwant view %q plan\n%s",
						label, c.param, i, res.UsedMaterializedView, res.Plan, want.UsedMaterializedView, want.Plan)
				}
			}
		}
		check(on, "cache-on")
		check(off, "cache-off")
	}
	for _, e := range []*Engine{cacheOff, viewsOff} {
		if s := e.PlanCacheStats(); s.Hits != 0 || s.Entries != 0 {
			t.Fatalf("disabled cache recorded hits: %+v", s)
		}
	}
	for _, e := range []*Engine{cacheOn, viewsOn} {
		if s := e.PlanCacheStats(); s.Hits == 0 {
			t.Fatalf("enabled cache never hit: %+v", s)
		}
	}
}

func TestPreparedNullParameter(t *testing.T) {
	e := demoEngine(t, Options{Optimizer: SystemR})
	st, err := e.Prepare("SELECT name FROM emp WHERE sal > ? ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(int64(100)); err != nil {
		t.Fatal(err)
	}
	entriesBefore := e.PlanCacheStats().Entries
	// NULL comparison is unknown for every row: zero rows, no error — and a
	// distinct cache entry (NULL's type signature differs).
	res, err := st.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("sal > NULL returned %d rows, want 0", len(res.Rows))
	}
	if s := e.PlanCacheStats(); s.Entries != entriesBefore+1 {
		t.Fatalf("NULL binding shared the non-NULL entry: %+v", s)
	}
	// Repeat NULL execution hits its own entry.
	hits := e.PlanCacheStats().Hits
	if _, err := st.Exec(nil); err != nil {
		t.Fatal(err)
	}
	if s := e.PlanCacheStats(); s.Hits != hits+1 {
		t.Fatalf("repeat NULL binding missed: %+v", s)
	}
}

func TestDDLAndAnalyzeInvalidatePlans(t *testing.T) {
	e := demoEngine(t, Options{Optimizer: SystemR})
	st, err := e.Prepare("SELECT name FROM emp WHERE did = ? ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	mustRows := func(wantNames int, args ...any) {
		t.Helper()
		res, err := st.Exec(args...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != wantNames {
			t.Fatalf("Exec(%v): %d rows, want %d", args, len(res.Rows), wantNames)
		}
	}
	mustRows(2, int64(10)) // miss
	mustRows(2, int64(10)) // hit
	base := e.PlanCacheStats()

	// DDL bumps the catalog version: the cached diagram is dropped.
	v := e.CatalogVersion()
	e.MustExec("CREATE INDEX emp_sal ON emp (sal)")
	if e.CatalogVersion() != v+1 {
		t.Fatalf("CREATE INDEX did not bump the catalog version")
	}
	mustRows(2, int64(10))
	if s := e.PlanCacheStats(); s.Misses != base.Misses+1 {
		t.Fatalf("post-DDL execution did not re-optimize: %+v -> %+v", base, s)
	}

	// ANALYZE bumps too (statistics feed the plan choice).
	v = e.CatalogVersion()
	e.MustExec("ANALYZE")
	if e.CatalogVersion() != v+1 {
		t.Fatalf("ANALYZE did not bump the catalog version")
	}
	s1 := e.PlanCacheStats()
	mustRows(2, int64(10))
	if s := e.PlanCacheStats(); s.Misses != s1.Misses+1 {
		t.Fatalf("post-ANALYZE execution did not re-optimize: %+v -> %+v", s1, s)
	}

	// INSERT does not bump — cached plans stay correct and see the new row.
	v = e.CatalogVersion()
	e.MustExec("INSERT INTO emp VALUES (6, 'frank', 10, 99.0)")
	if e.CatalogVersion() != v {
		t.Fatalf("INSERT bumped the catalog version")
	}
	s2 := e.PlanCacheStats()
	mustRows(3, int64(10)) // alice, bob, frank — via the cached plan
	if s := e.PlanCacheStats(); s.Hits != s2.Hits+1 {
		t.Fatalf("post-INSERT execution missed the cache: %+v -> %+v", s2, s)
	}
}

func TestAdmissionTimeout(t *testing.T) {
	e := demoEngine(t, Options{
		Optimizer:            SystemR,
		MaxConcurrentQueries: 1,
		AdmissionTimeout:     30 * time.Millisecond,
	})
	entered := make(chan struct{})
	blocker := make(chan struct{})
	var once sync.Once
	e.RegisterPredicate("gate", 1.0, 0.5, func(args []any) bool {
		once.Do(func() { close(entered) })
		<-blocker
		return true
	})
	done := make(chan error, 1)
	go func() {
		_, err := e.Exec("SELECT name FROM emp WHERE gate(name)")
		done <- err
	}()
	<-entered
	// The slot is held: this query times out in the admission queue.
	if _, err := e.Exec("SELECT COUNT(*) FROM dept"); !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("queued query error = %v, want ErrAdmissionTimeout", err)
	}
	// A caller's context can end the wait earlier than the timeout.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecContext(ctx, "SELECT COUNT(*) FROM dept"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query error = %v, want context.Canceled", err)
	}
	close(blocker)
	if err := <-done; err != nil {
		t.Fatalf("gated query failed: %v", err)
	}
	// Slot released: queries run again.
	if _, err := e.Exec("SELECT COUNT(*) FROM dept"); err != nil {
		t.Fatal(err)
	}
}

// TotalMemBudget chains every query account to a shared pool: queries still
// complete (degrading to spill) and results stay identical.
func TestTotalMemBudgetSharedPool(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture")
	}
	free := bigRandSchema(t, Options{Optimizer: SystemR}, 7)
	capped := bigRandSchema(t, Options{Optimizer: SystemR, TotalMemBudget: 16 << 10}, 7)
	q := "SELECT fk, COUNT(*), SUM(f) FROM r GROUP BY fk ORDER BY fk"
	want, err := free.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := capped.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	w, g := canonRows(want), canonRows(got)
	if len(w) != len(g) {
		t.Fatalf("row counts differ: %d vs %d", len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("row %d differs under shared budget: %q vs %q", i, g[i], w[i])
		}
	}
	if got.Stats.Spills == 0 {
		t.Fatalf("16KiB shared budget did not force spilling: %+v", got.Stats)
	}
}

// Engine.Close during in-flight parallel queries must drain cleanly: running
// queries finish or fail with the typed error, late queries get the typed
// error, nothing panics or leaks.
func TestCloseDrainsInFlightQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture")
	}
	e := bigRandSchema(t, Options{Optimizer: SystemR, Parallelism: 4}, 3)
	q := "SELECT COUNT(*) FROM r WHERE a >= 0"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := e.Exec(q); err != nil && !errors.Is(err, ErrPoolClosed) {
					t.Errorf("racing query error = %v, want nil or ErrPoolClosed", err)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	e.Close() // blocks until workers drain
	wg.Wait()
	// Late submitters get the typed error, not a panic.
	if _, err := e.Exec(q); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-Close parallel query error = %v, want ErrPoolClosed", err)
	}
}

func TestPrepareRejectsNonSelect(t *testing.T) {
	e := demoEngine(t, Options{Optimizer: SystemR})
	if _, err := e.Prepare("INSERT INTO emp VALUES (9, 'zed', 10, 1.0)"); err == nil {
		t.Fatal("Prepare(INSERT) succeeded")
	}
	if _, err := e.Prepare("SELECT name FROM emp WHERE sal > "); err == nil {
		t.Fatal("Prepare of unparsable text succeeded")
	}
	ref := demoEngine(t, Options{Optimizer: Reference})
	if _, err := ref.Prepare("SELECT name FROM emp"); err == nil {
		t.Fatal("Prepare in reference mode succeeded")
	}
}

// TestPreparedNestedSubqueryCached: a statement whose subquery stays nested
// (under OR) is cached like any other — the parameter inside the subquery's
// sub-plan is re-bound on every hit, so the two repeats hit one plan that
// was compiled for one of the two bindings — and each execution returns the
// ad-hoc statement's rows.
func TestPreparedNestedSubqueryCached(t *testing.T) {
	for _, kind := range []OptimizerKind{SystemR, Cascades} {
		e := demoEngine(t, Options{Optimizer: kind})
		const text = "SELECT d.dname FROM dept d WHERE d.loc = 'Austin' OR EXISTS (SELECT 1 FROM emp e WHERE e.did = d.did AND e.sal > %s) ORDER BY d.dname"
		st, err := e.Prepare(fmt.Sprintf(text, "?"))
		if err != nil {
			t.Fatal(err)
		}
		for i, sal := range []int64{100, 200, 100, 200} {
			before := e.PlanCacheStats().Hits
			got, err := st.Exec(sal)
			if err != nil {
				t.Fatal(err)
			}
			want := e.MustExec(fmt.Sprintf(text, fmt.Sprint(sal)))
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Fatalf("%v sal > %d: prepared %v, ad hoc %v", kind, sal, got.Rows, want.Rows)
			}
			if i >= 2 && e.PlanCacheStats().Hits != before+1 {
				t.Fatalf("%v: repeated binding %d missed the cache: %+v", kind, sal, e.PlanCacheStats())
			}
		}
		if got := fmt.Sprint(e.MustExec(fmt.Sprintf(text, "200")).Rows); got != "[[sales]]" {
			t.Fatalf("%v: sal > 200 returns %s", kind, got)
		}
	}
}

// ingestTemplates are the four prepared reads of the ingest_mixed workload,
// over the ev table.
var ingestTemplates = []oltpTemplate{
	{"newest_point", `SELECT id, dev, val FROM ev WHERE id = ?`, nil},
	{"newest_range", `SELECT id, val FROM ev WHERE id >= ? AND id < ? ORDER BY id`, nil},
	{"table_agg", `SELECT COUNT(*), SUM(val) FROM ev WHERE val < ?`, nil},
	{"table_groupby", `SELECT kind, COUNT(*), SUM(amt) FROM ev WHERE dev < ? GROUP BY kind`, nil},
}

// A plan-cache hit runs its box's Program on the bindings and renders the
// box's plan-text template instead of copying and formatting the plan. Over
// the oltp_prepared and ingest_mixed templates, 200 bindings each — NULL,
// negative INTs, INTs past 2^53, floats whose shortest round trip has many
// digits, strings holding a quote, values in range and far outside every
// box — a hit's plan text must equal Format of the cached plan re-bound by
// BindParams, byte for byte, and every execution's rows must equal those of
// an engine without a plan cache, kernels on or off (off, every predicate
// reads its bindings through the row evaluator). ev seals 512-row segments,
// so its scans prune zones on bound parameters.
func TestCachedPlanTextMatchesReboundPlan(t *testing.T) {
	const n = 4000
	engine := func(opts Options) *Engine {
		e := oltpEngine(t, opts, n)
		e.MustExec(`CREATE TABLE ev (id INT NOT NULL, dev INT, kind TEXT, val INT, amt FLOAT, PRIMARY KEY (id))`)
		rng := rand.New(rand.NewSource(4))
		kinds := []string{"open", "click", "view", "buy", "close", "error"}
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{i, rng.Intn(500), kinds[rng.Intn(len(kinds))], rng.Intn(1000), float64(rng.Intn(100000)) / 100}
		}
		if err := e.LoadRows("ev", rows); err != nil {
			t.Fatal(err)
		}
		e.MustExec("ANALYZE")
		return e
	}
	plain := engine(Options{SegmentRows: 512, PlanCacheSize: -1})
	for _, vec := range []VectorizeMode{VectorizeAuto, VectorizeOff} {
		checkCachedPlanText(t, engine(Options{SegmentRows: 512, Vectorize: vec}), plain, n)
	}
}

func checkCachedPlanText(t *testing.T, cached, plain *Engine, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(36))
	value := func() any {
		switch rng.Intn(10) {
		case 0:
			return nil
		case 1:
			return -int64(rng.Intn(1000)) - 1
		case 2:
			return int64(1)<<53 + int64(rng.Intn(1000))
		case 3:
			return []float64{0.30000000000000004, 1.0 / 3, 5e-324, 1e21, 123456.789e-3, -2.5e-7}[rng.Intn(6)]
		case 4:
			return []string{"it's", "'", "o''k", "a'b'c"}[rng.Intn(4)]
		case 5:
			return int64(1e12) + int64(rng.Intn(1000))
		}
		return int64(rng.Intn(n))
	}
	hits := 0
	for _, tpl := range append(append([]oltpTemplate{}, oltpTemplates...), ingestTemplates...) {
		cs, err := cached.Prepare(tpl.sql)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := plain.Prepare(tpl.sql)
		if err != nil {
			t.Fatal(err)
		}
		ordered := strings.Contains(tpl.sql, "ORDER BY")
		for b := 0; b < 200; b++ {
			args := make([]any, cs.NumParams())
			for i := range args {
				args[i] = value()
			}
			got, gerr := cs.Exec(args...)
			want, werr := ps.Exec(args...)
			if gerr != nil || werr != nil {
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s %v: error %v, without the cache %v", tpl.name, args, gerr, werr)
				}
				continue
			}
			if g, w := rowStrings(got.Rows, ordered), rowStrings(want.Rows, ordered); !slices.Equal(g, w) {
				t.Fatalf("%s %v: rows %v, without the cache %v", tpl.name, args, g, w)
			}
			if got.PlannerTier != "cached" {
				continue
			}
			hits++
			binds := make([]datum.D, len(args))
			for i, a := range args {
				binds[i], _ = fromGo(a)
			}
			slot, ok := cached.plans.Get(cs.cacheKey(binds))
			if !ok {
				t.Fatalf("%s %v: hit without a cache entry", tpl.name, args)
			}
			ce := slot.(*cacheEntry)
			ce.mu.Lock()
			box := ce.diagram.Find(binds)
			ce.mu.Unlock()
			if want := physical.Format(physical.BindParams(box.Plan, binds), box.Query.Meta); got.Plan != want {
				t.Fatalf("%s %v: cached plan text\n%s\nre-bound plan formats as\n%s", tpl.name, args, got.Plan, want)
			}
		}
	}
	t.Logf("%d of 2000 executions hit the cache", hits)
	if hits < 1000 {
		t.Errorf("%d of 2000 executions hit the cache; want at least 1000", hits)
	}
}

// rowStrings renders result rows for comparison, sorted unless ordered.
func rowStrings(rows [][]any, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	if !ordered {
		slices.Sort(out)
	}
	return out
}
