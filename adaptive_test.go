package queryopt

// adaptive_test.go covers the engine-side adaptive planning loop: planning
// tiers surfaced on results and EXPLAIN, feedback-patched statistics flipping
// a stale join plan without changing results, the q-error replan trigger
// forcing one re-optimization of a cached statement family, the
// never-executed/under-LIMIT harvest guards, incremental statistics
// maintenance, and the deduped engine-level feedback report.

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/systemr"
)

// staleStatsEngine builds an engine whose statistics for table a are badly
// stale: ANALYZE ran while a held 30 rows, then a grew 200x with no
// re-analyze. Table b's statistics stay accurate (1500 rows), so any planner
// trusting the catalog believes a is the small side of the join.
func staleStatsEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	t.Cleanup(e.Close)
	e.MustExec("CREATE TABLE a (pk INT NOT NULL, k INT, PRIMARY KEY (pk))")
	e.MustExec("CREATE TABLE b (pk INT NOT NULL, k INT, PRIMARY KEY (pk))")
	load := func(table string, start, n int) {
		rows := make([][]any, 0, n)
		for i := 0; i < n; i++ {
			rows = append(rows, []any{int64(start + i), int64((start + i) % 10)})
		}
		if err := e.LoadRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	load("a", 0, 30)
	load("b", 0, 1500)
	e.MustExec("ANALYZE")
	// Bulk growth, no ANALYZE: the catalog still says a has 30 rows.
	load("a", 1000, 6000)
	return e
}

const staleJoin = "SELECT a.k, COUNT(*) FROM a, b WHERE a.k = b.k GROUP BY a.k"

// One analyzed execution must be enough for feedback patching to correct the
// stale cardinality and flip the join plan — while the query's results stay
// exactly what an unpatched engine returns.
func TestFeedbackPatchingFlipsStaleJoin(t *testing.T) {
	patched := staleStatsEngine(t, Options{Optimizer: SystemR, FeedbackPatching: true})
	control := staleStatsEngine(t, Options{Optimizer: SystemR})

	before, err := patched.Explain(staleJoin)
	if err != nil {
		t.Fatal(err)
	}
	verBefore := patched.CatalogVersion()
	resAnalyzed, pa, err := patched.QueryAnalyze(staleJoin)
	if err != nil {
		t.Fatal(err)
	}
	if pa.WorstQError < 10 {
		t.Fatalf("fixture not stale enough: worst q-error %v, want a large misestimate", pa.WorstQError)
	}
	if patched.OverrideCount() == 0 {
		t.Fatal("analyzed execution harvested no cardinality overrides")
	}
	if patched.CatalogVersion() == verBefore {
		t.Error("material override did not bump the catalog version (cached plans would stay stale)")
	}

	after, err := patched.Explain(staleJoin)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatalf("feedback-patched statistics did not change the plan:\n%s", before)
	}

	// The plan moved; the answer must not. Compare the analyzed run, the
	// patched engine's post-flip run and the never-patched control exactly.
	want := strings.Join(canonRows(control.MustExec(staleJoin)), ";")
	if got := strings.Join(canonRows(resAnalyzed), ";"); got != want {
		t.Errorf("analyzed run disagrees with control:\n got %s\nwant %s", got, want)
	}
	if got := strings.Join(canonRows(patched.MustExec(staleJoin)), ";"); got != want {
		t.Errorf("post-flip plan disagrees with control:\n got %s\nwant %s\nplan before:\n%s\nplan after:\n%s",
			got, want, before, after)
	}
}

// A worst q-error past ReplanQErrorThreshold marks the statement family: the
// next prepared execution re-optimizes (one plan-cache miss) instead of
// dispatching the cached diagram, and the mark is consumed exactly once.
func TestReplanTriggerReoptimizesOnce(t *testing.T) {
	e := staleStatsEngine(t, Options{Optimizer: SystemR, ReplanQErrorThreshold: 10})
	st, err := e.Prepare(staleJoin)
	if err != nil {
		t.Fatal(err)
	}
	exec := func() *Result {
		t.Helper()
		res, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := e.PlanCacheStats()
	if res := exec(); res.PlannerTier == "cached" {
		t.Error("first execution cannot be a cache hit")
	}
	if res := exec(); res.PlannerTier != "cached" {
		t.Errorf("second execution tier = %q, want cached", res.PlannerTier)
	}
	s1 := e.PlanCacheStats()
	if s1.Misses-base.Misses != 1 || s1.Hits-base.Hits != 1 {
		t.Fatalf("warmup: %d misses, %d hits, want 1 and 1", s1.Misses-base.Misses, s1.Hits-base.Hits)
	}

	// Analyzed execution of the same family sees the ~200x scan misestimate.
	if _, pa, err := e.QueryAnalyze(staleJoin); err != nil {
		t.Fatal(err)
	} else if pa.WorstQError <= 10 {
		t.Fatalf("fixture not stale enough: worst q-error %v", pa.WorstQError)
	}

	if res := exec(); res.PlannerTier == "cached" {
		t.Error("execution after the replan mark must re-optimize, not dispatch the cache")
	}
	if res := exec(); res.PlannerTier != "cached" {
		t.Errorf("replan mark not consumed: tier = %q, want cached again", res.PlannerTier)
	}
	s2 := e.PlanCacheStats()
	if s2.Misses-s1.Misses != 1 || s2.Hits-s1.Hits != 1 {
		t.Errorf("after replan: %d misses, %d hits, want exactly 1 and 1", s2.Misses-s1.Misses, s2.Hits-s1.Hits)
	}
}

// The planning tier is visible on results and, when the fast path is enabled,
// on EXPLAIN output; engines without adaptive options keep their EXPLAIN text
// byte-identical to before.
func TestPlannerTierSurfaced(t *testing.T) {
	greedy := staleStatsEngine(t, Options{Optimizer: SystemR, SystemR: systemr.Options{GreedyThreshold: 8}})
	plain := staleStatsEngine(t, Options{Optimizer: SystemR})

	if res := greedy.MustExec(staleJoin); res.PlannerTier != "greedy" {
		t.Errorf("join under threshold: tier = %q, want greedy", res.PlannerTier)
	}
	if res := greedy.MustExec("SELECT pk FROM a WHERE k = 3"); res.PlannerTier != "trivial" {
		t.Errorf("single-table statement: tier = %q, want trivial", res.PlannerTier)
	}
	if res := plain.MustExec(staleJoin); res.PlannerTier != "dp" {
		t.Errorf("default join tier = %q, want dp", res.PlannerTier)
	}

	txt, err := greedy.Explain(staleJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "-- planner: greedy") {
		t.Errorf("EXPLAIN on an adaptive engine should announce the tier:\n%s", txt)
	}
	plainTxt, err := plain.Explain(staleJoin)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plainTxt, "-- planner") {
		t.Errorf("EXPLAIN without adaptive options must stay unchanged:\n%s", plainTxt)
	}

	st, err := greedy.Prepare(staleJoin)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.Exec(); err != nil {
		t.Fatal(err)
	} else if res.PlannerTier != "greedy" {
		t.Errorf("prepared miss tier = %q, want greedy", res.PlannerTier)
	}
	if res, err := st.Exec(); err != nil {
		t.Fatal(err)
	} else if res.PlannerTier != "cached" {
		t.Errorf("prepared hit tier = %q, want cached", res.PlannerTier)
	}
}

// harvestOverrides must skip scans that were registered but never pulled
// (e.g. the inner side of a join whose outer came up empty) and scans under a
// LIMIT, and must average re-invoked scans per invocation.
func TestHarvestOverridesGuards(t *testing.T) {
	newScan := func() (*logical.Metadata, *physical.TableScan) {
		md := logical.NewMetadata()
		tbl := &catalog.Table{Name: "g", Cols: []catalog.Column{{Name: "a", Kind: datum.KindInt}}}
		ids := md.AddTable(tbl, "g")
		return md, &physical.TableScan{Table: tbl, Binding: "g", Cols: ids, ColOrds: []int{0}}
	}

	e := New(Options{FeedbackPatching: true})
	defer e.Close()
	md, scan := newScan()
	rm := physical.NewRunMetrics()
	rm.Node(scan) // registered by setup, never pulled
	if e.harvestOverrides(scan, md, rm) || e.OverrideCount() != 0 {
		t.Errorf("never-executed scan harvested: %d overrides", e.OverrideCount())
	}

	// Twice-invoked scan (re-materialized inner side): per-invocation average.
	m := rm.Node(scan)
	m.ActualRows, m.Invocations = 1200, 2
	if !e.harvestOverrides(scan, md, rm) {
		t.Error("executed scan must harvest a material override")
	}
	if rows, ok := e.overrides.Get("g", ""); !ok || rows != 600 {
		t.Errorf("override = (%v, %v), want the per-invocation average 600", rows, ok)
	}

	// The same executed scan under a LIMIT observes the cutoff, not the
	// predicate: no harvest.
	e2 := New(Options{FeedbackPatching: true})
	defer e2.Close()
	lim := &physical.LimitOp{Input: scan, N: 5}
	if e2.harvestOverrides(lim, md, rm) || e2.OverrideCount() != 0 {
		t.Errorf("scan under LIMIT harvested: %d overrides", e2.OverrideCount())
	}
}

// The engine-level feedback report must not repeat a hot statement: fifty
// analyzed executions of one query collapse to one entry per plan node, each
// carrying that pair's worst q-error.
func TestFeedbackReportDedupesHotStatement(t *testing.T) {
	e := staleStatsEngine(t, Options{Optimizer: SystemR})
	hot := "SELECT pk FROM a WHERE k < 7"
	for i := 0; i < 50; i++ {
		if _, _, err := e.QueryAnalyze(hot); err != nil {
			t.Fatal(err)
		}
	}
	// Genuinely distinct statement families: the ring keys by fingerprint, so
	// queries differing only in literals would (by design) collapse into the
	// hot family above.
	distinct := []string{
		"SELECT pk FROM a WHERE k > 1",
		"SELECT pk FROM a WHERE k <= 2 AND pk > 0",
		"SELECT pk FROM b WHERE k < 3",
		"SELECT pk FROM b WHERE k <> 4",
		staleJoin,
	}
	for _, q := range distinct {
		if _, _, err := e.QueryAnalyze(q); err != nil {
			t.Fatal(err)
		}
	}
	rep := e.FeedbackReport(64)
	if len(rep) == 0 {
		t.Fatal("empty feedback report after 55 analyzed executions")
	}
	seen := make(map[string]bool)
	hotEntries := 0
	for _, en := range rep {
		key := en.Statement + "\x00" + en.Node
		if seen[key] {
			t.Errorf("duplicate report entry for (%q, %q)", en.Statement, en.Node)
		}
		seen[key] = true
		// The hot statement is recorded under its fingerprint: literals
		// become '?'.
		if strings.Contains(en.Statement, "a WHERE k < ?") {
			hotEntries++
		}
		if en.QError < 1 {
			t.Errorf("q-error %v below 1 for %q", en.QError, en.Node)
		}
	}
	if hotEntries == 0 {
		t.Error("hot statement missing from the report entirely")
	}
}
