package queryopt

// storage_equivalence_test.go proves sealed columnar segments are invisible
// to query results: the same random query corpus, run against an engine whose
// small tables never seal and against engines that seal every 32 rows —
// pinned in memory, or in files compressed and plain — over identical data,
// must return bit-identical rows (floats compared as exact hex bits) at every
// parallelism degree, with zone-map pruning both on and off.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/systemr"
)

// TestDiskStorageEquivalence: random queries agree between the unsealed
// memory engine and every sealed arm at parallelism 1, 4 and 8, with small
// segments so every query crosses many segment boundaries (the schema's
// low-cardinality string column makes dictionary encoding engage), and with
// pruning and compression disabled as control arms.
func TestDiskStorageEquivalence(t *testing.T) {
	const trials = 40
	for _, par := range []int{1, 4, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			mem := randSchemaWith(t, Options{Optimizer: SystemR, Parallelism: par}, seed)
			sealed := func(o Options) *Engine {
				o.Optimizer, o.Parallelism, o.SegmentRows = SystemR, par, 32
				return randSchemaWith(t, o, seed)
			}
			arms := map[string]*Engine{
				"pinned":       sealed(Options{}),
				"disk":         sealed(Options{StorageDir: t.TempDir()}),
				"disk-noprune": sealed(Options{StorageDir: t.TempDir(), DisableZoneMaps: true}),
				"uncompressed": sealed(Options{StorageDir: t.TempDir(), DisableCompression: true}),
			}
			rng := rand.New(rand.NewSource(seed * 77))
			for trial := 0; trial < trials; trial++ {
				q := randQuery(rng)
				want, err := mem.Exec(q)
				if err != nil {
					t.Fatalf("par %d seed %d trial %d (mem): %v\nquery: %s", par, seed, trial, err, q)
				}
				base := canonRows(want)
				for name, e := range arms {
					got, err := e.Exec(q)
					if err != nil {
						t.Fatalf("par %d seed %d trial %d (%s): %v\nquery: %s", par, seed, trial, name, err, q)
					}
					rows := canonRows(got)
					if strings.Join(rows, ";") != strings.Join(base, ";") {
						t.Fatalf("par %d seed %d trial %d: %s differs from memory\nquery: %s\nmem (%d rows): %.500v\n%s (%d rows): %.500v\nplan:\n%s",
							par, seed, trial, name, q, len(base), base, name, len(rows), rows, got.Plan)
					}
				}
			}
			mem.Close()
			for _, e := range arms {
				e.Close()
			}
		}
	}
}

// TestDiskStorageOrderedEquivalence: ordered prefixes must match exactly
// (not as a multiset) between memory and disk.
func TestDiskStorageOrderedEquivalence(t *testing.T) {
	mem := randSchemaWith(t, Options{Optimizer: SystemR, Parallelism: 4}, 42)
	dsk := randSchemaWith(t, Options{
		Optimizer: SystemR, Parallelism: 4,
		StorageDir: t.TempDir(), SegmentRows: 32,
	}, 42)
	queries := []string{
		"SELECT x.pk FROM r x WHERE x.a > 5 ORDER BY x.pk LIMIT 7",
		"SELECT x.pk, y.pk FROM r x JOIN t y ON x.fk = y.pk ORDER BY x.pk DESC LIMIT 5",
		"SELECT x.a, COUNT(*), SUM(x.f) FROM r x WHERE x.f < 200 GROUP BY x.a ORDER BY x.a",
	}
	for _, q := range queries {
		want, err := mem.Exec(q)
		if err != nil {
			t.Fatalf("mem %s: %v", q, err)
		}
		got, err := dsk.Exec(q)
		if err != nil {
			t.Fatalf("disk %s: %v", q, err)
		}
		a := fmt.Sprint(want.Rows)
		b := fmt.Sprint(got.Rows)
		if a != b {
			t.Errorf("%s:\nmem:  %s\ndisk: %s", q, a, b)
		}
	}
}

// TestSegmentPruningCounters: a selective range over a clustered (sorted)
// key reads well under 10% of segments, an unselective one reads them all,
// and DisableZoneMaps reads everything while returning the same rows as the
// pruned scan and as the naive Reference evaluator — whether the segments
// are files or pinned in memory (which reads no bytes).
func TestSegmentPruningCounters(t *testing.T) {
	build := func(opts Options) *Engine {
		opts.SegmentRows = 512
		e := New(opts)
		// No index: the range predicate must be answered by a sequential
		// scan, so row elimination can only come from zone maps.
		e.MustExec(`CREATE TABLE m (k INT NOT NULL, v FLOAT)`)
		var rows [][]any
		for i := 0; i < 20000; i++ {
			rows = append(rows, []any{i, float64(i) / 3})
		}
		if err := e.LoadRows("m", rows); err != nil {
			t.Fatal(err)
		}
		e.MustExec("ANALYZE")
		t.Cleanup(func() { e.Close() })
		return e
	}
	const selective = "SELECT k, v FROM m WHERE k >= 100 AND k < 120"
	want := canonRows(build(Options{Optimizer: Reference}).MustExec(selective))
	if len(want) != 20 {
		t.Fatalf("reference returns %d rows, want 20", len(want))
	}
	for _, files := range []bool{true, false} {
		dir := func() string {
			if files {
				return t.TempDir()
			}
			return ""
		}
		seg := build(Options{StorageDir: dir()})
		res := seg.MustExec(selective)
		read, pruned := res.Stats.SegmentsRead, res.Stats.SegmentsPruned
		if total := read + pruned; pruned == 0 || read*10 >= total {
			t.Fatalf("files=%v: selective scan read %d of %d segments, want <10%%", files, read, total)
		}
		if !files && res.Stats.BytesRead != 0 {
			t.Fatalf("pinned segments read %d bytes", res.Stats.BytesRead)
		}
		off := build(Options{StorageDir: dir(), DisableZoneMaps: true}).MustExec(selective)
		if off.Stats.SegmentsPruned != 0 {
			t.Fatalf("files=%v: DisableZoneMaps still pruned %d segments", files, off.Stats.SegmentsPruned)
		}
		for name, got := range map[string]*Result{"pruned": res, "no-prune": off} {
			if rows := canonRows(got); strings.Join(rows, ";") != strings.Join(want, ";") {
				t.Fatalf("files=%v %s: %v, want %v", files, name, rows, want)
			}
		}
		res = seg.MustExec("SELECT COUNT(*) FROM m")
		if res.Rows[0][0].(int64) != 20000 || res.Stats.SegmentsPruned != 0 {
			t.Fatalf("files=%v: full count = %v with %d segments pruned", files, res.Rows[0][0], res.Stats.SegmentsPruned)
		}
	}
}

// TestExplainAnalyzeShowsSegments: the rendered plan carries the new
// segments_read / segments_pruned / bytes_read metrics on disk scans.
func TestExplainAnalyzeShowsSegments(t *testing.T) {
	// A 1-byte column cache keeps every read cold, so bytes_read is nonzero
	// even after ANALYZE warmed the segments once.
	e := New(Options{StorageDir: t.TempDir(), SegmentRows: 256, SegmentCacheBytes: 1})
	defer e.Close()
	e.MustExec(`CREATE TABLE m (k INT NOT NULL, v FLOAT)`)
	var rows [][]any
	for i := 0; i < 4000; i++ {
		rows = append(rows, []any{i, float64(i)})
	}
	if err := e.LoadRows("m", rows); err != nil {
		t.Fatal(err)
	}
	e.MustExec("ANALYZE")
	res, err := e.Exec("EXPLAIN ANALYZE SELECT COUNT(*) FROM m WHERE k < 300")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "segments_read=") || !strings.Contains(res.Plan, "segments_pruned=") {
		t.Fatalf("no segment metrics in plan:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "bytes_read=") {
		t.Fatalf("no bytes_read in plan:\n%s", res.Plan)
	}
}

// TestDiskEngineFaultsAndLeaks: injected segment-read failures surface as
// the typed error through every parallelism degree, the engine survives,
// and no goroutines leak across fault + close cycles.
func TestDiskEngineFaultsAndLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	boom := errors.New("segment device gone")
	for _, par := range []int{1, 4, 8} {
		// Tiny column cache: every segment read goes to disk, so the
		// injected faults are guaranteed to be hit.
		e := randSchemaWith(t, Options{
			Optimizer: SystemR, Parallelism: par,
			StorageDir: t.TempDir(), SegmentRows: 32, SegmentCacheBytes: 1,
		}, 3)
		q := "SELECT x.pk, y.a FROM r x JOIN t y ON x.fk = y.pk WHERE x.f > 10"
		e.faults = faultfs.New(faultfs.Rule{Op: "segment.open", After: 1, Err: boom})
		if _, err := e.Exec(q); !errors.Is(err, boom) {
			t.Fatalf("par %d: got %v, want injected segment error", par, err)
		}
		e.faults = faultfs.New(faultfs.Rule{Op: "segment.read", After: 2})
		if _, err := e.Exec(q); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("par %d: got %v, want faultfs.ErrInjected", par, err)
		}
		e.faults = nil
		if _, err := e.Exec(q); err != nil {
			t.Fatalf("par %d: engine broken after injected fault: %v", par, err)
		}
		e.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// openFilesUnder counts the files under dir this process holds open, from
// the links in /proc/self/fd.
func openFilesUnder(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to count open files with")
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestEngineCloseClosesSegmentFiles: a disk-backed engine keeps the segment
// files it has read open, and Close closes every one of them.
func TestEngineCloseClosesSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	openFilesUnder(t, dir)
	e := blockCacheEngine(t, Options{Optimizer: SystemR, StorageDir: dir, SegmentCacheBytes: 1})
	if _, err := e.Exec(`SELECT SUM(i), COUNT(d) FROM bc`); err != nil {
		t.Fatal(err)
	}
	if n := openFilesUnder(t, dir); n != 3 {
		t.Fatalf("after a scan of 3 segments %d files under the store are open, want 3", n)
	}
	e.Close()
	if n := openFilesUnder(t, dir); n != 0 {
		t.Fatalf("after Close %d files under the store are open", n)
	}
}

// TestStaleStatsUseSegmentMetadata: after bulk growth without re-ANALYZE,
// the optimizer's row estimate follows the segment metadata instead of the
// stale catalog entry.
func TestStaleStatsUseSegmentMetadata(t *testing.T) {
	e := New(Options{StorageDir: t.TempDir(), SegmentRows: 128})
	defer e.Close()
	e.MustExec(`CREATE TABLE g (k INT NOT NULL)`)
	var rows [][]any
	for i := 0; i < 500; i++ {
		rows = append(rows, []any{i})
	}
	if err := e.LoadRows("g", rows); err != nil {
		t.Fatal(err)
	}
	e.MustExec("ANALYZE")
	// 10x growth, no re-ANALYZE: catalog says 500, segments say ~5500.
	rows = rows[:0]
	for i := 500; i < 5500; i++ {
		rows = append(rows, []any{i})
	}
	if err := e.LoadRows("g", rows); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec("EXPLAIN SELECT COUNT(*) FROM g")
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintln(&plan, r[0])
	}
	if !strings.Contains(plan.String(), "rows=5500") {
		t.Fatalf("scan estimate did not pick up segment metadata (want rows=5500):\nplan:\n%s", plan.String())
	}
}

// blockCacheEngine loads 3 segments of 4096 rows — a small INT column and a
// dictionary string column — into an engine configured by opts.
func blockCacheEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	e.MustExec(`CREATE TABLE bc (i INT, d VARCHAR)`)
	var rows [][]any
	for k := 0; k < 3*4096; k++ {
		rows = append(rows, []any{k * 7 % 60, []string{"ant", "bee", "cat", "dog"}[k*k%4]})
	}
	if err := e.LoadRows("bc", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBlockHitsCountColumnReads: every column read of a scan is a block
// cache hit or a miss counted by representation, so hits plus misses equal
// the column reads the scan made — one per referenced column and morsel —
// cold, warm, and under a budget that keeps blocks encoded; EXPLAIN ANALYZE
// shows the hits.
func TestBlockHitsCountColumnReads(t *testing.T) {
	const reads = 3 * 4 * 2 // segments × morsels per segment × columns
	for _, budget := range []int64{0, 30000} {
		e := blockCacheEngine(t, Options{Optimizer: SystemR, StorageDir: t.TempDir(), SegmentCacheBytes: budget})
		for run := 0; run < 3; run++ {
			res, err := e.Exec(`SELECT SUM(i), COUNT(d) FROM bc`)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if misses := st.BlocksDict + st.BlocksRLE + st.BlocksPlain; st.BlockHits+misses != reads {
				t.Fatalf("budget %d run %d: %d hits + %d misses, want %d column reads", budget, run, st.BlockHits, misses, reads)
			}
			if run > 0 && (st.BlockHits != reads || st.BytesRead != 0) {
				t.Fatalf("budget %d run %d: warm scan %+v, want every read a hit", budget, run, st)
			}
		}
		res, err := e.Exec(`EXPLAIN ANALYZE SELECT SUM(i), COUNT(d) FROM bc`)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan, fmt.Sprintf("block_hits=%d", reads)) {
			t.Fatalf("budget %d: no block_hits=%d in plan:\n%s", budget, reads, res.Plan)
		}
		e.Close()
	}
}

// TestLazyIndexBuildCountsReads: an index nested-loop join into a
// directory-backed table whose index is not built yet builds it inside the
// statement, and the build's reads of the key column — one per segment —
// count in the statement's block reads like any other column read: the first
// run makes exactly those three reads more than a run over the cached index.
func TestLazyIndexBuildCountsReads(t *testing.T) {
	e := blockCacheEngine(t, Options{Optimizer: SystemR, StorageDir: t.TempDir(),
		SystemR: systemr.Options{DisableHashJoin: true, DisableMergeJoin: true}})
	defer e.Close()
	e.MustExec(`CREATE INDEX bc_i ON bc (i)`)
	e.MustExec(`CREATE TABLE o (k INT)`)
	if err := e.LoadRows("o", [][]any{{3}, {17}, {59}}); err != nil {
		t.Fatal(err)
	}
	e.MustExec("ANALYZE")
	const q = `SELECT COUNT(*) FROM o, bc WHERE o.k = bc.i`
	var reads [2]int64
	for run := range reads {
		res := e.MustExec(q)
		if !usesJoin(res.Plan, "index-nl-") {
			t.Fatalf("want an index nested-loop join:\n%s", res.Plan)
		}
		st := res.Stats
		reads[run] = st.BlockHits + st.BlocksDict + st.BlocksRLE + st.BlocksPlain
	}
	if reads[0]-reads[1] != 3 {
		t.Fatalf("column reads: %d building the index, %d with it built; want the build to add 3 (one per segment of bc.i)", reads[0], reads[1])
	}
}

// TestParallelScansShareEncodedBlocks: two workers decode ranges and gathers
// of the same encoded blocks at once — a budget below one decoded column
// keeps every block encoded — and agree with the in-memory engine. Run under
// -race this checks that reads share cached blocks without writing them.
func TestParallelScansShareEncodedBlocks(t *testing.T) {
	mem := blockCacheEngine(t, Options{Optimizer: SystemR})
	defer mem.Close()
	disk := blockCacheEngine(t, Options{Optimizer: SystemR, Parallelism: 2, StorageDir: t.TempDir(), SegmentCacheBytes: 30000})
	defer disk.Close()
	queries := []string{
		`SELECT SUM(i), COUNT(*) FROM bc WHERE d = 'bee'`,
		`SELECT d, COUNT(*), SUM(i) FROM bc WHERE i < 20 GROUP BY d`,
		`SELECT i, d FROM bc WHERE i = 59`,
		`SELECT d, MIN(i), MAX(i) FROM bc GROUP BY d`,
	}
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			want, err := mem.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := disk.Exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if a, b := strings.Join(canonRows(got), ";"), strings.Join(canonRows(want), ";"); a != b {
				t.Fatalf("%s: disk %.300s, memory %.300s", q, a, b)
			}
			if round > 0 && got.Stats.BytesRead != 0 {
				t.Fatalf("%s: round %d read %d bytes, want every block held encoded", q, round, got.Stats.BytesRead)
			}
		}
	}
}
