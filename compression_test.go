package queryopt

// compression_test.go proves compressed columnar storage is visible to the
// right meters: against an uncompressed engine (DisableCompression) the
// compressed engine reads fewer bytes, decodes dictionary/run-length blocks,
// and is costed from its smaller encoded footprint. That it is invisible to
// query results is TestDiskStorageEquivalence's "uncompressed" arm.

import (
	"strings"
	"testing"
)

// lowCardEngine loads a table whose string column has 8 distinct long values
// and whose status column is sorted (long runs), the shape compression is
// built for. A 1-byte column cache keeps every read cold so BytesRead and the
// block counters meter real disk work on each query.
func lowCardEngine(t *testing.T, compress bool) *Engine {
	t.Helper()
	e := New(Options{
		StorageDir: t.TempDir(), SegmentRows: 512, SegmentCacheBytes: 1,
		DisableCompression: !compress,
	})
	e.MustExec(`CREATE TABLE ev (id INT NOT NULL, city VARCHAR, n INT)`)
	cities := []string{
		"springfield-north-industrial-park", "springfield-south-riverfront",
		"shelbyville-downtown-exchange", "shelbyville-harbor-terminal",
		"capital-city-financial-district", "capital-city-airport-corridor",
		"ogdenville-rail-junction", "north-haverbrook-monorail-plaza",
	}
	var rows [][]any
	for i := 0; i < 8000; i++ {
		rows = append(rows, []any{i, cities[i%len(cities)], i / 1000})
	}
	if err := e.LoadRows("ev", rows); err != nil {
		t.Fatal(err)
	}
	e.MustExec("ANALYZE")
	return e
}

// TestCompressionBlockCounters: a cold scan over the compressed engine
// decodes dictionary and run-length blocks and reads fewer real bytes than
// the uncompressed control; with DisableCompression every block is plain.
func TestCompressionBlockCounters(t *testing.T) {
	comp := lowCardEngine(t, true)
	defer comp.Close()
	plain := lowCardEngine(t, false)
	defer plain.Close()

	const q = "SELECT COUNT(*) FROM ev WHERE ev.city = 'shelbyville-downtown-exchange'"
	rc, err := comp.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Rows[0][0] != rp.Rows[0][0] || rc.Rows[0][0].(int64) != 1000 {
		t.Fatalf("counts disagree: compressed=%v uncompressed=%v want 1000", rc.Rows[0][0], rp.Rows[0][0])
	}
	if rc.Stats.BlocksDict == 0 {
		t.Fatalf("compressed scan decoded no dictionary blocks: %+v", rc.Stats)
	}
	if rp.Stats.BlocksDict != 0 || rp.Stats.BlocksRLE != 0 {
		t.Fatalf("DisableCompression engine decoded encoded blocks: %+v", rp.Stats)
	}
	if rp.Stats.BlocksPlain == 0 {
		t.Fatalf("uncompressed scan decoded no plain blocks: %+v", rp.Stats)
	}
	if rc.Stats.BytesRead == 0 || rp.Stats.BytesRead == 0 {
		t.Fatalf("cold scans read no bytes: compressed=%d uncompressed=%d",
			rc.Stats.BytesRead, rp.Stats.BytesRead)
	}
	if rc.Stats.BytesRead >= rp.Stats.BytesRead {
		t.Fatalf("compressed scan read %d bytes, uncompressed %d — no reduction",
			rc.Stats.BytesRead, rp.Stats.BytesRead)
	}

	// The sorted n column compresses to runs.
	rc, err = comp.Exec("SELECT COUNT(*) FROM ev WHERE ev.n = 3")
	if err != nil {
		t.Fatal(err)
	}
	if rc.Stats.BlocksRLE == 0 {
		t.Fatalf("scan over the sorted column decoded no run-length blocks: %+v", rc.Stats)
	}
}

// TestDictColumnThroughSpill: a grouping query over the dictionary-encoded
// column under a starvation memory budget must spill and still agree with the
// unbudgeted in-memory engine — encoded vectors decode transparently on the
// row-at-a-time spill path.
func TestDictColumnThroughSpill(t *testing.T) {
	mem := New(Options{})
	defer mem.Close()
	// The query peaks at ~630KB unbudgeted; 256KB forces the aggregation to
	// spill while leaving each spill partition comfortable headroom over the
	// executor's 128KB per-partition floor grant (partition sizes wobble a few
	// hundred bytes with map iteration order — a tighter budget flakes).
	tight := New(Options{
		StorageDir: t.TempDir(), SegmentRows: 512, SegmentCacheBytes: 1,
		MemBudget: 256 << 10,
	})
	defer tight.Close()
	cities := []string{
		"springfield-north-industrial-park", "springfield-south-riverfront",
		"shelbyville-downtown-exchange", "shelbyville-harbor-terminal",
		"capital-city-financial-district", "capital-city-airport-corridor",
		"ogdenville-rail-junction", "north-haverbrook-monorail-plaza",
	}
	var rows [][]any
	for i := 0; i < 4000; i++ {
		rows = append(rows, []any{i, cities[i%len(cities)], i / 1000})
	}
	for _, e := range []*Engine{mem, tight} {
		e.MustExec(`CREATE TABLE ev (id INT NOT NULL, city VARCHAR, n INT)`)
		if err := e.LoadRows("ev", rows); err != nil {
			t.Fatal(err)
		}
		e.MustExec("ANALYZE")
	}

	const q = "SELECT ev.city, ev.id, COUNT(*), SUM(ev.n) FROM ev GROUP BY ev.city, ev.id"
	want, err := mem.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tight.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Spills == 0 {
		t.Fatalf("256KB budget did not spill — the test exercises nothing: %+v", got.Stats)
	}
	a, b := canonRows(want), canonRows(got)
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Fatalf("spilled aggregation differs:\nwant %v\ngot  %v", a, b)
	}
}

// TestExplainAnalyzeShowsBlocks: the rendered plan carries the per-encoding
// block counters on compressed disk scans.
func TestExplainAnalyzeShowsBlocks(t *testing.T) {
	e := lowCardEngine(t, true)
	defer e.Close()
	res, err := e.Exec("EXPLAIN ANALYZE SELECT COUNT(*) FROM ev WHERE ev.city <> 'ogdenville-rail-junction'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "blocks_dict=") || !strings.Contains(res.Plan, "blocks_rle=") {
		t.Fatalf("no block-encoding metrics in plan:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "bytes_read=") {
		t.Fatalf("no bytes_read in plan:\n%s", res.Plan)
	}
}

// TestCompressionCostsEncodedBytes: the optimizer's scan cost comes from the
// encoded on-disk footprint — the same data costs less to scan on the
// compressed engine because its page count is real file bytes over PageSize.
func TestCompressionCostsEncodedBytes(t *testing.T) {
	comp := lowCardEngine(t, true)
	defer comp.Close()
	plain := lowCardEngine(t, false)
	defer plain.Close()
	const q = "SELECT COUNT(*) FROM ev"
	rc, err := comp.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if rc.EstCost <= 0 || rp.EstCost <= 0 {
		t.Fatalf("missing cost estimates: compressed=%v uncompressed=%v", rc.EstCost, rp.EstCost)
	}
	if rc.EstCost >= rp.EstCost {
		t.Fatalf("compressed scan costed %v, uncompressed %v — encoded bytes not charged",
			rc.EstCost, rp.EstCost)
	}
}
