package storage

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/faultfs"
)

func wideDef(name string) *catalog.Table {
	return &catalog.Table{
		Name: name,
		Cols: []catalog.Column{
			{Name: "i", Kind: datum.KindInt},
			{Name: "f", Kind: datum.KindFloat},
			{Name: "s", Kind: datum.KindString},
			{Name: "b", Kind: datum.KindBool},
		},
	}
}

// randWideRows generates rows over all four kinds with ~1/8 NULLs.
func randWideRows(n int, seed int64) []datum.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]datum.Row, n)
	for i := range rows {
		r := datum.Row{
			datum.NewInt(rng.Int63n(1000) - 500),
			datum.NewFloat(rng.NormFloat64() * 100),
			datum.NewString(string(rune('a' + rng.Intn(26)))),
			datum.NewBool(rng.Intn(2) == 0),
		}
		for j := range r {
			if rng.Intn(8) == 0 {
				r[j] = datum.Null
			}
		}
		rows[i] = r
	}
	return rows
}

func newDiskStore(t *testing.T, segRows int) *Store {
	t.Helper()
	return NewStoreWith(StoreConfig{Dir: t.TempDir(), SegmentRows: segRows})
}

func sameRows(t *testing.T, got, want []datum.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d width %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			g, w := got[i][j], want[i][j]
			if g.IsNull() != w.IsNull() {
				t.Fatalf("row %d col %d: null mismatch (%v vs %v)", i, j, g, w)
			}
			if g.IsNull() {
				continue
			}
			// Bit-exact for floats (NaN != NaN under Compare semantics).
			if g.Kind() == datum.KindFloat && w.Kind() == datum.KindFloat {
				if math.Float64bits(g.Float()) != math.Float64bits(w.Float()) {
					t.Fatalf("row %d col %d: float bits %x vs %x", i, j, g.Float(), w.Float())
				}
				continue
			}
			if datum.Compare(g, w) != 0 || g.Kind() != w.Kind() {
				t.Fatalf("row %d col %d: %v (%v) vs %v (%v)", i, j, g, g.Kind(), w, w.Kind())
			}
		}
	}
}

// TestSegmentReload: a fresh store over the same directory adopts the sealed
// segments and serves identical rows; the unsealed tail is lost unless
// Flush was called first.
func TestSegmentReload(t *testing.T) {
	dir := t.TempDir()
	want := randWideRows(70, 11)
	s1 := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 16})
	tab1, err := s1.CreateTable(wideDef("rl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab1.InsertBatch(want); err != nil {
		t.Fatal(err)
	}
	if err := tab1.Flush(); err != nil { // seal the 6-row tail
		t.Fatal(err)
	}

	s2 := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 16})
	tab2, err := s2.CreateTable(wideDef("rl"))
	if err != nil {
		t.Fatal(err)
	}
	if tab2.RowCount() != 70 {
		t.Fatalf("reloaded RowCount = %d, want 70", tab2.RowCount())
	}
	got, err := tab2.Rows(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want)
}

// TestOldZonesReopen: a store sealed before format version 4 chose zone
// bounds rounding an INT to a float, so a column holding FLOAT 2^53 before
// INT 2^53+1 may have stored FLOAT 2^53 as its max. Reopened, that zone is
// dropped — the segment is read, not pruned, for n = 2^53+1 — while a zone
// of small numbers in the same file still prunes.
func TestOldZonesReopen(t *testing.T) {
	dir := t.TempDir()
	def := &catalog.Table{Name: "oz", Cols: []catalog.Column{{Name: "n", Kind: datum.KindInt}, {Name: "k", Kind: datum.KindInt}}}
	big := datum.NewInt(1<<53 + 1)
	rows := []datum.Row{
		{datum.NewFloat(1 << 53), datum.NewInt(1)},
		{big, datum.NewInt(2)},
		{datum.NewInt(1), datum.NewInt(3)},
		{datum.NewInt(2), datum.NewInt(4)},
	}
	tab, err := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 4}).CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	// Rewrite the one segment as a version-3 writer would have: n's max is
	// the first of the two values the rounded order tied. Publish the new
	// file size and checksum in the manifest.
	tdir := filepath.Join(dir, "oz")
	ms, _, err := replayManifest(filepath.Join(tdir, manifestName), false)
	if err != nil || len(ms.entries) != 1 {
		t.Fatalf("manifest: %v, %d entries", err, len(ms.entries))
	}
	e := ms.entries[0]
	raw, err := os.ReadFile(filepath.Join(tdir, e.file))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := decodeFooter(raw, e.file)
	if err != nil {
		t.Fatal(err)
	}
	if datum.Compare(sm.cols[0].max, big) != 0 {
		t.Fatalf("version-4 max %v, want %v", sm.cols[0].max, big)
	}
	sm.cols[0].max = datum.NewFloat(1 << 53)
	blocks := sm.cols[len(sm.cols)-1].off + sm.cols[len(sm.cols)-1].blockLen
	old := bytes.NewBuffer(append([]byte(nil), raw[:blocks]...))
	appendFooter(old, sm.rows, sm.cols, segMagicV3)
	if err := os.WriteFile(filepath.Join(tdir, e.file), old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	e.bytes, e.crc = int64(old.Len()), crc32.Checksum(old.Bytes(), crcTable)
	if err := os.WriteFile(filepath.Join(tdir, manifestName), []byte(frameRecord("add "+e.String())), 0o644); err != nil {
		t.Fatal(err)
	}

	tab, err = NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 4}).CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	if tab.RowCount() != 4 {
		t.Fatalf("reopened RowCount = %d, want 4", tab.RowCount())
	}
	for _, c := range []struct {
		pred ZonePred
		want ZoneDisp
	}{
		{ZonePred{Ord: 0, Form: ZoneCmp, Op: ZoneEq, C: big}, ZoneSome},
		{ZonePred{Ord: 1, Form: ZoneCmp, Op: ZoneEq, C: datum.NewInt(7)}, ZoneNone},
	} {
		if got := tab.SegmentDispositions([]ZonePred{c.pred}); len(got) != 1 || got[0] != c.want {
			t.Errorf("column %d = %v: %v, want [%v]", c.pred.Ord, c.pred.C, got, c.want)
		}
	}
}

// TestZoneDispositions: with values laid out sorted across segments, range,
// equality, IN and IS NULL predicates classify segments exactly.
func TestZoneDispositions(t *testing.T) {
	modes(t, 4, testZoneDispositions)
}

func testZoneDispositions(t *testing.T, s *Store) {
	def := &catalog.Table{Name: "zd", Cols: []catalog.Column{{Name: "a", Kind: datum.KindInt}}}
	tab, err := s.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	// Segment 0: 0..3, segment 1: 4..7, segment 2: 8,9,10,NULL.
	var rows []datum.Row
	for v := 0; v < 11; v++ {
		rows = append(rows, datum.Row{datum.NewInt(int64(v))})
	}
	rows = append(rows, datum.Row{datum.Null})
	if err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pred ZonePred
		want []ZoneDisp
	}{
		{"lt4", ZonePred{Ord: 0, Form: ZoneCmp, Op: ZoneLt, C: datum.NewInt(4)}, []ZoneDisp{ZoneAll, ZoneNone, ZoneNone}},
		{"ge8", ZonePred{Ord: 0, Form: ZoneCmp, Op: ZoneGe, C: datum.NewInt(8)}, []ZoneDisp{ZoneNone, ZoneNone, ZoneSome}},
		{"eq5", ZonePred{Ord: 0, Form: ZoneCmp, Op: ZoneEq, C: datum.NewInt(5)}, []ZoneDisp{ZoneNone, ZoneSome, ZoneNone}},
		{"in", ZonePred{Ord: 0, Form: ZoneIn, List: []datum.D{datum.NewInt(2), datum.NewInt(9)}}, []ZoneDisp{ZoneSome, ZoneNone, ZoneSome}},
		{"isnull", ZonePred{Ord: 0, Form: ZoneIsNull}, []ZoneDisp{ZoneNone, ZoneNone, ZoneSome}},
		{"notnull", ZonePred{Ord: 0, Form: ZoneIsNotNull}, []ZoneDisp{ZoneAll, ZoneAll, ZoneSome}},
		{"never", ZonePred{Ord: 0, Form: ZoneNever}, []ZoneDisp{ZoneNone, ZoneNone, ZoneNone}},
	}
	for _, tc := range cases {
		got := tab.SegmentDispositions([]ZonePred{tc.pred})
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d dispositions, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: segment %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
	// Pruned page count shrinks under a selective predicate.
	all := tab.PrunedPageCount(nil)
	few := tab.PrunedPageCount([]ZonePred{cases[0].pred})
	if few > all {
		t.Fatalf("pruned pages %d > unpruned %d", few, all)
	}
}

// TestSegmentStatsMeta: footer aggregation gives exact NULL counts, sane
// distinct estimates and true extremes.
func TestSegmentStatsMeta(t *testing.T) {
	modes(t, 8, testSegmentStatsMeta)
}

func testSegmentStatsMeta(t *testing.T, s *Store) {
	def := &catalog.Table{Name: "sm", Cols: []catalog.Column{{Name: "a", Kind: datum.KindInt}}}
	tab, err := s.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	var rows []datum.Row
	nulls := 0
	for i := 0; i < 64; i++ {
		if i%8 == 3 {
			rows = append(rows, datum.Row{datum.Null})
			nulls++
			continue
		}
		rows = append(rows, datum.Row{datum.NewInt(int64(i % 20))})
	}
	if err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	segRows, totalRows, pages, cols, ok := tab.SegmentStats()
	if !ok {
		t.Fatal("no segment stats for sealed table")
	}
	if segRows != 64 || totalRows != 64 {
		t.Fatalf("rows = %d/%d, want 64/64", segRows, totalRows)
	}
	if pages < 1 {
		t.Fatalf("pages = %d", pages)
	}
	cs := cols[0]
	if cs.NullCount != nulls {
		t.Fatalf("NullCount = %d, want %d", cs.NullCount, nulls)
	}
	if cs.Distinct < 10 || cs.Distinct > 40 { // true distinct is 20
		t.Fatalf("Distinct = %.1f, want ~20", cs.Distinct)
	}
	if !cs.HasZone || cs.Min.Int() != 0 || cs.Max.Int() != 19 {
		t.Fatalf("zone = %v [%v, %v], want [0, 19]", cs.HasZone, cs.Min, cs.Max)
	}
}

// TestSegmentFaultInjection: injected failures on every segment I/O stream
// surface as the typed error, deterministically, and the table remains
// usable once the fault clears.
func TestSegmentFaultInjection(t *testing.T) {
	boom := errors.New("simulated segment I/O failure")

	// Read path: segment.open and segment.read via ScanCtx.
	for _, op := range []string{"segment.open", "segment.read"} {
		s := newDiskStore(t, 8)
		tab, err := s.CreateTable(wideDef("fr"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.InsertBatch(randWideRows(40, 3)); err != nil {
			t.Fatal(err)
		}
		sc := &ScanCtx{Faults: faultfs.New(faultfs.Rule{Op: op, After: 1, Err: boom})}
		if _, err := tab.Rows(sc); !errors.Is(err, boom) {
			t.Fatalf("%s: got %v, want injected error", op, err)
		}
		// Default typed error when the rule carries none.
		sc = &ScanCtx{Faults: faultfs.New(faultfs.Rule{Op: op, After: 1})}
		if _, err := tab.Rows(sc); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("%s: got %v, want faultfs.ErrInjected", op, err)
		}
		// Fault cleared: same table serves rows again (cache was not
		// poisoned by the failed read).
		if rows, err := tab.Rows(nil); err != nil || len(rows) != 40 {
			t.Fatalf("%s: after fault cleared: %d rows, err %v", op, len(rows), err)
		}
	}

	// Write path: segment.create / segment.write via the store's injector.
	for _, op := range []string{"segment.create", "segment.write"} {
		inj := faultfs.New(faultfs.Rule{Op: op, After: 1, Err: boom})
		s := NewStoreWith(StoreConfig{Dir: t.TempDir(), SegmentRows: 8, Faults: inj})
		tab, err := s.CreateTable(wideDef("fw"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.InsertBatch(randWideRows(40, 3)); !errors.Is(err, boom) {
			t.Fatalf("%s: got %v, want injected error", op, err)
		}
	}
}

// TestSegmentBytesReadAccounting: cold reads report bytes, warm (cached)
// reads report zero.
func TestSegmentBytesReadAccounting(t *testing.T) {
	s := newDiskStore(t, 16)
	tab, err := s.CreateTable(wideDef("br"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertBatch(randWideRows(64, 29)); err != nil {
		t.Fatal(err)
	}
	v := datum.NewVec(datum.KindInt, 0)
	cold := &ScanCtx{}
	if err := tab.FillColumnRange(cold, 0, 0, 64, v); err != nil {
		t.Fatal(err)
	}
	if cold.BytesRead == 0 {
		t.Fatal("cold read reported zero bytes")
	}
	v.Reset(datum.KindInt)
	warm := &ScanCtx{}
	if err := tab.FillColumnRange(warm, 0, 0, 64, v); err != nil {
		t.Fatal(err)
	}
	if warm.BytesRead != 0 {
		t.Fatalf("warm read reported %d bytes, want 0 (column cache)", warm.BytesRead)
	}
}

// TestCorruptSegmentRejected: a truncated segment file is soft-adopted at
// recovery — the table opens, the report carries a typed corruption with
// coordinates, row counts stay intact (the manifest remembers them), and
// reading the damaged range fails with ErrSegmentCorrupt instead of serving
// garbage while the undamaged segment still serves.
func TestCorruptSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	s := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8})
	tab, err := s.CreateTable(wideDef("cr"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertBatch(randWideRows(16, 31)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cr", segFileName(0, 0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8})
	tab2, err := s2.CreateTable(wideDef("cr"))
	if err != nil {
		t.Fatalf("soft adoption should not fail table open: %v", err)
	}
	reps := s2.Recovery()
	if len(reps) != 1 || len(reps[0].Corrupt) != 1 {
		t.Fatalf("recovery reports = %+v, want one report with one corruption", reps)
	}
	ce := reps[0].Corrupt[0]
	if ce.Table != "cr" || ce.Segment != 0 {
		t.Fatalf("corruption at table %q segment %d, want cr/0", ce.Table, ce.Segment)
	}
	if !errors.Is(ce, ErrSegmentCorrupt) {
		t.Fatalf("corruption %v does not match ErrSegmentCorrupt", ce)
	}
	if got := tab2.RowCount(); got != 16 {
		t.Fatalf("RowCount = %d, want 16 (row-id space preserved)", got)
	}
	if _, err := tab2.RowsRange(nil, 0, 8); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("reading the damaged segment: got %v, want ErrSegmentCorrupt", err)
	}
	if rows, err := tab2.RowsRange(nil, 8, 16); err != nil || len(rows) != 8 {
		t.Fatalf("undamaged segment should still serve: rows=%d err=%v", len(rows), err)
	}
}

// BenchmarkFillColumnRange measures the typed bulk column fill out of pinned
// segments (the hot path of every vectorized scan).
func BenchmarkFillColumnRange(b *testing.B) {
	const n = 65536
	tab := NewStore().newTable(&catalog.Table{Name: "bench", Cols: []catalog.Column{
		{Name: "a", Kind: datum.KindInt},
		{Name: "f", Kind: datum.KindFloat},
	}})
	rows := make([]datum.Row, n)
	for i := range rows {
		rows[i] = datum.Row{datum.NewInt(int64(i)), datum.NewFloat(float64(i) * 0.5)}
	}
	if err := tab.InsertBatch(rows); err != nil {
		b.Fatal(err)
	}
	for _, ord := range []int{0, 1} {
		kind := tab.Def.Cols[ord].Kind
		name := tab.Def.Cols[ord].Name
		b.Run(name, func(b *testing.B) {
			v := datum.NewVec(kind, n)
			b.ReportAllocs()
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				v.Reset(kind)
				if err := tab.FillColumnRange(nil, ord, 0, n, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
