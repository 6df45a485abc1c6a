package storage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// sealedReprs seals rows into exactly one segment of a fresh table in s and
// returns the table plus the segment's per-column block representations.
func sealedReprs(t *testing.T, s *Store, def *catalog.Table, rows []datum.Row) (*Table, []byte) {
	t.Helper()
	s.cfg.SegmentRows = len(rows)
	tab, err := s.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tab, reprsOf(tab, 0)
}

// reprsOf returns each column's repr byte in sealed segment si.
func reprsOf(tab *Table, si int) []byte {
	cols := tab.seg.segs[si].cols
	reprs := make([]byte, len(cols))
	for i := range cols {
		reprs[i] = cols[i].repr
	}
	return reprs
}

func oneStrCol(name string) *catalog.Table {
	return &catalog.Table{Name: name, Cols: []catalog.Column{{Name: "s", Kind: datum.KindString}}}
}

// TestEncodingEdgeCases pins the seal-time encoding decision and its
// round-trip on the format's corner shapes, with and without segment files.
func TestEncodingEdgeCases(t *testing.T) {
	modes(t, 0, testEncodingEdgeCases)
}

func testEncodingEdgeCases(t *testing.T, s *Store) {
	strRow := func(s string) datum.Row { return datum.Row{datum.NewString(s)} }

	t.Run("all-null-long", func(t *testing.T) {
		// 128 NULLs form one run: run-length wins even on a string column.
		rows := make([]datum.Row, 128)
		for i := range rows {
			rows[i] = datum.Row{datum.Null}
		}
		tab, reprs := sealedReprs(t, s, oneStrCol("an"), rows)
		if reprs[0] != reprRLE {
			t.Fatalf("repr = %d, want RLE", reprs[0])
		}
		sameRows(t, mustRows(t, tab), rows)
	})

	t.Run("all-null-short", func(t *testing.T) {
		// 32 rows is below the RLE floor and has no non-NULL values to build
		// a dictionary from: plain encoding is the only sound choice.
		rows := make([]datum.Row, 32)
		for i := range rows {
			rows[i] = datum.Row{datum.Null}
		}
		tab, reprs := sealedReprs(t, s, oneStrCol("ans"), rows)
		if reprs[0] != reprTyped {
			t.Fatalf("repr = %d, want plain typed", reprs[0])
		}
		sameRows(t, mustRows(t, tab), rows)
	})

	t.Run("empty-strings", func(t *testing.T) {
		// "" is a legal dictionary entry and must stay distinct from NULL.
		rows := make([]datum.Row, 120)
		for i := range rows {
			switch i % 3 {
			case 0:
				rows[i] = strRow("")
			case 1:
				rows[i] = strRow("nonempty")
			default:
				rows[i] = datum.Row{datum.Null}
			}
		}
		tab, reprs := sealedReprs(t, s, oneStrCol("es"), rows)
		if reprs[0] != reprDict {
			t.Fatalf("repr = %d, want dict", reprs[0])
		}
		sameRows(t, mustRows(t, tab), rows)
	})

	t.Run("single-value-long", func(t *testing.T) {
		// One value repeated 128 times is one run: RLE beats a 1-entry dict.
		rows := make([]datum.Row, 128)
		for i := range rows {
			rows[i] = strRow("only")
		}
		tab, reprs := sealedReprs(t, s, oneStrCol("sv"), rows)
		if reprs[0] != reprRLE {
			t.Fatalf("repr = %d, want RLE", reprs[0])
		}
		sameRows(t, mustRows(t, tab), rows)
	})

	t.Run("single-value-alternating-null", func(t *testing.T) {
		// NULL interleaving breaks the runs; a 1-entry dictionary carries the
		// value and the NULL bitmap carries the rest.
		rows := make([]datum.Row, 128)
		for i := range rows {
			if i%2 == 0 {
				rows[i] = strRow("only")
			} else {
				rows[i] = datum.Row{datum.Null}
			}
		}
		tab, reprs := sealedReprs(t, s, oneStrCol("svn"), rows)
		if reprs[0] != reprDict {
			t.Fatalf("repr = %d, want dict", reprs[0])
		}
		sameRows(t, mustRows(t, tab), rows)
	})

	// The dictionary threshold is an exact distinct count: 256 encodes, 257
	// does not. Values rotate every row so RLE never competes.
	for _, tc := range []struct {
		ndv  int
		want byte
	}{{256, reprDict}, {257, reprTyped}} {
		t.Run(fmt.Sprintf("ndv-%d", tc.ndv), func(t *testing.T) {
			rows := make([]datum.Row, 1024)
			for i := range rows {
				rows[i] = strRow(fmt.Sprintf("value-%03d", i%tc.ndv))
			}
			tab, reprs := sealedReprs(t, s, oneStrCol(fmt.Sprintf("nd%d", tc.ndv)), rows)
			if reprs[0] != tc.want {
				t.Fatalf("ndv %d: repr = %d, want %d", tc.ndv, reprs[0], tc.want)
			}
			sameRows(t, mustRows(t, tab), rows)
		})
	}

	t.Run("disable-compression", func(t *testing.T) {
		rows := make([]datum.Row, 128)
		for i := range rows {
			rows[i] = strRow("only")
		}
		s.cfg.DisableCompression = true
		tab, reprs := sealedReprs(t, s, oneStrCol("dc"), rows)
		if reprs[0] != reprTyped {
			t.Fatalf("repr = %d, want plain typed under DisableCompression", reprs[0])
		}
		sameRows(t, mustRows(t, tab), rows)
	})
}

// TestRLEAfterSortBy: a shuffled low-cardinality column seals as dictionary
// or plain blocks, but after SortBy physically reorders the heap the rewrite
// re-runs the encoder and the now-constant runs seal as RLE.
func TestRLEAfterSortBy(t *testing.T) {
	modes(t, 256, testRLEAfterSortBy)
}

func testRLEAfterSortBy(t *testing.T, s *Store) {
	def := &catalog.Table{Name: "sb", Cols: []catalog.Column{
		{Name: "k", Kind: datum.KindInt},
		{Name: "s", Kind: datum.KindString},
	}}
	tab, err := s.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]datum.Row, 256)
	for i := range rows {
		// 4 values scattered by a stride co-prime with the row count: runs of
		// length 1, so the unsorted seal cannot pick RLE.
		v := int64(i*37%4) + 10
		rows[i] = datum.Row{datum.NewInt(v), datum.NewString(fmt.Sprintf("city-%d", v))}
	}
	if err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	before := reprsOf(tab, 0)
	if before[0] == reprRLE || before[1] == reprRLE {
		t.Fatalf("unsorted seal picked RLE: %v", before)
	}
	if err := tab.SortBy([]datum.SortSpec{{Col: 0}}); err != nil {
		t.Fatal(err)
	}
	after := reprsOf(tab, 0)
	if after[0] != reprRLE || after[1] != reprRLE {
		t.Fatalf("sorted seal reprs = %v, want RLE for both columns", after)
	}
	sorted, err := tab.Rows(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sorted); i++ {
		if datum.Compare(sorted[i-1][0], sorted[i][0]) > 0 {
			t.Fatalf("rows not sorted at %d: %v > %v", i, sorted[i-1][0], sorted[i][0])
		}
	}
}

// TestCacheChargesStringPayload: the LRU charge for a cached string column
// follows the actual payload. A column of 400-byte strings must charge far
// more than the same row count of 1-byte strings — under the old flat
// 8-bytes-per-row model both charged the same and big string columns blew
// through the budget unaccounted.
func TestCacheChargesStringPayload(t *testing.T) {
	charge := func(width int) int64 {
		dir := t.TempDir()
		s := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 256, DisableCompression: true})
		tab, err := s.CreateTable(oneStrCol("cw"))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]datum.Row, 256)
		for i := range rows {
			// Distinct per row so dictionary encoding could never dedupe it.
			rows[i] = datum.Row{datum.NewString(strings.Repeat("x", width-1) + string(rune('a'+i%26)))}
		}
		if err := tab.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		v := datum.NewVec(datum.KindString, 256)
		if err := tab.FillColumnRange(nil, 0, 0, 256, v); err != nil {
			t.Fatal(err)
		}
		c := tab.store.cache
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.size
	}
	narrow := charge(1)
	wide := charge(400)
	if narrow <= 0 || wide <= 0 {
		t.Fatalf("no cache charge recorded: narrow=%d wide=%d", narrow, wide)
	}
	// 400x the payload must charge at least 10x — flat per-row charges fail.
	if wide < 10*narrow {
		t.Fatalf("cache charge does not scale with payload: narrow=%d wide=%d", narrow, wide)
	}
}

// TestDictCacheCharge: a dictionary-encoded cached column charges codes plus
// one copy of the dictionary, not the materialized strings — the whole point
// of caching the encoded form.
func TestDictCacheCharge(t *testing.T) {
	dir := t.TempDir()
	s := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 1024})
	tab, err := s.CreateTable(oneStrCol("dcc"))
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("metropolitan-", 10)
	rows := make([]datum.Row, 1024)
	for i := range rows {
		rows[i] = datum.Row{datum.NewString(fmt.Sprintf("%s%d", long, i%3))}
	}
	if err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if reprs := reprsOf(tab, 0); reprs[0] != reprDict {
		t.Fatalf("repr = %d, want dict", reprs[0])
	}
	v := datum.NewVec(datum.KindString, 1024)
	if err := tab.FillColumnRange(nil, 0, 0, 1024, v); err != nil {
		t.Fatal(err)
	}
	c := tab.store.cache
	c.mu.Lock()
	size := c.size
	c.mu.Unlock()
	materialized := int64(1024 * (16 + len(long) + 1))
	if size >= materialized/4 {
		t.Fatalf("dict column charged %d bytes, want well under materialized %d", size, materialized)
	}
}

// TestDictInternedByEncoding: a dictionary block whose encoded dictionary a
// table decoded before gets the interned *StrDict back without building a
// string, whatever its codes; another value set gets its own dictionary.
func TestDictInternedByEncoding(t *testing.T) {
	block := func(vals ...string) []byte {
		v := datum.NewVec(datum.KindString, len(vals))
		for _, s := range vals {
			v.AppendD(datum.NewString(s))
		}
		dict, codes, ok := buildDict(v)
		if !ok {
			t.Fatal("no dictionary")
		}
		var buf bytes.Buffer
		encodeDict(&buf, v, dict, codes)
		return buf.Bytes()
	}
	a := block("alpha", "bravo", "alpha", "charlie")
	b := block("charlie", "charlie", "bravo", "alpha")
	c := block("alpha", "delta", "alpha", "charlie")
	var ds dictSet
	decode := func(blk []byte, ds *dictSet) *datum.Vec {
		v, err := decodeColumn(blk, 4, ds)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	va := decode(a, &ds)
	if vb := decode(b, &ds); vb.Dict != va.Dict || vb.D(0).Str() != "charlie" {
		t.Errorf("same value set: dictionary %p vs %p, row 0 %v", vb.Dict, va.Dict, vb.D(0))
	}
	if vc := decode(c, &ds); vc.Dict == va.Dict || vc.D(1).Str() != "delta" {
		t.Errorf("another value set shares the dictionary, row 1 %v", vc.D(1))
	}
	fresh := testing.AllocsPerRun(20, func() { decode(a, &dictSet{}) })
	interned := testing.AllocsPerRun(20, func() { decode(a, &ds) })
	// Fresh: the map, its key, the StrDict, its Vals and three strings.
	if interned > fresh-5 {
		t.Errorf("decoding an interned dictionary block: %.0f allocations, %.0f with a fresh set", interned, fresh)
	}
}
