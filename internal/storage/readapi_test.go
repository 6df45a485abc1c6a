package storage

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// modes runs f against a store whose sealed segments are pinned in memory
// and against one whose segments are files.
func modes(t *testing.T, segRows int, f func(t *testing.T, s *Store)) {
	t.Helper()
	t.Run("pinned", func(t *testing.T) { f(t, NewStoreWith(StoreConfig{SegmentRows: segRows})) })
	t.Run("files", func(t *testing.T) { f(t, newDiskStore(t, segRows)) })
}

// colRows projects column ord of the rows with the given ids as one-column
// rows, the shape sameRows compares.
func colRows(rows []datum.Row, ord int, ids []int) []datum.Row {
	out := make([]datum.Row, len(ids))
	for i, id := range ids {
		out[i] = datum.Row{rows[id][ord]}
	}
	return out
}

func vecRows(v *datum.Vec) []datum.Row {
	out := make([]datum.Row, v.Len())
	for i := range out {
		out[i] = datum.Row{v.D(i)}
	}
	return out
}

// checkReads drives every read entry point of tab and requires exactly the
// datums of want (floats by bits): whole-table and point reads, range fills,
// id gathers in ascending, shuffled, tail-straddling and segment-hopping
// order, and every declared index.
func checkReads(t *testing.T, tab *Table, want []datum.Row) {
	t.Helper()
	n := len(want)
	sameRows(t, mustRows(t, tab), want)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		id := rng.Intn(n)
		sameRows(t, []datum.Row{mustRow(t, tab, id)}, want[id:id+1])
	}
	for ord, col := range tab.Def.Cols {
		var asc []int
		for i := rng.Intn(3); i < n; i += 1 + rng.Intn(3) {
			asc = append(asc, i)
		}
		shuffled := append([]int(nil), asc...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		straddle := []int{n - 1, 0, min(tab.seg.sealedRows, n-1), max(tab.seg.sealedRows-1, 0)}
		// Round-robin over the segments (and the tail): every id lies in
		// another segment than the one before it, so each gather run is one
		// element long.
		var hop []int
		for k := 0; k < tab.seg.segRows; k++ {
			for id := k; id < n; id += tab.seg.segRows {
				hop = append(hop, id)
			}
		}
		for _, ids := range [][]int{asc, shuffled, straddle, hop} {
			v := datum.NewVec(col.Kind, 0)
			if err := tab.FillColumnIDs(nil, ord, ids, v); err != nil {
				t.Fatal(err)
			}
			sameRows(t, vecRows(v), colRows(want, ord, ids))
		}
		for trial := 0; trial < 12; trial++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			v := datum.NewVec(col.Kind, 0)
			if err := tab.FillColumnRange(nil, ord, lo, hi, v); err != nil {
				t.Fatal(err)
			}
			sameRows(t, vecRows(v), colRows(want[lo:hi], ord, seq(hi-lo)))
		}
	}
	for _, def := range tab.Def.Indexes {
		ix, err := tab.Index(nil, def.Name)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Len() != n {
			t.Fatalf("index %s has %d entries, want %d", def.Name, ix.Len(), n)
		}
		for i := 0; i < n; i++ {
			key, id := indexEntry(ix, i)
			for j, ord := range def.Cols {
				sameRows(t, []datum.Row{{key[j]}}, colRows(want, ord, []int{id}))
			}
			if i > 0 {
				if prev, prevID := indexEntry(ix, i-1); cmpEntries(prev, prevID, key, id) >= 0 {
					t.Fatalf("index %s out of order at %d", def.Name, i)
				}
			}
		}
	}
}

func seq(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// snapshot renders what the optimizer and the pruner see of the first nseg
// sealed segments; it must not depend on whether the segments have files.
func snapshot(tab *Table, preds []ZonePred, nseg int) string {
	s := fmt.Sprint(tab.SegmentLayout()[:nseg], tab.SegmentDispositions(preds)[:nseg])
	for si := 0; si < nseg; si++ {
		s += fmt.Sprint(reprsOf(tab, si))
	}
	return s
}

// TestReadAPIBothModes: the same rows loaded into a table with pinned
// segments and into one with segment files read back identically through
// every entry point, before and after SortBy re-seals them in key order, and
// both tables expose the same layout, pages, footer statistics, block
// encodings and zone dispositions.
func TestReadAPIBothModes(t *testing.T) {
	floatDef := &catalog.Table{Name: "sf", Cols: []catalog.Column{{Name: "f", Kind: datum.KindFloat}}}
	var floats []datum.Row
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5} {
		floats = append(floats, datum.Row{datum.NewFloat(f)})
	}
	// An INT column holding floats (legal via numeric coercion) forces the
	// boxed per-datum encoding; kinds must survive exactly.
	boxedDef := &catalog.Table{Name: "bx", Cols: []catalog.Column{{Name: "n", Kind: datum.KindInt}},
		Indexes: []*catalog.Index{{Name: "bx_n", Cols: []int{0}}}}
	boxed := []datum.Row{{datum.NewInt(1)}, {datum.NewFloat(2.5)}, {datum.Null}, {datum.NewInt(-7)}, {datum.NewFloat(0.5)}}
	wide := wideDef("rt")
	wide.Indexes = []*catalog.Index{{Name: "rt_i", Cols: []int{0}}, {Name: "rt_si", Cols: []int{2, 0}}}
	for _, tc := range []struct {
		name    string
		def     *catalog.Table
		segRows int
		rows    []datum.Row
	}{
		{"all-kinds", wide, 16, randWideRows(100, 7)}, // 6 segments + 4-row tail
		{"special-floats", floatDef, 4, floats},
		{"boxed", boxedDef, 4, boxed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sorted := append([]datum.Row(nil), tc.rows...)
			spec := []datum.SortSpec{{Col: 0}}
			sort.SliceStable(sorted, func(i, j int) bool { return datum.CompareRows(sorted[i], sorted[j], spec) < 0 })
			// col0 > median: once sorted, the leading segments cannot match.
			preds := []ZonePred{{Ord: 0, Form: ZoneCmp, Op: ZoneGt, C: sorted[len(sorted)/2][0]}}
			nseg := len(tc.rows) / tc.segRows
			var before, after []string
			var firstDisp, sortedDisp []ZoneDisp // of the last mode run; the snapshots tie the modes together
			modes(t, tc.segRows, func(t *testing.T, s *Store) {
				tab, err := s.CreateTable(tc.def)
				if err != nil {
					t.Fatal(err)
				}
				if err := tab.InsertBatch(tc.rows); err != nil {
					t.Fatal(err)
				}
				// The tail must sit on its own array: a reslice of the old one
				// keeps every sealed row reachable.
				if len(tab.seg.segs) != nseg || cap(tab.rows) > 2*len(tab.rows) {
					t.Fatalf("after seal: %d segments, %d tail rows on a %d-slot array", len(tab.seg.segs), len(tab.rows), cap(tab.rows))
				}
				checkReads(t, tab, tc.rows)
				rows, total, pages, cols, _ := tab.SegmentStats()
				before = append(before, snapshot(tab, preds, nseg)+fmt.Sprint(tab.PageCount(), rows, total, pages, cols))
				firstDisp = tab.SegmentDispositions(preds)
				if err := tab.SortBy(spec); err != nil {
					t.Fatal(err)
				}
				if cap(tab.rows) > 2*len(tab.rows) {
					t.Fatalf("after SortBy: %d tail rows on a %d-slot array", len(tab.rows), cap(tab.rows))
				}
				checkReads(t, tab, sorted)
				// Exactly the new generation's files remain — no leftovers.
				if files, _ := filepath.Glob(filepath.Join(tab.seg.dir, "seg-*.seg")); tab.seg.dir != "" && len(files) != len(tab.seg.segs) {
					t.Fatalf("%d files for %d segments", len(files), len(tab.seg.segs))
				}
				// With a directory the rewrite also seals the remainder (it
				// must stay durable); the full segments must still agree.
				after = append(after, snapshot(tab, preds, nseg))
				sortedDisp = tab.SegmentDispositions(preds)
			})
			if before[0] != before[1] || after[0] != after[1] {
				t.Errorf("sealed state differs between modes:\npinned %s -> %s\nfiles  %s -> %s", before[0], after[0], before[1], after[1])
			}
			// Pruning a NaN segment (ZoneNone) would lose rows, ZoneAll would
			// skip the filter.
			if tc.name == "special-floats" && firstDisp[0] != ZoneSome {
				t.Errorf("disp over NaN segment = %v, want ZoneSome", firstDisp[0])
			}
			if tc.name == "all-kinds" && !slices.Contains(sortedDisp, ZoneNone) {
				t.Errorf("clustered re-seal prunes nothing for %v: %v", preds[0].C, sortedDisp)
			}
		})
	}
}
