package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// corruptDef covers every block representation the format can write: typed
// int (with NULLs), float, string and bool blocks, plus a mixed-kind column
// that forces the boxed representation.
func corruptDef(name string) *catalog.Table {
	return &catalog.Table{
		Name: name,
		Cols: []catalog.Column{
			{Name: "i", Kind: datum.KindInt},
			{Name: "f", Kind: datum.KindFloat},
			{Name: "s", Kind: datum.KindString},
			{Name: "b", Kind: datum.KindBool},
			{Name: "m", Kind: datum.KindInt}, // mixed int/float → boxed block
		},
	}
}

func corruptRows(n int) []datum.Row {
	rows := make([]datum.Row, n)
	for i := range rows {
		r := datum.Row{
			datum.NewInt(int64(i * 3)),
			datum.NewFloat(float64(i) * 0.25),
			datum.NewString(string(rune('a' + i%26))),
			datum.NewBool(i%2 == 0),
			datum.NewInt(int64(i)),
		}
		if i%4 == 0 {
			r[0] = datum.Null // NULLs in column i → a bitmap to corrupt
		}
		if i%2 == 1 {
			r[4] = datum.NewFloat(float64(i) + 0.5) // mixed kinds → boxed
		}
		rows[i] = r
	}
	return rows
}

// footerZoneOffset walks the encoded footer to the first byte of a zone-map
// min datum, returning its offset within the file, or -1.
func footerZoneOffset(raw []byte) int64 {
	tail := len(segMagic) + 8
	footerLen := int(binary.LittleEndian.Uint32(raw[len(raw)-tail+4 : len(raw)-len(segMagic)]))
	footerOff := len(raw) - tail - footerLen
	r := &byteReader{b: raw[footerOff : footerOff+footerLen]}
	if _, err := r.uvarint(); err != nil {
		return -1
	}
	ncols, err := r.uvarint()
	if err != nil {
		return -1
	}
	for ci := 0; ci < int(ncols); ci++ {
		r.off += 2 // repr, kind
		r.uvarint()
		r.uvarint()
		r.take(4)
		r.uvarint()
		hz, err := r.ReadByte()
		if err != nil {
			return -1
		}
		if hz != 0 {
			return int64(footerOff + r.off) // first byte of the min datum
		}
		r.take(sketchBytes)
	}
	return -1
}

// TestCorruptionMatrix bit-flips one byte in every region class of a segment
// file — magic, footer, zone map, NULL bitmap, and each column-block kind —
// and asserts ScrubDir reports exactly that corruption with correct
// coordinates while the unaffected segments still serve reads.
func TestCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()
	s := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8})
	tab, err := s.CreateTable(corruptDef("cm"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertBatch(corruptRows(24)); err != nil { // 3 segments
		t.Fatal(err)
	}
	const victim = 1 // corrupt the middle segment; 0 and 2 must keep serving
	path := filepath.Join(dir, "cm", segFileName(0, victim))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := decodeFooter(orig, path)
	if err != nil {
		t.Fatal(err)
	}
	blockFlip := func(cm *colMeta, delta int64) int64 { return cm.off + delta }
	cases := []struct {
		name   string
		offset int64
		region string
		column int
	}{
		// The flip hits the first magic byte: flipping the last one would turn
		// the version digit '3' into '2' — a still-accepted older version.
		{"magic", int64(len(orig) - len(segMagic)), RegionMagic, -1},
		{"footer-rows", 0, RegionFooter, -1}, // offset computed below
		{"zone-map", footerZoneOffset(orig), RegionFooter, -1},
		{"null-bitmap", blockFlip(&sm.cols[0], 4), RegionBlock, 0}, // repr+kind+uvarint(n)+uvarint(nn) → bitmap
		{"int-block", blockFlip(&sm.cols[0], sm.cols[0].blockLen-1), RegionBlock, 0},
		{"float-block", blockFlip(&sm.cols[1], sm.cols[1].blockLen-1), RegionBlock, 1},
		{"string-block", blockFlip(&sm.cols[2], sm.cols[2].blockLen-1), RegionBlock, 2},
		{"bool-block", blockFlip(&sm.cols[3], sm.cols[3].blockLen-1), RegionBlock, 3},
		{"boxed-block", blockFlip(&sm.cols[4], sm.cols[4].blockLen-1), RegionBlock, 4},
	}
	// footer-rows: first byte of the footer (the rows uvarint).
	tail := int64(len(segMagic) + 8)
	footerLen := int64(binary.LittleEndian.Uint32(orig[int64(len(orig))-tail+4 : len(orig)-len(segMagic)]))
	cases[1].offset = int64(len(orig)) - tail - footerLen

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.offset < 0 || tc.offset >= int64(len(orig)) {
				t.Fatalf("bad flip offset %d", tc.offset)
			}
			mut := append([]byte(nil), orig...)
			mut[tc.offset] ^= 0x01
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			found, err := ScrubDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(found) != 1 {
				t.Fatalf("scrub found %d corruptions, want exactly 1: %v", len(found), found)
			}
			ce := found[0]
			if ce.Table != "cm" || ce.Segment != victim {
				t.Fatalf("corruption located at table %q segment %d, want cm/%d", ce.Table, ce.Segment, victim)
			}
			if ce.Region != tc.region || ce.Column != tc.column {
				t.Fatalf("corruption classified as (%s, col %d), want (%s, col %d): %v",
					ce.Region, ce.Column, tc.region, tc.column, ce)
			}
			// A fresh store over the damaged directory soft-adopts the victim:
			// its neighbors still serve their full row ranges.
			s2 := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8})
			tab2, err := s2.CreateTable(corruptDef("cm"))
			if err != nil {
				t.Fatalf("open with damaged segment: %v", err)
			}
			if rows, err := tab2.RowsRange(nil, 0, 8); err != nil || len(rows) != 8 {
				t.Fatalf("segment 0 should serve: rows=%d err=%v", len(rows), err)
			}
			if rows, err := tab2.RowsRange(nil, 16, 24); err != nil || len(rows) != 8 {
				t.Fatalf("segment 2 should serve: rows=%d err=%v", len(rows), err)
			}
			if _, err := tab2.RowsRange(nil, 8, 16); err == nil {
				t.Fatal("reading the damaged segment should fail")
			}
			// The live store's Scrub agrees with the offline ScrubDir.
			live := s2.Scrub()
			if len(live) != 1 || live[0].Region != tc.region || live[0].Column != tc.column {
				t.Fatalf("live Scrub = %v, want one (%s, col %d)", live, tc.region, tc.column)
			}
		})
	}
	// With the original bytes restored, everything scrubs clean again.
	if found, err := ScrubDir(dir); err != nil || len(found) != 0 {
		t.Fatalf("restored directory should scrub clean: %v %v", found, err)
	}
}

// TestCorruptionMatrixEncoded extends the byte-flip matrix to the compressed
// block representations: a dictionary-encoded string column and a run-length
// encoded int column, each flipped both near the block header (dictionary
// entries / run headers) and at the block tail (codes / last run). Scrub must
// localize every flip to (RegionBlock, exact column) on the exact segment.
func TestCorruptionMatrixEncoded(t *testing.T) {
	dir := t.TempDir()
	s := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 64})
	def := &catalog.Table{Name: "ce", Cols: []catalog.Column{
		{Name: "d", Kind: datum.KindString}, // 4 values alternating → dict
		{Name: "r", Kind: datum.KindInt},    // constant → one run
	}}
	tab, err := s.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"ogdenville", "north-haverbrook", "shelbyville", "capital-city"}
	rows := make([]datum.Row, 192) // 3 segments of 64
	for i := range rows {
		rows[i] = datum.Row{datum.NewString(cities[i%len(cities)]), datum.NewInt(7)}
	}
	if err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	const victim = 1
	path := filepath.Join(dir, "ce", segFileName(0, victim))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := decodeFooter(orig, path)
	if err != nil {
		t.Fatal(err)
	}
	if sm.cols[0].repr != reprDict || sm.cols[1].repr != reprRLE {
		t.Fatalf("reprs = %d,%d, want dict,rle", sm.cols[0].repr, sm.cols[1].repr)
	}
	cases := []struct {
		name   string
		offset int64
		column int
	}{
		// +4 lands just past repr+kind+uvarint(n)+uvarint(numNulls): the
		// dictionary entry table / the first run header.
		{"dict-block-header", sm.cols[0].off + 4, 0},
		{"dict-block-codes", sm.cols[0].off + sm.cols[0].blockLen - 1, 0},
		{"run-block-header", sm.cols[1].off + 4, 1},
		{"run-block-tail", sm.cols[1].off + sm.cols[1].blockLen - 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := append([]byte(nil), orig...)
			mut[tc.offset] ^= 0x01
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			found, err := ScrubDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(found) != 1 {
				t.Fatalf("scrub found %d corruptions, want exactly 1: %v", len(found), found)
			}
			ce := found[0]
			if ce.Table != "ce" || ce.Segment != victim || ce.Region != RegionBlock || ce.Column != tc.column {
				t.Fatalf("corruption located at (%s, seg %d, %s, col %d), want (ce, %d, %s, col %d)",
					ce.Table, ce.Segment, ce.Region, ce.Column, victim, RegionBlock, tc.column)
			}
			// Neighbors still serve; the damaged segment refuses reads.
			s2 := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 64})
			tab2, err := s2.CreateTable(def)
			if err != nil {
				t.Fatalf("open with damaged segment: %v", err)
			}
			if got, err := tab2.RowsRange(nil, 0, 64); err != nil || len(got) != 64 {
				t.Fatalf("segment 0 should serve: rows=%d err=%v", len(got), err)
			}
			if _, err := tab2.RowsRange(nil, 64, 128); err == nil {
				t.Fatal("reading the damaged segment should fail")
			}
		})
	}
	if found, err := ScrubDir(dir); err != nil || len(found) != 0 {
		t.Fatalf("restored directory should scrub clean: %v %v", found, err)
	}
}

// TestCorruptValuesPassingCRC: a block whose checksum matches but whose
// values were written wrong — a dictionary code past the end of its
// dictionary, a varint cut off by the end of its block — fails every read
// that reaches the damage with a typed *CorruptError and its coordinates:
// the read that caches the block, a later read served from the cache (under
// a budget that keeps blocks encoded), and a gather. The neighbor segment
// keeps serving.
func TestCorruptValuesPassingCRC(t *testing.T) {
	for _, budget := range []int64{1, 0} {
		dir := t.TempDir()
		s := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 512, CacheBytes: budget})
		tab, err := s.CreateTable(&catalog.Table{Name: "cv", Cols: []catalog.Column{
			{Name: "d", Kind: datum.KindString}, {Name: "i", Kind: datum.KindInt}}})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]datum.Row, 1024)
		for i := range rows {
			rows[i] = datum.Row{datum.NewString([]string{"ant", "bee", "cat"}[i%3]), datum.NewInt(int64(i % 50))}
		}
		if err := tab.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "cv", segFileName(0, 1))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sm := &tab.seg.segs[1]
		if sm.cols[0].repr != reprDict || sm.cols[1].repr != reprTyped {
			t.Fatalf("reprs %d, %d, want dictionary and plain", sm.cols[0].repr, sm.cols[1].repr)
		}
		// The last byte of each block is the last row's one-byte value: a
		// code of 127 over a 3-entry dictionary, and a varint whose
		// continuation bit runs past the block. The checksums follow.
		for ord, damage := range []func(byte) byte{func(byte) byte { return 0x7f }, func(b byte) byte { return b | 0x80 }} {
			cm := &sm.cols[ord]
			raw[cm.off+cm.blockLen-1] = damage(raw[cm.off+cm.blockLen-1])
			cm.crc = crc32.Checksum(raw[cm.off:cm.off+cm.blockLen], crcTable)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for ord, col := range tab.Def.Cols {
			for attempt, read := range []func(sc *ScanCtx) error{
				func(sc *ScanCtx) error { return tab.FillColumnRange(sc, ord, 512, 1024, datum.NewVec(col.Kind, 0)) },
				func(sc *ScanCtx) error { return tab.FillColumnRange(sc, ord, 900, 1024, datum.NewVec(col.Kind, 0)) },
				func(sc *ScanCtx) error {
					return tab.FillColumnIDs(sc, ord, []int{520, 1023}, datum.NewVec(col.Kind, 0))
				},
			} {
				sc := &ScanCtx{}
				var ce *CorruptError
				if err := read(sc); !errors.As(err, &ce) || ce.Table != "cv" || ce.Segment != 1 ||
					ce.Region != RegionBlock || ce.Column != ord || ce.Offset != sm.cols[ord].off {
					t.Fatalf("budget %d column %d read %d: got %v, want a block corruption at cv/1 column %d", budget, ord, attempt, err, ord)
				}
				if budget == 1 && attempt > 0 && sc.BlockHits != 1 {
					t.Fatalf("column %d read %d was not served from the cache: %+v", ord, attempt, sc.ReadStats)
				}
			}
			if err := tab.FillColumnRange(nil, ord, 0, 512, datum.NewVec(col.Kind, 0)); err != nil {
				t.Fatalf("segment 0 should serve: %v", err)
			}
		}
	}
}
