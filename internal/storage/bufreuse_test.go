package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// churnDef is a table of eight columns of four kinds, so that concurrent
// readers of different columns read blocks of different shapes.
func churnDef() *catalog.Table {
	def := &catalog.Table{Name: "churn"}
	for i, k := range []datum.Kind{datum.KindInt, datum.KindFloat, datum.KindString, datum.KindBool} {
		def.Cols = append(def.Cols,
			catalog.Column{Name: fmt.Sprintf("a%d", i), Kind: k},
			catalog.Column{Name: fmt.Sprintf("b%d", i), Kind: k})
	}
	return def
}

func churnRows(n int, seed int64) []datum.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]datum.Row, n)
	for i := range rows {
		r := make(datum.Row, 8)
		for c := 0; c < 8; c += 2 {
			switch c / 2 {
			case 0:
				r[c], r[c+1] = datum.NewInt(rng.Int63n(1<<40)), datum.NewInt(int64(i))
			case 1:
				r[c], r[c+1] = datum.NewFloat(rng.NormFloat64()), datum.NewFloat(float64(i)/3)
			case 2:
				r[c], r[c+1] = datum.NewString(strings.Repeat("x", rng.Intn(20))), datum.NewString(fmt.Sprint(i))
			case 3:
				r[c], r[c+1] = datum.NewBool(rng.Intn(2) == 0), datum.NewBool(i%3 == 0)
			}
		}
		if rng.Intn(10) == 0 {
			r[rng.Intn(8)] = datum.Null
		}
		rows[i] = r
	}
	return rows
}

// TestReusedBufferNeverHeld: goroutines read different columns of a disk
// table through a cache smaller than one block, so every miss evicts the
// entries the other readers may be decoding from and reuses their buffers.
// What each reads must equal the same table without a directory, whose
// columns are pinned; under -race a buffer reused while a reader pins it is
// also a reported race.
func TestReusedBufferNeverHeld(t *testing.T) {
	const n, segRows = 8 * 512, 512
	rows := churnRows(n, 7)
	disk, err := NewStoreWith(StoreConfig{Dir: t.TempDir(), SegmentRows: segRows, CacheBytes: 1}).CreateTable(churnDef())
	if err != nil {
		t.Fatal(err)
	}
	pinned := NewStoreWith(StoreConfig{SegmentRows: segRows}).newTable(churnDef())
	for _, tab := range []*Table{disk, pinned} {
		if err := tab.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	read := func(tab *Table, ord int, rng *rand.Rand) ([]datum.Row, error) {
		v := datum.NewVec(tab.Def.Cols[ord].Kind, n)
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(700))
			if err := tab.FillColumnRange(&ScanCtx{}, ord, lo, hi, v); err != nil {
				return nil, err
			}
			lo = hi
		}
		ids := make([]int, 0, n/3)
		for id := 0; id < n; id += 1 + rng.Intn(5) {
			ids = append(ids, id)
		}
		if err := tab.FillColumnIDs(&ScanCtx{}, ord, ids, v); err != nil {
			return nil, err
		}
		return vecRows(v), nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(churnDef().Cols))
	for ord := range errs {
		wg.Add(1)
		go func(ord int) {
			defer wg.Done()
			for round := 0; round < 4 && errs[ord] == nil; round++ {
				seed := int64(ord*10 + round)
				want, err := read(pinned, ord, rand.New(rand.NewSource(seed)))
				if err != nil {
					errs[ord] = err
					return
				}
				got, err := read(disk, ord, rand.New(rand.NewSource(seed)))
				if err != nil {
					errs[ord] = fmt.Errorf("column %d round %d: %w", ord, round, err)
					return
				}
				if len(got) != len(want) {
					errs[ord] = fmt.Errorf("column %d round %d: %d values, want %d", ord, round, len(got), len(want))
					return
				}
				for i := range want {
					if datum.Compare(got[i][0], want[i][0]) != 0 {
						errs[ord] = fmt.Errorf("column %d round %d value %d: %v, want %v", ord, round, i, got[i][0], want[i][0])
						return
					}
				}
			}
		}(ord)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// floatColumn loads n rows of one FLOAT column in 4096-row segments behind a
// 16 KiB block cache, below one 32 KiB block: a scan reads each block once,
// holds it encoded, and evicts it with the next.
func floatColumn(tb testing.TB, n int) *Table {
	tb.Helper()
	tab, err := NewStoreWith(StoreConfig{Dir: tb.TempDir(), SegmentRows: 4096, CacheBytes: 16 << 10}).
		CreateTable(&catalog.Table{Name: "f", Cols: []catalog.Column{{Name: "f", Kind: datum.KindFloat}}})
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([]datum.Row, n)
	for i := range rows {
		rows[i] = datum.Row{datum.NewFloat(float64(i) / 7)}
	}
	if err := tab.InsertBatch(rows); err != nil {
		tb.Fatal(err)
	}
	return tab
}

// scanMorsels fills column 0 of tab by 1024-row morsels into v and returns
// what the reads counted.
func scanMorsels(tb testing.TB, tab *Table, v *datum.Vec) ReadStats {
	sc := &ScanCtx{}
	for lo, n := 0, tab.RowCount(); lo < n; lo += 1024 {
		v.Reset(datum.KindFloat)
		if err := tab.FillColumnRange(sc, 0, lo, min(n, lo+1024), v); err != nil {
			tb.Fatal(err)
		}
	}
	return sc.ReadStats
}

// TestChurningScanReusesBuffers: once the free list is warm, a scan through
// a cache below one block reads every block into a recycled buffer, so it
// allocates a small fraction of the bytes it reads.
func TestChurningScanReusesBuffers(t *testing.T) {
	tab := floatColumn(t, 16*4096)
	v := datum.NewVec(datum.KindFloat, 1024)
	scanMorsels(t, tab, v)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rs := scanMorsels(t, tab, v)
	runtime.ReadMemStats(&after)
	misses := rs.BlocksPlain + rs.BlocksDict + rs.BlocksRLE
	if misses != 16 || rs.BlockHits != 3*16 {
		t.Fatalf("second scan %+v: want 16 misses, each hit by the next 3 morsels", rs)
	}
	perMiss := int64(after.TotalAlloc-before.TotalAlloc) / misses
	blockLen := rs.BytesRead / misses
	if perMiss > blockLen/8 {
		t.Fatalf("a miss allocates %d bytes for a %d-byte block; want under 1/8 of it", perMiss, blockLen)
	}
}

// BenchmarkChurningScan times one full scan, by morsel, of a 16-segment
// FLOAT column through a block cache below one block: each block is a miss,
// a pread into a recycled buffer, then four morsel decodes.
func BenchmarkChurningScan(b *testing.B) {
	tab := floatColumn(b, 16*4096)
	v := datum.NewVec(datum.KindFloat, 1024)
	scanMorsels(b, tab, v)
	b.ReportAllocs()
	b.SetBytes(16 * 4096 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanMorsels(b, tab, v)
	}
}

// openSegFiles lists the files under dir that this process holds open, from
// the links in /proc/self/fd.
func openSegFiles(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to count open files with")
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			open = append(open, strings.TrimPrefix(target, dir))
		}
	}
	return open
}

// TestSegmentFilesClosed: reads keep segment files open; SortBy closes the
// files of the generation it replaces, and Store.Close closes the rest.
func TestSegmentFilesClosed(t *testing.T) {
	dir := t.TempDir()
	s := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8})
	tab, err := s.CreateTable(wideDef("fc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertBatch(randWideRows(40, 3)); err != nil {
		t.Fatal(err)
	}
	mustRows(t, tab)
	if open := openSegFiles(t, dir); len(open) != 5 {
		t.Fatalf("after a scan of 5 segments %d files are open: %v", len(open), open)
	}
	if err := tab.SortBy([]datum.SortSpec{{Col: 0}}); err != nil {
		t.Fatal(err)
	}
	mustRows(t, tab)
	open := openSegFiles(t, dir)
	for _, f := range open {
		if strings.Contains(f, segFileName(0, 0)[:len("seg-000000-")]) {
			t.Errorf("after SortBy the old generation's %s is still open", f)
		}
	}
	if len(open) != 5 {
		t.Errorf("after SortBy and a scan %d files are open, want the new generation's 5: %v", len(open), open)
	}
	s.Close()
	if open := openSegFiles(t, dir); len(open) != 0 {
		t.Errorf("after Close %d files are open: %v", len(open), open)
	}
}
