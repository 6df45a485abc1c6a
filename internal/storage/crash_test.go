package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/faultfs"
)

// crashOps is every durability-relevant injection site of the write path, in
// protocol order. The matrix below kills each one at every occurrence.
var crashOps = []string{
	"segment.create", "segment.write", "segment.writefile",
	"segment.fsync", "segment.rename", "dir.fsync",
	"manifest.append", "manifest.fsync",
}

// diskState captures the manifest-visible on-disk state of one table: the
// generation plus the exact bytes of every adopted segment file. Two equal
// states are bit-identical in everything the manifest publishes.
func diskState(t *testing.T, dir, table string) (int, map[string][]byte) {
	t.Helper()
	ms, _, err := replayManifest(filepath.Join(dir, table, manifestName), false)
	if err != nil {
		t.Fatalf("replaying manifest of %s: %v", table, err)
	}
	files := make(map[string][]byte, len(ms.entries))
	for _, e := range ms.entries {
		raw, err := os.ReadFile(filepath.Join(dir, table, e.file))
		if err != nil {
			t.Fatalf("reading %s: %v", e.file, err)
		}
		files[e.file] = raw
	}
	return ms.gen, files
}

func sameDiskState(genA int, a map[string][]byte, genB int, b map[string][]byte) bool {
	if genA != genB || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(b[k], v) {
			return false
		}
	}
	return true
}

// runCrashMatrix drives one scenario through every crash point: a dry run
// counts how often each fault site fires during the operation (on top of an
// identical setup), then each (site, occurrence) pair — plus a torn-write
// variant at the sites that support one — gets a fresh directory, a
// simulated crash at exactly that point, a reopen, and the assertion that
// the recovered state is bit-identical to the pre-operation or
// post-operation reference, never a hybrid, with a clean scrub.
func runCrashMatrix(t *testing.T, setup, op func(*Table) error) {
	mk := func(dir string, in *faultfs.Injector) *Table {
		t.Helper()
		s := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8, Faults: in})
		tab, err := s.CreateTable(wideDef("t"))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	preDir, postDir := t.TempDir(), t.TempDir()
	preTab := mk(preDir, nil)
	if err := setup(preTab); err != nil {
		t.Fatal(err)
	}
	preGen, preFiles := diskState(t, preDir, "t")
	postTab := mk(postDir, nil)
	if err := setup(postTab); err != nil {
		t.Fatal(err)
	}
	if err := op(postTab); err != nil {
		t.Fatal(err)
	}
	postGen, postFiles := diskState(t, postDir, "t")

	// Dry run: count per-site occurrences during setup and operation.
	counter := faultfs.New()
	dryTab := mk(t.TempDir(), counter)
	if err := setup(dryTab); err != nil {
		t.Fatal(err)
	}
	base := make(map[string]int64, len(crashOps))
	for _, site := range crashOps {
		base[site] = counter.Count(site)
	}
	if err := op(dryTab); err != nil {
		t.Fatal(err)
	}

	points := 0
	for _, site := range crashOps {
		delta := counter.Count(site) - base[site]
		variants := []bool{false}
		if site == "segment.writefile" || site == "manifest.append" {
			variants = []bool{false, true} // clean kill and torn write
		}
		for k := int64(1); k <= delta; k++ {
			for _, partial := range variants {
				points++
				dir := t.TempDir()
				inj := faultfs.New(faultfs.Rule{Op: site, After: base[site] + k, Partial: partial})
				tab := mk(dir, inj)
				if err := setup(tab); err != nil {
					t.Fatalf("%s#%d: setup tripped the crash rule early: %v", site, k, err)
				}
				if err := op(tab); err == nil {
					t.Fatalf("%s#%d: injected crash did not surface", site, k)
				}
				// The process "died"; reopen the directory fault-free.
				s2 := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8})
				if _, err := s2.CreateTable(wideDef("t")); err != nil {
					t.Fatalf("%s#%d (partial=%v): recovery failed: %v", site, k, partial, err)
				}
				gen, files := diskState(t, dir, "t")
				isPre := sameDiskState(gen, files, preGen, preFiles)
				isPost := sameDiskState(gen, files, postGen, postFiles)
				if !isPre && !isPost {
					t.Fatalf("%s#%d (partial=%v): recovered state (gen %d, %d segs) is neither pre (gen %d, %d) nor post (gen %d, %d)",
						site, k, partial, gen, len(files), preGen, len(preFiles), postGen, len(postFiles))
				}
				if found := s2.Scrub(); len(found) != 0 {
					t.Fatalf("%s#%d (partial=%v): scrub after recovery: %v", site, k, partial, found[0])
				}
			}
		}
	}
	if points == 0 {
		t.Fatal("scenario exercised no crash points")
	}
	t.Logf("crash matrix: %d kill points, all recovered to pre or post state", points)
}

// TestCrashMatrixInsertBatch kills a batch insert that seals two full
// segments at every injection point.
func TestCrashMatrixInsertBatch(t *testing.T) {
	setup := func(tab *Table) error { return tab.InsertBatch(randWideRows(8, 1)) }
	op := func(tab *Table) error { return tab.InsertBatch(randWideRows(20, 2)) }
	runCrashMatrix(t, setup, op)
}

// TestCrashMatrixFlush kills a tail flush at every injection point.
func TestCrashMatrixFlush(t *testing.T) {
	setup := func(tab *Table) error {
		if err := tab.InsertBatch(randWideRows(8, 3)); err != nil {
			return err
		}
		return tab.InsertBatch(randWideRows(5, 4))
	}
	op := func(tab *Table) error { return tab.Flush() }
	runCrashMatrix(t, setup, op)
}

// TestCrashMatrixSortBy kills the clustered rewrite — the generation switch
// — at every injection point. Either the old generation keeps serving or the
// new one is fully adopted.
func TestCrashMatrixSortBy(t *testing.T) {
	setup := func(tab *Table) error { return tab.InsertBatch(randWideRows(16, 5)) }
	op := func(tab *Table) error { return tab.SortBy([]datum.SortSpec{{Col: 0}}) }
	runCrashMatrix(t, setup, op)
}

// TestCrashMatrixSortByShortSegment kills the rewrite of a table whose
// durable state includes a Flushed short segment — rows the switch record
// must not orphan. Recovery must land on exactly the old state (8-row plus
// 5-row segments) or the new one (the same 13 rows re-sealed sorted).
func TestCrashMatrixSortByShortSegment(t *testing.T) {
	setup := func(tab *Table) error {
		if err := tab.InsertBatch(randWideRows(8, 21)); err != nil {
			return err
		}
		if err := tab.InsertBatch(randWideRows(5, 22)); err != nil {
			return err
		}
		return tab.Flush()
	}
	op := func(tab *Table) error { return tab.SortBy([]datum.SortSpec{{Col: 0}}) }
	runCrashMatrix(t, setup, op)
}

// TestSortByPreservesFlushedRows is the regression test for SortBy's
// durability contract: rows made durable by Flush must still be durable after
// SortBy plus a reopen. The old rewrite sealed only full segRows chunks and
// moved the remainder back to the volatile tail while deleting the old
// generation's files, so 20 flushed rows reopened as 16.
func TestSortByPreservesFlushedRows(t *testing.T) {
	dir := t.TempDir()
	s := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8})
	tab, err := s.CreateTable(wideDef("t"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertBatch(randWideRows(20, 23)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tab.SortBy([]datum.SortSpec{{Col: 0}}); err != nil {
		t.Fatal(err)
	}
	want, err := tab.Rows(nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8})
	tab2, err := s2.CreateTable(wideDef("t"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tab2.RowCount(); got != 20 {
		t.Fatalf("reopened after SortBy: RowCount = %d, want 20", got)
	}
	got, err := tab2.Rows(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want)
}

// TestReplayDiscardsRecordAtomically: a CRC-valid record with a malformed
// later entry must be discarded whole — replay must not fold its earlier,
// well-formed entries into the adopted state while truncating the record
// itself away as tail damage.
func TestReplayDiscardsRecordAtomically(t *testing.T) {
	dir := t.TempDir()
	good := manEntry{file: "seg-000000-000000.seg", id: 0, rows: 8, bytes: 128, crc: 0xdeadbeef}
	rec1 := frameRecord("add " + good.String())
	bad := manEntry{file: "seg-000000-000001.seg", id: 1, rows: 8, bytes: 128, crc: 0xfeedface}
	rec2 := frameRecord("add " + bad.String() + " not-an-entry")
	path := filepath.Join(dir, manifestName)
	if err := os.WriteFile(path, []byte(rec1+rec2), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, truncated, err := replayManifest(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != int64(len(rec2)) {
		t.Fatalf("truncated %d bytes, want %d (the whole rejected record)", truncated, len(rec2))
	}
	if len(ms.entries) != 1 || ms.entries[0] != good {
		t.Fatalf("replay adopted %v, want only the first record's entry", ms.entries)
	}
}

// TestSealFailureLeavesTailConsistent is the regression test for the
// InsertBatch/Flush error-path contract: a failed seal must leave every
// buffered row in the in-memory tail exactly once, so a later Flush (after
// the fault clears) makes them all durable with exact counts.
func TestSealFailureLeavesTailConsistent(t *testing.T) {
	dir := t.TempDir()
	in := faultfs.New(faultfs.Rule{Op: "segment.fsync", After: 1})
	s := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8, Faults: in})
	tab, err := s.CreateTable(wideDef("t"))
	if err != nil {
		t.Fatal(err)
	}
	rows := randWideRows(20, 7)
	if err := tab.InsertBatch(rows); err == nil {
		t.Fatal("InsertBatch should fail on the injected fsync fault")
	}
	if got := tab.RowCount(); got != 20 {
		t.Fatalf("after failed seal: RowCount = %d, want 20 (no dropped or doubled rows)", got)
	}
	// Nothing was adopted: the disk state is still empty.
	if gen, files := diskState(t, dir, "t"); gen != 0 || len(files) != 0 {
		t.Fatalf("failed seal adopted state: gen %d, %d files", gen, len(files))
	}
	// The one-shot fault has fired; the retry must succeed and seal exactly
	// the buffered rows.
	if err := tab.Flush(); err != nil {
		t.Fatalf("re-Flush after cleared fault: %v", err)
	}
	if got := tab.RowCount(); got != 20 {
		t.Fatalf("after re-Flush: RowCount = %d, want 20", got)
	}
	s2 := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8})
	tab2, err := s2.CreateTable(wideDef("t"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tab2.RowCount(); got != 20 {
		t.Fatalf("reopened: RowCount = %d, want 20", got)
	}
	got, err := tab2.Rows(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, rows)
}

// TestTransientFaultRetry: transient faults (faultfs.ErrTransient) are
// retried up to IORetries times on both the write and read paths, while the
// same fault without retries propagates.
func TestTransientFaultRetry(t *testing.T) {
	transient := func() *faultfs.Injector {
		return faultfs.New(faultfs.Rule{Op: "segment.fsync", After: 1, Times: 2, Err: faultfs.ErrTransient})
	}
	// Without retries the first attempt's error propagates.
	s := NewStoreWith(StoreConfig{Dir: t.TempDir(), SegmentRows: 8, Faults: transient()})
	tab, err := s.CreateTable(wideDef("t"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertBatch(randWideRows(8, 11)); !errors.Is(err, faultfs.ErrTransient) {
		t.Fatalf("without retries: got %v, want ErrTransient", err)
	}
	// With IORetries=3 the two transient failures are absorbed.
	s = NewStoreWith(StoreConfig{Dir: t.TempDir(), SegmentRows: 8, Faults: transient(),
		IORetries: 3, IORetryBackoff: time.Microsecond})
	if tab, err = s.CreateTable(wideDef("t")); err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertBatch(randWideRows(8, 11)); err != nil {
		t.Fatalf("with retries: %v", err)
	}
	// Read path: a transient read fault heals under the same policy.
	sc := &ScanCtx{Faults: faultfs.New(faultfs.Rule{Op: "segment.read", After: 1, Times: 1, Err: faultfs.ErrTransient})}
	if _, err := tab.Rows(sc); err != nil {
		t.Fatalf("read with transient fault and retries: %v", err)
	}
	// A permanent fault is never retried: one occurrence, one failure.
	perm := faultfs.New(faultfs.Rule{Op: "segment.read", After: 1})
	sc = &ScanCtx{Faults: perm}
	s.cache = newBlockCache(s.cfg.CacheBytes) // drop cached blocks to force the read
	if _, err := tab.Rows(sc); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("permanent read fault: got %v, want ErrInjected", err)
	}
	if n := perm.Count("segment.read"); n != 1 {
		t.Fatalf("permanent fault was attempted %d times, want 1", n)
	}

	// Manifest sites: a transient failure may leave the record (fsync failed
	// after a full write) or half of it (torn append) on disk. The retried
	// append must truncate that residue away first — otherwise replay adopts
	// the record twice and the table reopens with every row doubled, or trips
	// over torn bytes in the manifest interior and fails to open at all.
	for _, tc := range []struct {
		name string
		rule faultfs.Rule
	}{
		{"manifest.append", faultfs.Rule{Op: "manifest.append", After: 1, Times: 2, Err: faultfs.ErrTransient}},
		{"manifest.append torn", faultfs.Rule{Op: "manifest.append", After: 1, Times: 2, Err: faultfs.ErrTransient, Partial: true}},
		{"manifest.fsync", faultfs.Rule{Op: "manifest.fsync", After: 1, Times: 2, Err: faultfs.ErrTransient}},
	} {
		dir := t.TempDir()
		s := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8, Faults: faultfs.New(tc.rule),
			IORetries: 3, IORetryBackoff: time.Microsecond})
		tab, err := s.CreateTable(wideDef("t"))
		if err != nil {
			t.Fatal(err)
		}
		rows := randWideRows(8, 13)
		if err := tab.InsertBatch(rows); err != nil {
			t.Fatalf("%s: insert with retries: %v", tc.name, err)
		}
		s2 := NewStoreWith(StoreConfig{Dir: dir, SegmentRows: 8})
		tab2, err := s2.CreateTable(wideDef("t"))
		if err != nil {
			t.Fatalf("%s: reopen after retried append: %v", tc.name, err)
		}
		if got := tab2.RowCount(); got != 8 {
			t.Fatalf("%s: reopened RowCount = %d, want 8 (record adopted more than once?)", tc.name, got)
		}
		got, err := tab2.Rows(nil)
		if err != nil {
			t.Fatalf("%s: reading reopened rows: %v", tc.name, err)
		}
		sameRows(t, got, rows)
	}
}
