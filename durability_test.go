package queryopt

// durability_test.go proves the crash-consistency layer is invisible to
// query semantics: an engine that reopens a flushed StorageDir — taking the
// recovery path (manifest replay, footer verification, checksum-verified
// block decodes) — must answer the random query corpus bit-identically to an
// in-memory engine over the same seeded data, at every parallelism degree.

import (
	"math/rand"
	"strings"
	"testing"
)

// schemaDDL is the DDL of randSchemaWith, repeated here so a reopened engine
// can re-declare the catalog without re-inserting any rows (the manifest
// already owns the data).
var schemaDDL = []string{
	`CREATE TABLE r (pk INT NOT NULL, fk INT, a INT, s VARCHAR, f FLOAT, PRIMARY KEY (pk))`,
	`CREATE TABLE t (pk INT NOT NULL, fk INT, a INT, s VARCHAR, f FLOAT, PRIMARY KEY (pk))`,
	`CREATE TABLE u (pk INT NOT NULL, a INT, s VARCHAR, PRIMARY KEY (pk))`,
	`CREATE INDEX r_fk ON r (fk)`,
	`CREATE INDEX t_a ON t (a)`,
}

// TestRecoveredEngineEquivalence: load + Flush + Close a disk-backed engine,
// then open a brand-new engine over the same directory and run the corpus
// against it. Every result must match the in-memory engine exactly (floats
// as hex bits) at parallelism 1, 4 and 8, recovery must report a clean
// state, and a full scrub must find nothing.
func TestRecoveredEngineEquivalence(t *testing.T) {
	const trials = 25
	const seed = int64(5)
	for _, par := range []int{1, 4, 8} {
		mem := randSchemaWith(t, Options{Optimizer: SystemR, Parallelism: par}, seed)
		dir := t.TempDir()
		writer := randSchemaWith(t, Options{
			Optimizer: SystemR, Parallelism: par,
			StorageDir: dir, SegmentRows: 32,
		}, seed)
		if err := writer.Flush(); err != nil {
			t.Fatal(err)
		}
		writer.Close()

		e := New(Options{
			Optimizer: SystemR, Parallelism: par,
			StorageDir: dir, SegmentRows: 32,
		})
		for _, ddl := range schemaDDL {
			e.MustExec(ddl)
		}
		reports := e.RecoveryReports()
		if len(reports) != 3 {
			t.Fatalf("par %d: %d recovery reports, want 3", par, len(reports))
		}
		for _, rep := range reports {
			if !rep.Clean() {
				t.Fatalf("par %d: recovery of %s not clean: quarantined=%v truncated=%d corrupt=%v",
					par, rep.Table, rep.Quarantined, rep.TruncatedManifestBytes, rep.Corrupt)
			}
			if rep.Rows == 0 {
				t.Fatalf("par %d: recovered table %s has no rows", par, rep.Table)
			}
		}
		if found := e.Scrub(); len(found) != 0 {
			t.Fatalf("par %d: scrub after recovery: %v", par, found[0])
		}
		e.MustExec("ANALYZE")

		rng := rand.New(rand.NewSource(seed * 131))
		for trial := 0; trial < trials; trial++ {
			q := randQuery(rng)
			want, err := mem.Exec(q)
			if err != nil {
				t.Fatalf("par %d trial %d (mem): %v\nquery: %s", par, trial, err, q)
			}
			got, err := e.Exec(q)
			if err != nil {
				t.Fatalf("par %d trial %d (recovered): %v\nquery: %s", par, trial, err, q)
			}
			a, b := canonRows(want), canonRows(got)
			if strings.Join(a, ";") != strings.Join(b, ";") {
				t.Fatalf("par %d trial %d: recovered engine differs from memory\nquery: %s\nmem (%d rows): %.500v\nrecovered (%d rows): %.500v\nplan:\n%s",
					par, trial, q, len(a), a, len(b), b, got.Plan)
			}
		}
		mem.Close()
		e.Close()
	}
}

// TestEngineChecksumOptions: DisableChecksums serves the same rows, and a
// corruption that checksums would catch surfaces as ErrSegmentCorrupt only
// when verification is on.
func TestEngineChecksumOptions(t *testing.T) {
	dir := t.TempDir()
	writer := randSchemaWith(t, Options{Optimizer: SystemR, StorageDir: dir, SegmentRows: 32}, 9)
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}
	writer.Close()
	for _, disable := range []bool{false, true} {
		e := New(Options{Optimizer: SystemR, StorageDir: dir, SegmentRows: 32,
			SegmentCacheBytes: 1, DisableChecksums: disable})
		for _, ddl := range schemaDDL {
			e.MustExec(ddl)
		}
		res, err := e.Exec("SELECT COUNT(*) FROM r x")
		if err != nil {
			t.Fatalf("disable=%v: %v", disable, err)
		}
		if res.Rows[0][0].(int64) != 180 {
			t.Fatalf("disable=%v: count = %v, want 180", disable, res.Rows[0][0])
		}
		e.Close()
	}
}
