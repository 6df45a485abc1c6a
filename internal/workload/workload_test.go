package workload

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/stats"
	"repro/internal/storage"
)

func mustRows(t *testing.T, tab *storage.Table) []datum.Row {
	t.Helper()
	rows, err := tab.Rows(nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func mustRow(t *testing.T, tab *storage.Table, id int) datum.Row {
	t.Helper()
	row := make(datum.Row, len(tab.Def.Cols))
	for ci, col := range tab.Def.Cols {
		v := datum.NewVec(col.Kind, 1)
		if err := tab.FillColumnIDs(nil, ci, []int{id}, v); err != nil {
			t.Fatal(err)
		}
		row[ci] = v.D(0)
	}
	return row
}

func TestEmpDeptShape(t *testing.T) {
	db := EmpDept(EmpDeptConfig{Emps: 500, Depts: 25, Seed: 1})
	emp, ok := db.Cat.Table("Emp")
	if !ok {
		t.Fatal("Emp missing")
	}
	if len(emp.Cols) != 6 || emp.ClusteredIndex() == nil {
		t.Error("Emp schema wrong")
	}
	et, _ := db.Store.Table("emp")
	if et.RowCount() != 500 {
		t.Errorf("emp rows = %d", et.RowCount())
	}
	dt, _ := db.Store.Table("dept")
	if dt.RowCount() != 25 {
		t.Errorf("dept rows = %d", dt.RowCount())
	}
	// FK integrity: every non-NULL did must reference an existing dept.
	for _, r := range mustRows(t, et) {
		if r[2].IsNull() {
			continue
		}
		if d := r[2].Int(); d < 0 || d >= 25 {
			t.Fatalf("dangling did %d", d)
		}
	}
	db.Analyze(stats.AnalyzeOptions{})
	if emp.Stats.RowCount != 500 {
		t.Error("analyze did not populate stats")
	}
}

func TestEmpDeptDefaults(t *testing.T) {
	db := EmpDept(EmpDeptConfig{})
	et, _ := db.Store.Table("emp")
	if et.RowCount() != 10000 {
		t.Errorf("default emps = %d", et.RowCount())
	}
}

func TestEmpDeptDeterministic(t *testing.T) {
	a := EmpDept(EmpDeptConfig{Emps: 50, Depts: 5, Seed: 9})
	b := EmpDept(EmpDeptConfig{Emps: 50, Depts: 5, Seed: 9})
	at, _ := a.Store.Table("emp")
	bt, _ := b.Store.Table("emp")
	for i := 0; i < 50; i++ {
		if mustRow(t, at, i).String() != mustRow(t, bt, i).String() {
			t.Fatalf("row %d differs across identical seeds", i)
		}
	}
}

func TestStarShape(t *testing.T) {
	db := Star(StarConfig{FactRows: 1000, DimRows: []int{10, 20}, Seed: 2})
	fact, ok := db.Cat.Table("sales")
	if !ok {
		t.Fatal("sales missing")
	}
	// k1, k2, qty, amount.
	if len(fact.Cols) != 4 {
		t.Errorf("fact cols = %d", len(fact.Cols))
	}
	// Per-key indexes plus the composite index.
	if len(fact.Indexes) != 3 {
		t.Errorf("fact indexes = %d, want 3", len(fact.Indexes))
	}
	ft, _ := db.Store.Table("sales")
	for _, r := range mustRows(t, ft) {
		if k := r[0].Int(); k < 0 || k >= 10 {
			t.Fatalf("k1 out of range: %d", k)
		}
		if k := r[1].Int(); k < 0 || k >= 20 {
			t.Fatalf("k2 out of range: %d", k)
		}
	}
}

func TestStarSkew(t *testing.T) {
	db := Star(StarConfig{FactRows: 20000, DimRows: []int{100}, Seed: 3, Skew: 1.5})
	ft, _ := db.Store.Table("sales")
	freq := map[int64]int{}
	for _, r := range mustRows(t, ft) {
		freq[r[0].Int()]++
	}
	// Zipfian: key 0 should dominate.
	if freq[0] < 20000/10 {
		t.Errorf("skewed fact should concentrate on key 0, got %d", freq[0])
	}
}

func TestChainAndQueries(t *testing.T) {
	db := Chain(ChainConfig{Tables: 4, Seed: 4})
	for i := 1; i <= 4; i++ {
		tab, ok := db.Store.Table(fmt.Sprintf("r%d", i))
		if !ok {
			t.Fatalf("r%d missing", i)
		}
		if tab.RowCount() != 1000 {
			t.Errorf("r%d rows = %d", i, tab.RowCount())
		}
	}
	q := ChainQuery(4)
	for _, frag := range []string{"FROM r1, r2, r3, r4", "r1.fk = r2.pk", "r3.fk = r4.pk"} {
		if !contains(q, frag) {
			t.Errorf("ChainQuery missing %q: %s", frag, q)
		}
	}
	sq := StarQuery(2, 5)
	for _, frag := range []string{"sales.k1 = dim1.k", "dim2.filt < 5", "GROUP BY"} {
		if !contains(sq, frag) {
			t.Errorf("StarQuery missing %q: %s", frag, sq)
		}
	}
	if contains(StarQuery(1, 0), "filt <") {
		t.Error("filtMax 0 should omit filters")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestSaveToOpen: a copy saved to segment files reopens over the same
// catalog with an empty block cache, and with every row under its old row id.
func TestSaveToOpen(t *testing.T) {
	db := EmpDept(EmpDeptConfig{Emps: 5000, Depts: 50})
	dir := t.TempDir()
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	disk, err := db.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !disk.Store.DiskBacked() || disk.Cat != db.Cat {
		t.Fatal("Open should share the catalog over a directory-backed store")
	}
	emp, _ := disk.Store.Table("Emp")
	var sc storage.ScanCtx
	if err := emp.FillColumnRange(&sc, 0, 0, 10, datum.NewVec(datum.KindInt, 0)); err != nil {
		t.Fatal(err)
	}
	if sc.BytesRead == 0 || sc.BlockHits != 0 {
		t.Errorf("first read of a reopened copy: %d bytes read, %d hits; want a miss", sc.BytesRead, sc.BlockHits)
	}
	for _, name := range []string{"Emp", "Dept"} {
		src, _ := db.Store.Table(name)
		dst, _ := disk.Store.Table(name)
		want, got := mustRows(t, src), mustRows(t, dst)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows reopened, %d saved", name, len(got), len(want))
		}
		for i := range want {
			if got[i].String() != want[i].String() {
				t.Fatalf("%s row %d: %v reopened, %v saved", name, i, got[i], want[i])
			}
		}
	}
}
