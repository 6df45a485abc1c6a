package storage

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
)

func testDef() *catalog.Table {
	return &catalog.Table{
		Name: "t",
		Cols: []catalog.Column{
			{Name: "a", Kind: datum.KindInt, NotNull: true},
			{Name: "b", Kind: datum.KindString},
		},
		Indexes: []*catalog.Index{
			{Name: "t_a", Cols: []int{0}},
			{Name: "t_ba", Cols: []int{1, 0}},
		},
	}
}

func mustRows(t *testing.T, tab *Table) []datum.Row {
	t.Helper()
	rows, err := tab.Rows(nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// seekEq is an equality seek on the leading key columns.
func seekEq(ix *IndexData, key ...datum.D) []int {
	return ix.Seek(key, datum.Null, false, datum.Null, false)
}

func mustRow(t *testing.T, tab *Table, id int) datum.Row {
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

func TestInsertAndScan(t *testing.T) {
	tab := NewStore().newTable(testDef())
	rows := []datum.Row{
		{datum.NewInt(3), datum.NewString("c")},
		{datum.NewInt(1), datum.NewString("a")},
		{datum.NewInt(2), datum.Null},
	}
	if err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if tab.RowCount() != 3 {
		t.Fatalf("RowCount = %d", tab.RowCount())
	}
	if mustRow(t, tab, 1)[0].Int() != 1 {
		t.Error("Row(1) wrong")
	}
	if tab.PageCount() != 1 {
		t.Errorf("PageCount = %d, want 1 for tiny table", tab.PageCount())
	}
}

func TestInsertValidation(t *testing.T) {
	tab := NewStore().newTable(testDef())
	if err := tab.Insert(datum.Row{datum.NewInt(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := tab.Insert(datum.Row{datum.Null, datum.NewString("x")}); err == nil {
		t.Error("NULL in NOT NULL should fail")
	}
	if err := tab.Insert(datum.Row{datum.NewString("x"), datum.NewString("y")}); err == nil {
		t.Error("kind mismatch should fail")
	}
	// Numeric cross-kind is allowed.
	if err := tab.Insert(datum.Row{datum.NewFloat(1.0), datum.NewString("y")}); err != nil {
		t.Errorf("float into int column should be allowed: %v", err)
	}
}

// TestPageCountGrows: a standalone table (NewTable, outside any shared
// store) seals at DefaultSegmentRows and serves the pinned segment, the tail
// and an index across both.
func TestPageCountGrows(t *testing.T) {
	tab := NewStore().newTable(testDef())
	for i := 0; i < 5000; i++ {
		if err := tab.Insert(datum.Row{datum.NewInt(int64(i)), datum.NewString("some payload string")}); err != nil {
			t.Fatal(err)
		}
	}
	if tab.PageCount() < 2 {
		t.Errorf("PageCount = %d, want several pages", tab.PageCount())
	}
	ix, err := tab.Index(nil, "t_a")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{17, DefaultSegmentRows - 1, DefaultSegmentRows, 4999} {
		if got := seekEq(ix, datum.NewInt(int64(id))); len(got) != 1 || got[0] != id || mustRow(t, tab, id)[0].Int() != int64(id) {
			t.Errorf("row %d: index finds %v, read gives %v", id, got, mustRow(t, tab, id))
		}
	}
	if len(tab.SegmentLayout()) != 1 || len(tab.Scrub()) != 0 {
		t.Errorf("%d segments, scrub %v; want 1 pinned segment and nothing to scrub", len(tab.SegmentLayout()), tab.Scrub())
	}
}

func TestIndexSeekEq(t *testing.T) {
	tab := NewStore().newTable(testDef())
	vals := []int64{5, 3, 5, 1, 5, 2}
	for i, v := range vals {
		if err := tab.Insert(datum.Row{datum.NewInt(v), datum.NewString(string(rune('a' + i)))}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := tab.Index(nil, "T_A")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 6 {
		t.Fatalf("index len %d", ix.Len())
	}
	got := seekEq(ix, datum.NewInt(5))
	if len(got) != 3 {
		t.Fatalf("Seek(5) = %v, want 3 matches", got)
	}
	for _, id := range got {
		if mustRow(t, tab, id)[0].Int() != 5 {
			t.Errorf("row %d is not a 5", id)
		}
	}
	if got := seekEq(ix, datum.NewInt(99)); len(got) != 0 {
		t.Errorf("Seek(99) = %v, want empty", got)
	}
}

func TestIndexSeekRange(t *testing.T) {
	tab := NewStore().newTable(testDef())
	for _, v := range []int64{10, 20, 30, 40, 50} {
		if err := tab.Insert(datum.Row{datum.NewInt(v), datum.Null}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := tab.Index(nil, "t_a")
	if err != nil {
		t.Fatal(err)
	}
	ids := ix.Seek(nil, datum.NewInt(20), true, datum.NewInt(40), false)
	if len(ids) != 2 {
		t.Fatalf("Seek [20,40) = %d rows, want 2", len(ids))
	}
	ids = ix.Seek(nil, datum.Null, false, datum.NewInt(20), true)
	if len(ids) != 2 {
		t.Fatalf("Seek (-inf,20] = %d rows, want 2", len(ids))
	}
	ids = ix.Seek(nil, datum.NewInt(45), true, datum.Null, false)
	if len(ids) != 1 {
		t.Fatalf("Seek [45,inf) = %d rows, want 1", len(ids))
	}
}

func TestIndexSkipsNullKeysInRange(t *testing.T) {
	tab := NewStore().newTable(testDef())
	def2 := &catalog.Table{
		Name: "t2",
		Cols: []catalog.Column{{Name: "a", Kind: datum.KindInt}},
		Indexes: []*catalog.Index{
			{Name: "ix", Cols: []int{0}},
		},
	}
	tab = NewStore().newTable(def2)
	tab.Insert(datum.Row{datum.Null})
	tab.Insert(datum.Row{datum.NewInt(1)})
	ix, err := tab.Index(nil, "ix")
	if err != nil {
		t.Fatal(err)
	}
	if ids := ix.Seek(nil, datum.Null, false, datum.Null, false); len(ids) != 1 {
		t.Errorf("unbounded range should skip NULL keys, got %d rows", len(ids))
	}
}

func TestIndexInvalidation(t *testing.T) {
	tab := NewStore().newTable(testDef())
	tab.Insert(datum.Row{datum.NewInt(1), datum.Null})
	ix1, _ := tab.Index(nil, "t_a")
	if ix1.Len() != 1 {
		t.Fatal("expected 1 entry")
	}
	tab.Insert(datum.Row{datum.NewInt(2), datum.Null})
	ix2, _ := tab.Index(nil, "t_a")
	if ix2.Len() != 2 {
		t.Error("index should rebuild after insert")
	}
}

func TestIndexMissing(t *testing.T) {
	tab := NewStore().newTable(testDef())
	if _, err := tab.Index(nil, "nope"); err == nil {
		t.Error("missing index should error")
	}
}

func TestMultiColumnIndex(t *testing.T) {
	tab := NewStore().newTable(testDef())
	tab.Insert(datum.Row{datum.NewInt(1), datum.NewString("x")})
	tab.Insert(datum.Row{datum.NewInt(2), datum.NewString("x")})
	tab.Insert(datum.Row{datum.NewInt(1), datum.NewString("y")})
	ix, err := tab.Index(nil, "t_ba")
	if err != nil {
		t.Fatal(err)
	}
	// Prefix seek on leading column only.
	ids := seekEq(ix, datum.NewString("x"))
	if len(ids) != 2 {
		t.Fatalf("prefix Seek('x') = %d rows, want 2", len(ids))
	}
	// Full-key seek.
	ids = seekEq(ix, datum.NewString("x"), datum.NewInt(2))
	if len(ids) != 1 || mustRow(t, tab, ids[0])[0].Int() != 2 {
		t.Fatalf("full Seek = %v", ids)
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateTable(testDef()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(testDef()); err == nil {
		t.Error("duplicate create should fail")
	}
	if _, ok := s.Table("T"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := s.Table("missing"); ok {
		t.Error("missing table should not be found")
	}
}

// RowsRange is the locked range read the corruption matrices call; outside
// tests every range read goes through the column fills.
func (t *Table) RowsRange(sc *ScanCtx, lo, hi int) ([]datum.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowsRangeLocked(sc, lo, hi)
}
