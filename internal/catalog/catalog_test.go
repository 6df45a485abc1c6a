package catalog

import (
	"testing"

	"repro/internal/datum"
)

func empDef() *Table {
	return &Table{
		Name: "Emp",
		Cols: []Column{
			{Name: "eid", Kind: datum.KindInt, NotNull: true},
			{Name: "name", Kind: datum.KindString},
			{Name: "did", Kind: datum.KindInt},
			{Name: "sal", Kind: datum.KindFloat},
		},
		PrimaryKey: []int{0},
		Indexes: []*Index{
			{Name: "emp_pk", Cols: []int{0}, Unique: true, Clustered: true},
			{Name: "emp_did", Cols: []int{2}},
		},
	}
}

func TestAddAndLookupTable(t *testing.T) {
	c := New()
	if err := c.AddTable(empDef()); err != nil {
		t.Fatal(err)
	}
	tab, ok := c.Table("EMP") // case-insensitive
	if !ok {
		t.Fatal("lookup failed")
	}
	if tab.Ordinal("DID") != 2 {
		t.Errorf("Ordinal(DID) = %d", tab.Ordinal("DID"))
	}
	if tab.Ordinal("nope") != -1 {
		t.Error("missing column should return -1")
	}
	if ci := tab.ClusteredIndex(); ci == nil || ci.Name != "emp_pk" {
		t.Error("clustered index lookup failed")
	}
	if len(c.Tables()) != 1 {
		t.Error("Tables() should list one table")
	}
}

func TestAddTableErrors(t *testing.T) {
	c := New()
	if err := c.AddTable(empDef()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(empDef()); err == nil {
		t.Error("duplicate table should fail")
	}
	if err := c.AddTable(&Table{Name: "nocols"}); err == nil {
		t.Error("no columns should fail")
	}
	if err := c.AddTable(&Table{Name: "dup", Cols: []Column{
		{Name: "a", Kind: datum.KindInt}, {Name: "A", Kind: datum.KindInt},
	}}); err == nil {
		t.Error("duplicate column names should fail")
	}
	if err := c.AddTable(&Table{Name: "badix", Cols: []Column{{Name: "a", Kind: datum.KindInt}},
		Indexes: []*Index{{Name: "x", Cols: []int{5}}}}); err == nil {
		t.Error("out-of-range index ordinal should fail")
	}
	if err := c.AddTable(&Table{Name: "twoclustered", Cols: []Column{{Name: "a", Kind: datum.KindInt}},
		Indexes: []*Index{
			{Name: "x", Cols: []int{0}, Clustered: true},
			{Name: "y", Cols: []int{0}, Clustered: true},
		}}); err == nil {
		t.Error("two clustered indexes should fail")
	}
}

func TestViews(t *testing.T) {
	c := New()
	if err := c.AddView(&View{Name: "v1", SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddView(&View{Name: "V1", SQL: "SELECT 2"}); err == nil {
		t.Error("duplicate view should fail")
	}
	if _, ok := c.View("v1"); !ok {
		t.Error("view lookup failed")
	}
	if err := c.AddTable(&Table{Name: "v1", Cols: []Column{{Name: "a", Kind: datum.KindInt}}}); err == nil {
		t.Error("table shadowing view should fail")
	}
	if err := c.AddTable(empDef()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddView(&View{Name: "emp", SQL: "SELECT 1"}); err == nil {
		t.Error("view shadowing table should fail")
	}
}

func TestMaterializedViews(t *testing.T) {
	c := New()
	mv := &MaterializedView{Name: "mv1", SQL: "SELECT did FROM emp"}
	if err := c.AddMaterializedView(mv); err != nil {
		t.Fatal(err)
	}
	if err := c.AddMaterializedView(mv); err == nil {
		t.Error("duplicate matview should fail")
	}
	if got := c.MaterializedViews(); len(got) != 1 || got[0].Name != "mv1" {
		t.Error("MaterializedViews() wrong")
	}
}
