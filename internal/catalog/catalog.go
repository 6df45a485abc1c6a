// Package catalog holds schema metadata: tables, columns, indexes, views and
// the per-table statistical summaries (§5.1.1) consumed by the cost model.
package catalog

import (
	"fmt"
	"strings"

	"repro/internal/datum"
	"repro/internal/histogram"
)

// Column describes one table column.
type Column struct {
	Name    string
	Kind    datum.Kind
	NotNull bool
}

// Index describes a secondary access path over a table. Cols are column
// ordinals, leading column first. At most one index per table may be
// Clustered (the heap is ordered by it, making range scans sequential).
type Index struct {
	Name      string
	Cols      []int
	Unique    bool
	Clustered bool
	// DistinctKeys is the total count of distinct column-value combinations
	// in the index — the multi-column summary statistic of §5.1.1. Zero
	// means unknown.
	DistinctKeys float64
}

// Table is the schema entry for a base table.
type Table struct {
	Name    string
	Cols    []Column
	Indexes []*Index
	// PrimaryKey holds column ordinals of the primary key (may be empty).
	PrimaryKey []int
	Stats      *TableStats
}

// Ordinal returns the ordinal of the named column, or -1.
func (t *Table) Ordinal(col string) int {
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, col) {
			return i
		}
	}
	return -1
}

// ClusteredIndex returns the table's clustered index, or nil.
func (t *Table) ClusteredIndex() *Index {
	for _, ix := range t.Indexes {
		if ix.Clustered {
			return ix
		}
	}
	return nil
}

// TableStats is the statistical summary of a stored table: row count, page
// count and per-column statistics.
type TableStats struct {
	RowCount  float64
	PageCount float64
	ColStats  map[int]*ColumnStats // keyed by column ordinal
}

// ColumnStats summarizes one column's data distribution.
type ColumnStats struct {
	DistinctCount float64
	NullCount     float64
	// SecondMin/SecondMax follow the practice the paper describes: the
	// second-lowest and second-highest values are kept because the extremes
	// are often outliers.
	SecondMin datum.D
	SecondMax datum.D
	Hist      *histogram.Histogram // may be nil (no histogram collected)
}

// View is a named virtual table defined by SQL text; the definition is
// parsed and inlined (or not) by the optimizer's view-merging machinery.
type View struct {
	Name string
	SQL  string
}

// MaterializedView is a view whose result has been computed and stored; the
// optimizer may substitute it transparently (§7.3).
type MaterializedView struct {
	Name string
	SQL  string
	// Table is the backing stored table holding the view's rows.
	Table *Table
}

// Catalog maps names to schema objects. Names are case-insensitive.
type Catalog struct {
	tables   map[string]*Table
	views    map[string]*View
	matviews map[string]*MaterializedView
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:   make(map[string]*Table),
		views:    make(map[string]*View),
		matviews: make(map[string]*MaterializedView),
	}
}

func key(name string) string { return strings.ToLower(name) }

// AddTable registers a table. It returns an error on duplicate names or
// invalid definitions.
func (c *Catalog) AddTable(t *Table) error {
	k := key(t.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("catalog: %q already defined as a view", t.Name)
	}
	if len(t.Cols) == 0 {
		return fmt.Errorf("catalog: table %q has no columns", t.Name)
	}
	seen := map[string]bool{}
	for _, col := range t.Cols {
		ck := key(col.Name)
		if seen[ck] {
			return fmt.Errorf("catalog: table %q has duplicate column %q", t.Name, col.Name)
		}
		seen[ck] = true
	}
	clustered := 0
	for _, ix := range t.Indexes {
		if ix.Clustered {
			clustered++
		}
		for _, ord := range ix.Cols {
			if ord < 0 || ord >= len(t.Cols) {
				return fmt.Errorf("catalog: index %q references invalid ordinal %d", ix.Name, ord)
			}
		}
	}
	if clustered > 1 {
		return fmt.Errorf("catalog: table %q has %d clustered indexes", t.Name, clustered)
	}
	if t.Stats == nil {
		t.Stats = &TableStats{ColStats: make(map[int]*ColumnStats)}
	}
	c.tables[k] = t
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[key(name)]
	return t, ok
}

// Tables returns all registered tables (no particular order).
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}

// AddView registers a view definition.
func (c *Catalog) AddView(v *View) error {
	k := key(v.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: %q already defined as a table", v.Name)
	}
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("catalog: view %q already exists", v.Name)
	}
	c.views[k] = v
	return nil
}

// View looks up a view by name.
func (c *Catalog) View(name string) (*View, bool) {
	v, ok := c.views[key(name)]
	return v, ok
}

// AddMaterializedView registers a materialized view with its backing table.
func (c *Catalog) AddMaterializedView(mv *MaterializedView) error {
	k := key(mv.Name)
	if _, ok := c.matviews[k]; ok {
		return fmt.Errorf("catalog: materialized view %q already exists", mv.Name)
	}
	c.matviews[k] = mv
	return nil
}

// MaterializedViews returns all registered materialized views.
func (c *Catalog) MaterializedViews() []*MaterializedView {
	out := make([]*MaterializedView, 0, len(c.matviews))
	for _, mv := range c.matviews {
		out = append(out, mv)
	}
	return out
}
