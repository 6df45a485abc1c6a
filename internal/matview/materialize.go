package matview

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Compute runs a view's defining query and returns the query it planned —
// whose ResultCols, ColNames and metadata describe the result — and the rows
// in ResultCols order.
type Compute func(sel *sql.SelectStmt) (*logical.Query, []datum.Row, error)

// Materialize computes a view's result with compute and stores it as a
// backing table, registering the materialized view in the catalog. The
// backing table is named like the view and carries the view's result column
// names and kinds.
func Materialize(cat *catalog.Catalog, store *storage.Store, name, sqlText string, compute Compute) (*catalog.MaterializedView, error) {
	sel, err := sql.ParseSelect(sqlText)
	if err != nil {
		return nil, fmt.Errorf("matview %s: %w", name, err)
	}
	q, rows, err := compute(sel)
	if err != nil {
		return nil, fmt.Errorf("matview %s: %w", name, err)
	}
	def := &catalog.Table{Name: name}
	for i, id := range q.ResultCols {
		def.Cols = append(def.Cols, catalog.Column{
			Name: q.ColNames[i],
			Kind: q.Meta.Column(id).Kind,
		})
	}
	// Computed kinds can drift from declared ones (e.g. SUM over ints yields
	// INTEGER where metadata guessed FLOAT); trust the data.
	for i := range def.Cols {
		for _, r := range rows {
			if !r[i].IsNull() {
				def.Cols[i].Kind = r[i].Kind()
				break
			}
		}
	}
	if err := cat.AddTable(def); err != nil {
		return nil, err
	}
	tab, err := store.CreateTable(def)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := tab.Insert(r); err != nil {
			return nil, err
		}
	}
	mv := &catalog.MaterializedView{Name: name, SQL: sqlText, Table: def}
	if err := cat.AddMaterializedView(mv); err != nil {
		return nil, err
	}
	return mv, nil
}
