package logical

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// ColumnMeta describes one query column: where it came from and how to
// display it.
type ColumnMeta struct {
	// Name is the column's display name (base column name or alias).
	Name string
	// Binding is the table binding (alias) the column belongs to; empty for
	// synthesized columns (aggregates, projections).
	Binding string
	Kind    datum.Kind
	// Partial marks the output of a partial aggregate that eager
	// aggregation staged below a join; it is not staged again.
	Partial bool
	// Base links back to the base table and ordinal for columns read from
	// storage; Base == nil for synthesized columns.
	Base    *catalog.Table
	BaseOrd int
}

// Metadata allocates and describes the query's global column IDs.
type Metadata struct {
	cols []ColumnMeta // index i holds ColumnID(i+1)
}

// NewMetadata returns an empty metadata.
func NewMetadata() *Metadata { return &Metadata{} }

// AddColumn allocates a fresh column ID.
func (m *Metadata) AddColumn(cm ColumnMeta) ColumnID {
	m.cols = append(m.cols, cm)
	return ColumnID(len(m.cols))
}

// Column returns the metadata for id.
func (m *Metadata) Column(id ColumnID) ColumnMeta {
	if id <= 0 || int(id) > len(m.cols) {
		panic(fmt.Sprintf("logical: unknown ColumnID %d", id))
	}
	return m.cols[id-1]
}

// NumColumns returns the number of allocated columns.
func (m *Metadata) NumColumns() int { return len(m.cols) }

// QualifiedName renders "binding.name" (or just the name) for diagnostics.
func (m *Metadata) QualifiedName(id ColumnID) string {
	cm := m.Column(id)
	if cm.Binding != "" {
		return cm.Binding + "." + cm.Name
	}
	if cm.Name != "" {
		return cm.Name
	}
	return fmt.Sprintf("col%d", int(id))
}

// AddTable allocates fresh IDs for every column of a base-table occurrence
// under the given binding and returns them in table-ordinal order.
func (m *Metadata) AddTable(t *catalog.Table, binding string) []ColumnID {
	ids := make([]ColumnID, len(t.Cols))
	for i, c := range t.Cols {
		ids[i] = m.AddColumn(ColumnMeta{
			Name:    c.Name,
			Binding: binding,
			Kind:    c.Kind,
			Base:    t,
			BaseOrd: i,
		})
	}
	return ids
}
