// Columnar batches (§5.2's CPU-per-row constant attacked directly): a Batch is
// a set of typed column vectors plus an optional selection vector naming the
// live rows. It is both what flows between the stages of a pipeline — one
// morsel at a time, over worker scratch — and what a pipeline's collect sink
// materializes; kernels in kernels.go filter/hash/aggregate it without
// per-row interface dispatch, and ToRows materializes the boundary for
// operators that consume rows.
package exec

import (
	"repro/internal/datum"
	"repro/internal/logical"
)

// Batch is one vector per output column, all the same length n, plus a
// selection vector. A nil Sel means every row is live; otherwise Sel holds
// the live row indices in ascending order. Kernels refine Sel instead of
// copying survivors, so a filter costs one index write per passing row. In a
// pipeline a column no later stage reads may be missing (a nil or stale
// vector).
type Batch struct {
	Cols []logical.ColumnID
	Vecs []*datum.Vec
	Sel  []int32
	n    int
}

// NumRows returns the number of live (selected) rows.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// ToRows materializes the live rows in selection order.
func (b *Batch) ToRows() []datum.Row {
	nr := b.NumRows()
	if nr == 0 {
		return nil
	}
	out := make([]datum.Row, nr)
	cells := make(datum.Row, nr*len(b.Vecs))
	for i := range out {
		out[i], cells = cells[:len(b.Vecs):len(b.Vecs)], cells[len(b.Vecs):]
	}
	for ci, v := range b.Vecs {
		if b.Sel != nil {
			for k, i := range b.Sel {
				out[k][ci] = v.D(int(i))
			}
			continue
		}
		for i := 0; i < b.n; i++ {
			out[i][ci] = v.D(i)
		}
	}
	return out
}

// batchFromRows converts row-engine output to a batch. Column kinds are
// inferred from the data (mixed-kind columns fall back to the boxed vector
// representation), so the conversion never fails.
func batchFromRows(layout []logical.ColumnID, rows []datum.Row) *Batch {
	b := &Batch{Cols: layout, Vecs: make([]*datum.Vec, len(layout)), n: len(rows)}
	for ci := range layout {
		kind := datum.KindNull
		for _, r := range rows {
			if k := r[ci].Kind(); k != datum.KindNull {
				kind = k
				break
			}
		}
		v := datum.NewVec(kind, len(rows))
		for _, r := range rows {
			v.AppendD(r[ci])
		}
		b.Vecs[ci] = v
	}
	return b
}

// batchRowBytes models the batch's live rows exactly like rowSetBytes models
// materialized rows: a hash join's build, or one partition of it, charges
// what its rows would.
func batchRowBytes(b *Batch) int64 {
	var total int64
	for _, v := range b.Vecs {
		total += v.DataBytes(b.Sel)
	}
	return total + int64(b.NumRows())*entryOverhead
}
