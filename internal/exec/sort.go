// Order on batches. Everything that puts rows in order — the Sort operator,
// ORDER BY at the result, the external sort's runs, the merge join's key
// comparison — compares in the one order of datum.Compare, which is also the
// order of an index scan — both compare vectors with datum.KeyOrder —
// so a plan that answers ORDER BY from an index and one that sorts return the
// same sequence. A sort never moves a value: it sorts a permutation of its
// input's live rows, on typed key payloads, and hands on the input's vectors
// under that permutation as the selection.
package exec

import (
	"cmp"
	"slices"

	"repro/internal/datum"
	"repro/internal/logical"
)

// newRowCmp orders rows of two batches — often one batch with itself — by a
// sort specification over their common layout.
func newRowCmp(a, b *Batch, spec []datum.SortSpec) datum.KeyOrders {
	r := make(datum.KeyOrders, len(spec))
	for x, s := range spec {
		r[x] = datum.NewKeyOrder(a.Vecs[s.Col], b.Vecs[s.Col], s.Desc)
	}
	return r
}

// sortSpec resolves an ordering to column offsets in layout. An ORDER BY
// column missing from the layout is an execution error — silently returning
// unsorted rows would hide a planner bug.
func sortSpec(layout []logical.ColumnID, by logical.Ordering) ([]datum.SortSpec, error) {
	cols := make([]logical.ColumnID, len(by))
	for i, o := range by {
		cols[i] = o.Col
	}
	offs, err := colOffsets(layout, cols, "ORDER BY")
	spec := make([]datum.SortSpec, len(offs))
	for i, off := range offs {
		spec[i] = datum.SortSpec{Col: off, Desc: by[i].Desc}
	}
	return spec, err
}

// sortBatch returns b's live rows ordered by spec, stably: b's vectors under
// the sorted permutation of its live rows. The rows are cut into one
// contiguous run per worker, each sorted with the row's position as the
// tiebreaker, and the runs are k-way merged, so the order is the same at every
// worker count. The sort reserves what its rows would occupy; when the budget
// refuses, it sorts externally (spill.go) into the identical order.
func (c *Ctx) sortBatch(b *Batch, spec []datum.SortSpec) (*Batch, error) {
	n := b.NumRows()
	c.noteMem(int64(n))
	need := batchRowBytes(b)
	if err := c.Mem.Grow("sort", need); err != nil {
		return c.externalSort(b, spec)
	}
	defer c.Mem.Shrink(need)
	c.noteMemBytes(need)
	if n < 2 {
		return b, nil
	}
	rows := make([]int32, n)
	if b.Sel != nil {
		copy(rows, b.Sel)
	} else {
		for x := range rows {
			rows[x] = int32(x)
		}
	}
	// Ties go to the row that comes first in b: the smaller row index, unless
	// b's selection is itself a sorted permutation, whose order rank records.
	var rank []int32
	if b.Sel != nil && !slices.IsSorted(b.Sel) {
		rank = make([]int32, b.n)
		for k, r := range b.Sel {
			rank[r] = int32(k)
		}
	}
	order := newRowCmp(b, b, spec)
	compare := func(x, y int32) int {
		if r := order.Compare(int(x), int(y)); r != 0 {
			return r
		}
		if rank != nil {
			x, y = rank[x], rank[y]
		}
		return cmp.Compare(x, y)
	}
	sortRun := func(run []int32, cs *Counters) {
		slices.SortFunc(run, func(x, y int32) int {
			cs.Comparisons++
			return compare(x, y)
		})
	}
	if nw := c.morselWorkers(n); nw == 1 {
		sortRun(rows, &c.Counters)
	} else {
		chunk := (n + nw - 1) / nw
		runs := make([][]int32, 0, nw)
		for lo := 0; lo < n; lo += chunk {
			runs = append(runs, rows[lo:min(lo+chunk, n)])
		}
		err := c.runWorkers(len(runs), func(w int, wc *Ctx) error {
			sortRun(runs[w], &wc.Counters)
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = mergeRuns(runs, n, func(x, y int32) bool {
			c.Counters.Comparisons++
			return compare(x, y) < 0
		})
	}
	return &Batch{Cols: b.Cols, Vecs: b.Vecs, Sel: rows, n: b.n}, nil
}

// mergeRuns k-way merges sorted runs of n positions in total by less, the
// order the runs are sorted in — an order-preserving fan-in.
func mergeRuns(runs [][]int32, n int, less func(x, y int32) bool) []int32 {
	out := make([]int32, 0, n)
	heads := make([]int, len(runs))
	for {
		best := -1
		for r := range runs {
			if heads[r] >= len(runs[r]) {
				continue
			}
			if best < 0 || less(runs[r][heads[r]], runs[best][heads[best]]) {
				best = r
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, runs[best][heads[best]])
		heads[best]++
	}
}

// limitBatch keeps b's first n live rows.
func limitBatch(b *Batch, n int64) *Batch {
	if int64(b.NumRows()) <= n {
		return b
	}
	out := *b
	if b.Sel != nil {
		out.Sel = b.Sel[:n]
	} else {
		out.Sel = make([]int32, n)
		for i := range out.Sel {
			out.Sel[i] = int32(i)
		}
	}
	return &out
}
