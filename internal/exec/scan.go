// Scan, filter and project: one implementation each, at every setting. The
// three share one shape — a loop body over morsels handed to forMorsels
// (which runs it inline on one worker or fanned out on the pool) — and one
// way of evaluating a conjunction: the conjuncts compilePreds can turn into
// typed kernels refine a selection vector over column vectors first, and the
// residual conjuncts (LIKE, arithmetic, IN, subqueries, UDFs — or everything
// when Ctx.Vectorize is off) run row-at-a-time over the kernels' survivors
// through the row adapter, filterSel. Operators exchange columnar batches;
// run's callers convert to rows where a row operator consumes them.
package exec

import (
	"fmt"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// filterSel is the row adapter between column vectors and the row-at-a-time
// expression evaluator: each row named by sel is rebuilt into e's one reused
// row and kept when every predicate is TRUE. Survivors are appended to dst,
// which may share sel's storage (a survivor is never written ahead of the
// read position).
func (c *Ctx) filterSel(preds []logical.Scalar, e *env, vecs []*datum.Vec, sel, dst []int32) ([]int32, error) {
	ectx := c.evalCtx(e)
	for _, i := range sel {
		for j, v := range vecs {
			e.row[j] = v.D(int(i))
		}
		ok, err := allTrue(preds, ectx)
		if err != nil {
			return nil, err
		}
		if ok {
			dst = append(dst, i)
		}
	}
	return dst, nil
}

// rowEnv returns an env over layout with a reusable row for filterSel.
func rowEnv(layout []logical.ColumnID) *env {
	e := newEnv(layout, nil)
	e.row = make(datum.Row, len(layout))
	return e
}

// --- scan ---

// scanScratch is one worker's working state across the morsels of a filtered
// scan: a reusable vector per scan column (loaded on demand, so a morsel the
// kernels empty never touches the other columns), the selection buffers and
// the row adapter's env.
type scanScratch struct {
	kinds  []datum.Kind
	vecs   []*datum.Vec
	loaded []bool
	ident  []int32 // identity selection over one morsel
	sel    []int32 // the current morsel's survivors
	env    *env
}

// newScanScratch sizes the buffers for morsels of up to rows rows; vectors
// and the env are created on first use.
func newScanScratch(kinds []datum.Kind, rows int) *scanScratch {
	return &scanScratch{
		kinds:  kinds,
		vecs:   make([]*datum.Vec, len(kinds)),
		loaded: make([]bool, len(kinds)),
		ident:  identSel(rows),
		sel:    make([]int32, 0, rows),
	}
}

// fresh returns column ci's vector, emptied, when the current morsel has not
// loaded it yet, and nil when it has.
func (s *scanScratch) fresh(ci int) *datum.Vec {
	if s.loaded[ci] {
		return nil
	}
	if s.vecs[ci] == nil {
		s.vecs[ci] = datum.NewVec(s.kinds[ci], len(s.ident))
	} else {
		s.vecs[ci].Reset(s.kinds[ci])
	}
	s.loaded[ci] = true
	return s.vecs[ci]
}

// span is a run of scan survivors in scan order: the contiguous scan
// positions [lo, hi) when ids is nil, the listed row ids otherwise.
type span struct {
	lo, hi int
	ids    []int
}

// coalesce merges the per-morsel survivor spans into as few storage calls as
// possible: adjacent position ranges fuse, adjacent id lists concatenate —
// into one backing array sized by a first pass, so merging never reallocates.
func coalesce(keeps []span) (spans []span, total int) {
	nIDs := 0
	for _, k := range keeps {
		nIDs += len(k.ids)
	}
	ids := make([]int, 0, nIDs)
	for _, k := range keeps {
		n := len(k.ids)
		if k.ids == nil {
			n = k.hi - k.lo
		}
		if n == 0 {
			continue
		}
		total += n
		if k.ids != nil {
			// Consecutive id lists land next to each other in ids, so
			// extending the previous span over this one is a reslice.
			at := len(ids)
			ids = append(ids, k.ids...)
			k.ids = ids[at:]
		}
		if last := len(spans) - 1; last >= 0 {
			switch prev := &spans[last]; {
			case k.ids == nil && prev.ids == nil && prev.hi == k.lo:
				prev.hi = k.hi
				continue
			case k.ids != nil && prev.ids != nil:
				prev.ids = prev.ids[:len(prev.ids)+n]
				continue
			}
		}
		spans = append(spans, k)
	}
	return spans, total
}

// scanSource says which rows a scan visits: the posting list ids of an index
// scan (byID), or every row position [0, RowCount) of the table.
type scanSource struct {
	tab  *storage.Table
	ords []int // base-table ordinal of each scan column
	ids  []int
	byID bool
}

// fetch appends column ci of a span's rows to v.
func (s scanSource) fetch(wc *Ctx, ci int, sp span, v *datum.Vec) error {
	switch {
	case sp.ids != nil:
		return wc.fillIDs(s.tab, s.ords[ci], sp.ids, v)
	case s.byID:
		return wc.fillIDs(s.tab, s.ords[ci], s.ids[sp.lo:sp.hi], v)
	}
	return wc.fillRange(s.tab, s.ords[ci], sp.lo, sp.hi, v)
}

// scan is the one scan loop. Per morsel of the source's rows, in this order:
//
//  1. the zone-map disposition (table scans over sealed segments): an
//     eliminated morsel costs nothing — no I/O, no checkpoint — and a
//     morsel every conjunct provably matches keeps all rows unevaluated;
//  2. step("scan"): exactly one fault/cancel checkpoint per non-eliminated
//     morsel, on absolute morsel boundaries;
//  3. load the columns a compiled conjunct reads;
//  4. run it, refining the selection — and repeat from 3 for the next one;
//  5. load the remaining columns and run the residual conjuncts over the
//     survivors through the row adapter;
//  6. record the survivors — the output columns are late-materialized for
//     all morsels at once after the barrier, one column per worker turn, so
//     a column is never decoded for a row the filter rejects.
func (c *Ctx) scan(src scanSource, cols []logical.ColumnID, filter []logical.Scalar) (*Batch, error) {
	kinds := make([]datum.Kind, len(cols)) // static column kinds, from metadata
	for i, id := range cols {
		kinds[i] = c.Meta.Column(id).Kind
	}
	compiled, residual := c.compilePreds(filter, cols)
	if len(compiled) > 0 {
		c.noteVectorized()
	}
	n := len(src.ids)
	var pruner *scanPruner
	if !src.byID {
		n = src.tab.RowCount()
		if pruner = c.buildPruner(src.tab, filter, cols, src.ords); pruner != nil {
			c.notePruner(src.tab, pruner)
		} else {
			c.touchScan(src.tab)
		}
	}
	scratch := make([]*scanScratch, c.morselWorkers(n)) // per worker, created by the first filtered morsel
	keeps := make([]span, numMorsels(n))
	err := c.forMorsels(n, func(wc *Ctx, m, lo, hi int) error {
		disp := storage.ZoneSome
		if pruner != nil {
			disp = pruner.dispRange(lo, hi)
		}
		if disp == storage.ZoneNone {
			return nil
		}
		if err := wc.step("scan"); err != nil {
			return err
		}
		wc.Counters.RowsProcessed += int64(hi - lo)
		if len(filter) == 0 || (disp == storage.ZoneAll && pruner.full) {
			keeps[m] = span{lo: lo, hi: hi}
			return nil
		}
		s := scratch[m%len(scratch)]
		if s == nil {
			s = newScanScratch(kinds, min(n, MorselSize))
			scratch[m%len(scratch)] = s
		}
		clear(s.loaded)
		load := func(ci int) error {
			if v := s.fresh(ci); v != nil {
				return src.fetch(wc, ci, span{lo: lo, hi: hi}, v)
			}
			return nil
		}
		sel := s.ident[:hi-lo]
		b := &Batch{Vecs: s.vecs, n: hi - lo}
		for _, p := range compiled {
			for _, ci := range p.cols() {
				if err := load(ci); err != nil {
					return err
				}
			}
			if sel = applyPred(b, p, sel, s.sel[:0]); len(sel) == 0 {
				return nil
			}
		}
		if len(residual) > 0 {
			for ci := range cols {
				if err := load(ci); err != nil {
					return err
				}
			}
			if s.env == nil {
				s.env = rowEnv(cols)
			}
			var err error
			if sel, err = wc.filterSel(residual, s.env, s.vecs, sel, s.sel[:0]); err != nil || len(sel) == 0 {
				return err
			}
		}
		keep := make([]int, len(sel))
		for k, i := range sel {
			keep[k] = lo + int(i)
			if src.byID {
				keep[k] = src.ids[lo+int(i)]
			}
		}
		keeps[m] = span{ids: keep}
		return nil
	})
	if err != nil {
		return nil, err
	}
	spans, total := coalesce(keeps)
	vecs := make([]*datum.Vec, len(cols))
	err = c.forColumns(total, len(cols), func(wc *Ctx, ci int) error {
		v := datum.NewVec(kinds[ci], total)
		for _, sp := range spans {
			if err := src.fetch(wc, ci, sp, v); err != nil {
				return err
			}
		}
		vecs[ci] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Batch{Cols: cols, Vecs: vecs, n: total}, nil
}

func (c *Ctx) scanTable(t *physical.TableScan) (*Batch, error) {
	tab, ok := c.Store.Table(t.Table.Name)
	if !ok {
		return nil, fmt.Errorf("exec: no storage for table %s", t.Table.Name)
	}
	return c.scan(scanSource{tab: tab, ords: t.ColOrds}, t.Cols, t.Filter)
}

// scanIndex resolves the index condition to a posting list and scans it.
func (c *Ctx) scanIndex(t *physical.IndexScan) (*Batch, error) {
	tab, ok := c.Store.Table(t.Table.Name)
	if !ok {
		return nil, fmt.Errorf("exec: no storage for table %s", t.Table.Name)
	}
	ix, err := tab.Index(t.Index.Name)
	if err != nil {
		return nil, err
	}
	c.Counters.IndexSeeks++
	var ids []int
	switch {
	case len(t.EqKey) > 0 && (!t.Lo.IsNull() || !t.Hi.IsNull()):
		// Equality prefix + range on the next column: fetch eq matches and
		// post-filter on the range column.
		ids = ix.SeekEq(t.EqKey)
		rangeOrd := t.Index.Cols[len(t.EqKey)]
		ids, err = c.filterIDsByRange(tab, ids, rangeOrd, t.Lo, t.LoIncl, t.Hi, t.HiIncl)
		if err != nil {
			return nil, err
		}
	case len(t.EqKey) > 0:
		ids = ix.SeekEq(t.EqKey)
	default:
		ids = ix.SeekRange(t.Lo, t.LoIncl, t.Hi, t.HiIncl)
	}
	for _, id := range ids {
		c.touchRow(tab, id)
	}
	return c.scan(scanSource{tab: tab, ords: t.ColOrds, ids: ids, byID: true}, t.Cols, t.Filter)
}

func (c *Ctx) filterIDsByRange(tab *storage.Table, ids []int, ord int, lo datum.D, loIncl bool, hi datum.D, hiIncl bool) ([]int, error) {
	var out []int
	for _, id := range ids {
		v, err := c.colValue(tab, id, ord)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		if !lo.IsNull() {
			cmp := datum.Compare(v, lo)
			if cmp < 0 || (cmp == 0 && !loIncl) {
				continue
			}
		}
		if !hi.IsNull() {
			cmp := datum.Compare(v, hi)
			if cmp > 0 || (cmp == 0 && !hiIncl) {
				continue
			}
		}
		out = append(out, id)
	}
	return out, nil
}

// --- filter ---

// runFilter refines the input batch's selection vector: per morsel of live
// rows, the compiled conjuncts first, then the residual conjuncts through
// the row adapter. The output shares the input's column vectors.
func (c *Ctx) runFilter(t *physical.Filter) (*Batch, error) {
	in, err := c.inputBatch(t.Input)
	if err != nil {
		return nil, err
	}
	layout := t.Input.Columns()
	compiled, residual := c.compilePreds(t.Preds, layout)
	if len(compiled) > 0 {
		c.noteVectorized()
	}
	n := in.NumRows()
	// Each morsel writes its survivors into its own stretch of out, which is
	// compacted after the barrier.
	out := make([]int32, n)
	kept := make([]int, numMorsels(n))
	nw := c.morselWorkers(n)
	sels := newSelBufs(nw)
	err = c.forMorsels(n, func(wc *Ctx, m, lo, hi int) error {
		wc.Counters.RowsProcessed += int64(hi - lo)
		cur, dst := sels.morsel(in, m%nw, lo, hi), out[lo:lo:hi]
		for _, p := range compiled {
			if cur = applyPred(in, p, cur, dst); len(cur) == 0 {
				return nil
			}
		}
		if len(residual) > 0 {
			var err error
			if cur, err = wc.filterSel(residual, rowEnv(layout), in.Vecs, cur, dst); err != nil {
				return err
			}
		}
		// With no conjunct at all cur is still the input's selection.
		kept[m] = copy(out[lo:hi], cur)
		return nil
	})
	if err != nil {
		return nil, err
	}
	live := 0
	for m, k := range kept {
		live += copy(out[live:], out[m*MorselSize:m*MorselSize+k])
	}
	return &Batch{Cols: in.Cols, Vecs: in.Vecs, Sel: out[:live], n: in.n}, nil
}

// --- project ---

// runProject computes the projection items. Column references share the
// input's vectors; expressions are evaluated per morsel through the
// row-at-a-time evaluator into one boxed vector per item.
func (c *Ctx) runProject(t *physical.Project) (*Batch, error) {
	in, err := c.inputBatch(t.Input)
	if err != nil {
		return nil, err
	}
	layout := t.Input.Columns()
	vecs := make([]*datum.Vec, len(t.Items))
	var exprs []int // items that are not plain column references
	for i, it := range t.Items {
		if col, ok := it.Expr.(*logical.Col); ok {
			if off := in.colIndex(col.ID); off >= 0 {
				vecs[i] = in.Vecs[off]
				continue
			}
		}
		exprs = append(exprs, i)
	}
	if len(exprs) == 0 {
		// Pure column selection: a projection costs len(items) pointer
		// copies, not a row copy.
		n := in.NumRows()
		c.Counters.RowsProcessed += int64(n)
		if c.curNode != nil {
			c.curNode.Batches += int64(numMorsels(n))
		}
		return &Batch{Cols: t.Columns(), Vecs: vecs, Sel: in.Sel, n: in.n}, nil
	}
	// Expression results are dense (one per live row), so the shared column
	// vectors are gathered to the same positions.
	n := in.NumRows()
	vals := make([][]datum.D, len(t.Items))
	for _, i := range exprs {
		vals[i] = make([]datum.D, n)
	}
	err = c.forMorsels(n, func(wc *Ctx, m, lo, hi int) error {
		wc.Counters.RowsProcessed += int64(hi - lo)
		e := rowEnv(layout)
		ectx := wc.evalCtx(e)
		for k := lo; k < hi; k++ {
			row := k
			if in.Sel != nil {
				row = int(in.Sel[k])
			}
			for j, v := range in.Vecs {
				e.row[j] = v.D(row)
			}
			for _, i := range exprs {
				v, err := logical.Eval(t.Items[i].Expr, ectx)
				if err != nil {
					return err
				}
				vals[i][k] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range vecs {
		switch {
		case vals[i] != nil:
			vecs[i] = datum.NewBoxedVec(vals[i])
		case in.Sel != nil:
			vecs[i] = gatherVec(vecs[i], in.Sel)
		}
	}
	return &Batch{Cols: t.Columns(), Vecs: vecs, n: n}, nil
}
