// Zone-map segment elimination for scans over sealed segments. The scan's
// pushed-down conjuncts are compiled to storage.ZonePred (base-table column
// ordinal + constant), confronted with each sealed segment's min/max
// zone maps and NULL counts, and every segment the predicate cannot match is
// skipped without touching disk. Segments the predicate provably matches on
// every row additionally skip filter evaluation. The same compiled form backs
// the optimizer's pruned-page cost (storage.Table.PrunedPageCount), so plan
// choice and execution reason from one mechanism.
package exec

import (
	"sort"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/storage"
)

// zoneOpOf maps a comparison operator to its zone-map form (LIKE has none).
func zoneOpOf(op logical.CmpOp) (storage.ZoneOp, bool) {
	switch op {
	case logical.CmpEq:
		return storage.ZoneEq, true
	case logical.CmpNe:
		return storage.ZoneNe, true
	case logical.CmpLt:
		return storage.ZoneLt, true
	case logical.CmpLe:
		return storage.ZoneLe, true
	case logical.CmpGt:
		return storage.ZoneGt, true
	case logical.CmpGe:
		return storage.ZoneGe, true
	}
	return 0, false
}

// compileZonePreds translates pushed-down conjuncts into zone predicates over
// base-table ordinals (via ordOf). Conjuncts it cannot express are simply
// dropped — pruning on the rest stays sound because dropping a conjunct only
// widens what a segment may contain. full reports that every conjunct was
// compiled, which is what permits skipping filter evaluation on full-match
// segments.
func compileZonePreds(filters []logical.Scalar, ordOf func(logical.ColumnID) (int, bool)) (preds []storage.ZonePred, full bool) {
	full = true
	for _, p := range filters {
		switch t := p.(type) {
		case *logical.Cmp:
			var colRef *logical.Col
			var cst *logical.Const
			op := t.Op
			if lc, ok := t.L.(*logical.Col); ok {
				if rk, ok := t.R.(*logical.Const); ok {
					colRef, cst = lc, rk
				}
			} else if rc, ok := t.R.(*logical.Col); ok {
				if lk, ok := t.L.(*logical.Const); ok {
					colRef, cst, op = rc, lk, t.Op.Commute()
				}
			}
			if colRef == nil || cst == nil {
				full = false
				continue
			}
			ord, ok := ordOf(colRef.ID)
			if !ok {
				full = false
				continue
			}
			if cst.Val.IsNull() {
				// col <op> NULL is never TRUE: the whole scan is empty.
				preds = append(preds, storage.ZonePred{Ord: ord, Form: storage.ZoneNever})
				continue
			}
			zop, ok := zoneOpOf(op)
			if !ok {
				full = false
				continue
			}
			preds = append(preds, storage.ZonePred{Ord: ord, Form: storage.ZoneCmp, Op: zop, C: cst.Val})
		case *logical.IsNull:
			col, ok := t.E.(*logical.Col)
			if !ok {
				full = false
				continue
			}
			ord, ok := ordOf(col.ID)
			if !ok {
				full = false
				continue
			}
			form := storage.ZoneIsNull
			if t.Negated {
				form = storage.ZoneIsNotNull
			}
			preds = append(preds, storage.ZonePred{Ord: ord, Form: form})
		case *logical.InList:
			if t.Negated {
				full = false
				continue
			}
			col, ok := t.E.(*logical.Col)
			if !ok {
				full = false
				continue
			}
			ord, ok := ordOf(col.ID)
			if !ok {
				full = false
				continue
			}
			list := make([]datum.D, 0, len(t.List))
			usable := true
			for _, e := range t.List {
				k, ok := e.(*logical.Const)
				if !ok || k.Val.IsNull() {
					usable = false
					break
				}
				list = append(list, k.Val)
			}
			if !usable {
				full = false
				continue
			}
			if len(list) == 0 {
				preds = append(preds, storage.ZonePred{Ord: ord, Form: storage.ZoneNever})
				continue
			}
			preds = append(preds, storage.ZonePred{Ord: ord, Form: storage.ZoneIn, List: list})
		default:
			full = false
		}
	}
	return preds, full
}

// CompileScanZonePreds is compileZonePreds for callers outside the executor
// (the optimizer's pruned-page costing): ords maps each scan output column to
// its base-table ordinal.
func CompileScanZonePreds(filters []logical.Scalar, cols []logical.ColumnID, ords []int) []storage.ZonePred {
	preds, _ := compileZonePreds(filters, scanOrdOf(cols, ords))
	return preds
}

// scanOrdOf maps a scan's output column IDs to base-table ordinals.
func scanOrdOf(cols []logical.ColumnID, ords []int) func(logical.ColumnID) (int, bool) {
	return func(id logical.ColumnID) (int, bool) {
		for i, cid := range cols {
			if cid == id {
				return ords[i], true
			}
		}
		return 0, false
	}
}

// scanPruner is the per-scan elimination state: the table's sealed-segment
// layout and each segment's disposition under the scan predicate.
type scanPruner struct {
	layout []storage.SegmentInfo
	disp   []storage.ZoneDisp
	// full: every filter conjunct compiled to a zone predicate, so ZoneAll
	// segments may skip filter evaluation entirely.
	full   bool
	sealed int // rows covered by sealed segments
	total  int // total row count (sealed + unsealed tail)
}

// buildPruner compiles the scan's filter against the table's segment zone
// maps. Returns nil for tables without sealed segments (all rows still in
// the tail). Ctx.NoPrune leaves the predicates uncompiled, so every segment
// reads as ZoneSome.
func (c *Ctx) buildPruner(tab *storage.Table, filter []logical.Scalar, cols []logical.ColumnID, colOrds []int) *scanPruner {
	layout := tab.SegmentLayout()
	if len(layout) == 0 {
		return nil
	}
	var preds []storage.ZonePred
	var full bool
	if !c.NoPrune {
		preds, full = compileZonePreds(filter, scanOrdOf(cols, colOrds))
	}
	last := layout[len(layout)-1]
	return &scanPruner{
		layout: layout,
		disp:   tab.SegmentDispositions(preds),
		full:   full,
		sealed: last.StartRow + last.Rows,
		total:  tab.RowCount(),
	}
}

// segIndex returns the index of the sealed segment containing row.
func (p *scanPruner) segIndex(row int) int {
	return sort.Search(len(p.layout), func(i int) bool {
		return p.layout[i].StartRow+p.layout[i].Rows > row
	})
}

// dispRange folds the dispositions of all segments overlapping rows [lo, hi)
// (plus ZoneSome for any unsealed-tail overlap — the tail has no zone maps):
// uniform ZoneNone/ZoneAll survive, any mix degrades to ZoneSome.
func (p *scanPruner) dispRange(lo, hi int) storage.ZoneDisp {
	const unset = storage.ZoneDisp(255)
	disp := unset
	fold := func(d storage.ZoneDisp) bool {
		switch {
		case disp == unset:
			disp = d
		case disp != d:
			disp = storage.ZoneSome
			return false
		}
		return true
	}
	pos := lo
	for pos < hi && pos < p.sealed {
		i := p.segIndex(pos)
		if !fold(p.disp[i]) {
			return storage.ZoneSome
		}
		pos = p.layout[i].StartRow + p.layout[i].Rows
	}
	if pos < hi && !fold(storage.ZoneSome) {
		return storage.ZoneSome
	}
	if disp == unset {
		return storage.ZoneSome
	}
	return disp
}

// notePruner records the elimination outcome once per scan operator: how
// many sealed segments the scan reads and how many zone maps eliminated.
// Called on the coordinating goroutine only.
func (c *Ctx) notePruner(p *scanPruner) {
	var read, pruned int64
	for i := range p.layout {
		if p.disp[i] == storage.ZoneNone {
			pruned++
		} else {
			read++
		}
	}
	c.noteSegments(read, pruned)
}
