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
	"slices"
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

// compileZonePreds translates pushed-down conjuncts over a scan's columns
// cols into zone predicates over base-table ordinals (ords parallels cols),
// with parameter-tagged constants at their bindings in params. Conjuncts it
// cannot express are simply dropped — pruning on the rest stays sound
// because dropping a conjunct only widens what a segment may contain. full
// reports that every conjunct was compiled, which is what permits skipping
// filter evaluation on full-match segments.
func compileZonePreds(filters []logical.Scalar, cols []logical.ColumnID, ords []int, params []datum.D) (preds []storage.ZonePred, full bool) {
	// ordOf is the base-table ordinal of a column reference.
	ordOf := func(s logical.Scalar) (int, bool) {
		if col, ok := s.(*logical.Col); ok {
			if i := slices.Index(cols, col.ID); i >= 0 {
				return ords[i], true
			}
		}
		return 0, false
	}
	full = true
	for _, p := range filters {
		var zp storage.ZonePred
		ok := false
		switch t := p.(type) {
		case *logical.Cmp:
			l, r, op := t.L, t.R, t.Op
			if _, isConst := l.(*logical.Const); isConst {
				l, r, op = r, l, op.Commute()
			}
			k, isConst := r.(*logical.Const)
			zp.Ord, ok = ordOf(l)
			zop, zok := zoneOpOf(op)
			switch {
			case !ok || !isConst:
				ok = false
			case k.Bound(params).IsNull():
				// col <op> NULL is never TRUE: the whole scan is empty.
				zp.Form = storage.ZoneNever
			case zok:
				zp.Form, zp.Op, zp.C = storage.ZoneCmp, zop, k.Bound(params)
			default:
				ok = false
			}
		case *logical.IsNull:
			zp.Ord, ok = ordOf(t.E)
			if zp.Form = storage.ZoneIsNull; t.Negated {
				zp.Form = storage.ZoneIsNotNull
			}
		case *logical.InList:
			zp.Ord, ok = ordOf(t.E)
			ok = ok && !t.Negated
			if zp.Form = storage.ZoneIn; len(t.List) == 0 {
				zp.Form = storage.ZoneNever
			}
			for _, e := range t.List {
				k, isConst := e.(*logical.Const)
				if !isConst || k.Bound(params).IsNull() {
					ok = false
					break
				}
				zp.List = append(zp.List, k.Bound(params))
			}
		}
		if !ok {
			full = false
			continue
		}
		preds = append(preds, zp)
	}
	return preds, full
}

// CompileScanZonePreds is compileZonePreds for callers outside the executor
// (the optimizer's pruned-page costing): ords maps each scan output column to
// its base-table ordinal.
func CompileScanZonePreds(filters []logical.Scalar, cols []logical.ColumnID, ords []int) []storage.ZonePred {
	preds, _ := compileZonePreds(filters, cols, ords, nil)
	return preds
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
		preds, full = compileZonePreds(filter, cols, colOrds, c.params)
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
