package systemr

import (
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// ordToColID maps a base-table ordinal of the scan to its query column ID.
func (o *Optimizer) ordToColID(scan *logical.Scan, ord int) (logical.ColumnID, bool) {
	for _, id := range scan.Cols {
		if o.Est.Meta.Column(id).BaseOrd == ord {
			return id, true
		}
	}
	return 0, false
}

// scanOrds returns the base ordinals for the scan's output layout.
func (o *Optimizer) scanOrds(cols []logical.ColumnID) []int {
	out := make([]int, len(cols))
	for i, id := range cols {
		out[i] = o.Est.Meta.Column(id).BaseOrd
	}
	return out
}

// constEq returns the constant compared for equality with the column, if the
// predicate has the shape col = const, plus the parameter ordinal behind the
// constant (0 for a plain literal).
func constEq(p logical.Scalar, col logical.ColumnID) (datum.D, int, bool) {
	cmp, ok := p.(*logical.Cmp)
	if !ok || cmp.Op != logical.CmpEq {
		return datum.Null, 0, false
	}
	if c, ok := cmp.L.(*logical.Col); ok && c.ID == col {
		if k, ok := cmp.R.(*logical.Const); ok {
			return k.Val, k.Param, true
		}
	}
	if c, ok := cmp.R.(*logical.Col); ok && c.ID == col {
		if k, ok := cmp.L.(*logical.Const); ok {
			return k.Val, k.Param, true
		}
	}
	return datum.Null, 0, false
}

// rangeBound extracts a range bound on the column: (lo/hi, inclusive), with
// the parameter ordinals behind each bound (0 for plain literals).
func rangeBound(p logical.Scalar, col logical.ColumnID) (lo datum.D, loIncl bool, loParam int, hi datum.D, hiIncl bool, hiParam int, ok bool) {
	cmp, okc := p.(*logical.Cmp)
	if !okc {
		return
	}
	op := cmp.Op
	var k datum.D
	var kParam int
	if c, okc := cmp.L.(*logical.Col); okc && c.ID == col {
		if kk, okc := cmp.R.(*logical.Const); okc {
			k, kParam = kk.Val, kk.Param
		} else {
			return
		}
	} else if c, okc := cmp.R.(*logical.Col); okc && c.ID == col {
		if kk, okc := cmp.L.(*logical.Const); okc {
			k, kParam = kk.Val, kk.Param
			op = op.Commute()
		} else {
			return
		}
	} else {
		return
	}
	switch op {
	case logical.CmpLt:
		return datum.Null, false, 0, k, false, kParam, true
	case logical.CmpLe:
		return datum.Null, false, 0, k, true, kParam, true
	case logical.CmpGt:
		return k, false, kParam, datum.Null, false, 0, true
	case logical.CmpGe:
		return k, true, kParam, datum.Null, false, 0, true
	}
	return
}

// hasParamOrd reports whether any collected ordinal is a real parameter.
func hasParamOrd(ords []int) bool {
	for _, o := range ords {
		if o != 0 {
			return true
		}
	}
	return false
}

// accessPaths generates the candidate access paths for one base-table
// occurrence — a Scan, or a Select of (already pushed-down) filters over one:
// a sequential scan, qualified index scans, and full index scans that
// provide order.
func (o *Optimizer) accessPaths(leaf logical.RelExpr) []physical.Plan {
	scan, filters := scanOf(leaf)
	// Page count reflects zone-map segment elimination under the pushed-down
	// filters: pruned segments are never read, so the seq-scan candidate is
	// charged only the pages a real scan would touch.
	tableRows, tablePages := o.Est.TableShape(scan, filters)
	// Output rows are a logical property — identical for all candidates.
	outRows := o.Est.Stats(leaf).Rows
	ords := o.scanOrds(scan.Cols)

	var cands []physical.Plan
	// 1. Sequential scan.
	cands = append(cands, &physical.TableScan{
		Props:   physical.Props{Rows: outRows, Cost: o.Model.SeqScan(tablePages, tableRows, len(filters))},
		Table:   scan.Table,
		Binding: scan.Binding,
		Cols:    scan.Cols,
		ColOrds: ords,
		Filter:  filters,
	})

	scanStats := o.Est.Stats(scan)
	for _, ix := range scan.Table.Indexes {
		// Greedily match an equality prefix, then one range column.
		var eqKey datum.Row
		var eqParams []int
		matched := map[logical.Scalar]bool{}
		var lo, hi datum.D
		var loIncl, hiIncl bool
		var loParam, hiParam int
		sel := 1.0
		for depth, ord := range ix.Cols {
			col, ok := o.ordToColID(scan, ord)
			if !ok {
				break
			}
			var eqConst datum.D
			eqParam := 0
			eqFound := false
			for _, f := range filters {
				if matched[f] {
					continue
				}
				if v, prm, ok := constEq(f, col); ok {
					eqConst, eqParam, eqFound = v, prm, true
					matched[f] = true
					sel *= o.Est.Selectivity(f, scanStats)
					break
				}
			}
			if eqFound {
				eqKey = append(eqKey, eqConst)
				eqParams = append(eqParams, eqParam)
				continue
			}
			// No equality at this depth: try range bounds, then stop.
			for _, f := range filters {
				if matched[f] {
					continue
				}
				l, li, lp, h, hi2, hp, ok := rangeBound(f, col)
				if !ok {
					continue
				}
				matched[f] = true
				sel *= o.Est.Selectivity(f, scanStats)
				if !l.IsNull() {
					lo, loIncl, loParam = l, li, lp
				}
				if !h.IsNull() {
					hi, hiIncl, hiParam = h, hi2, hp
				}
			}
			_ = depth
			break
		}
		if !hasParamOrd(eqParams) {
			eqParams = nil // keep plans without parameters byte-identical to before
		}
		qualified := len(eqKey) > 0 || !lo.IsNull() || !hi.IsNull()
		if !qualified && !o.Opts.InterestingOrders {
			continue // full index scan only pays off for its ordering
		}
		matchRows := tableRows * sel
		var residual []logical.Scalar
		for _, f := range filters {
			if !matched[f] {
				residual = append(residual, f)
			}
		}
		cands = append(cands, &physical.IndexScan{
			Props: physical.Props{
				Rows: outRows,
				Cost: o.Model.IndexScan(matchRows, tableRows, tablePages, ix.Clustered) +
					o.Model.Filter(matchRows, len(residual)),
			},
			Table:   scan.Table,
			Index:   ix,
			Binding: scan.Binding,
			Cols:    scan.Cols,
			ColOrds: ords,
			EqKey:   eqKey, EqKeyParams: eqParams,
			Lo: lo, LoIncl: loIncl, LoParam: loParam,
			Hi: hi, HiIncl: hiIncl, HiParam: hiParam,
			Filter: residual,
		})
	}
	o.Metrics.PlansCosted += len(cands)
	return cands
}
