// Package implement is the physical plan space both enumeration
// architectures search: §3's access paths and join methods, which §6.2's
// Volcano/Cascades expresses as implementation rules over one physical
// algebra. Given a base-table leaf, a join of two candidate sets or a
// group-by, it prices every physical alternative and offers it to a Sink.
// An alternative's cost and output ordering are computed before its plan
// node is built, and the node is built only if the sink retains it, so
// losers are never allocated.
//
// The search strategies stay with their optimizers: System-R's DP, greedy
// and naive enumerators call this package per split, Cascades' implementation
// rules per group expression, so the two search one space under one cost
// model.
package implement

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/stats"
)

// Cand is a plan with the properties later steps read off it, derived once
// instead of by walking the plan for every alternative built on top of it.
type Cand struct {
	Plan       physical.Plan
	Rows, Cost float64
	Ord        logical.Ordering // Plan.Ordering()
}

// NewCand reads a built plan's properties.
func NewCand(p physical.Plan) Cand {
	rows, c := p.Estimate()
	return Cand{Plan: p, Rows: rows, Cost: c, Ord: p.Ordering()}
}

// Sink receives the alternatives of one step. Beats is asked with an
// alternative's output ordering and cost before its plan node is built; Put
// receives the built alternative only if Beats said yes.
type Sink interface {
	Beats(ord logical.Ordering, cost float64) bool
	Put(Cand)
}

// Space prices physical alternatives with one estimator and cost model.
type Space struct {
	Est   *stats.Estimator
	Model cost.Model
	// OrderedIndexScans offers a full scan of every index no filter
	// qualifies, for the order it provides (interesting orders on).
	OrderedIndexScans bool
	// NonNull holds the columns no row reaching the query's root holds NULL
	// in (NullRejected): a full index scan skips NULL keys, so it stands for
	// a scan of the table only when its leading column is one of these or is
	// declared NOT NULL.
	NonNull logical.ColSet
	// NoINL, NoMerge and NoHash shrink the join repertoire (System R had
	// only nested-loop and sort-merge).
	NoINL, NoMerge, NoHash bool
	// Costed counts the alternatives priced.
	Costed *int
}

// KeyPair is one equi-join column pair aligned (left, right).
type KeyPair struct {
	L, R logical.ColumnID
}

// On is the predicate list of one join split into aligned equi-key pairs
// and residual predicates.
type On struct {
	Preds  []logical.Scalar
	Keys   []KeyPair
	Extras []logical.Scalar
}

// LeftKeys returns the keys' left columns.
func (on On) LeftKeys() []logical.ColumnID {
	out := make([]logical.ColumnID, len(on.Keys))
	for i, k := range on.Keys {
		out[i] = k.L
	}
	return out
}

// RightKeys returns the keys' right columns.
func (on On) RightKeys() []logical.ColumnID {
	out := make([]logical.ColumnID, len(on.Keys))
	for i, k := range on.Keys {
		out[i] = k.R
	}
	return out
}

// OrderOf returns the ascending ordering on the columns.
func OrderOf(cols []logical.ColumnID) logical.Ordering {
	out := make(logical.Ordering, len(cols))
	for i, c := range cols {
		out[i] = logical.OrderSpec{Col: c}
	}
	return out
}

// EquiCols extracts (leftCol, rightCol) from an equality between two columns.
func EquiCols(p logical.Scalar) (logical.ColumnID, logical.ColumnID, bool) {
	cmp, ok := p.(*logical.Cmp)
	if !ok || cmp.Op != logical.CmpEq {
		return 0, 0, false
	}
	l, lok := cmp.L.(*logical.Col)
	r, rok := cmp.R.(*logical.Col)
	if !lok || !rok {
		return 0, 0, false
	}
	return l.ID, r.ID, true
}

// SplitOn splits a join's predicates into equi-key pairs aligned to the
// columns available on each side, and residual predicates.
func SplitOn(preds []logical.Scalar, leftCols, rightCols logical.ColSet) On {
	on := On{Preds: preds}
	for _, p := range preds {
		if l, r, ok := EquiCols(p); ok {
			switch {
			case leftCols.Contains(l) && rightCols.Contains(r):
				on.Keys = append(on.Keys, KeyPair{l, r})
				continue
			case leftCols.Contains(r) && rightCols.Contains(l):
				on.Keys = append(on.Keys, KeyPair{r, l})
				continue
			}
		}
		on.Extras = append(on.Extras, p)
	}
	return on
}

// ScanOf unwraps a base-table leaf — a Scan, or a Select of pushed-down
// filters over one — into its Scan and filters; nil for any other shape.
func ScanOf(leaf logical.RelExpr) (*logical.Scan, []logical.Scalar) {
	switch t := leaf.(type) {
	case *logical.Scan:
		return t, nil
	case *logical.Select:
		if s, ok := t.Input.(*logical.Scan); ok {
			return s, t.Filters
		}
	}
	return nil, nil
}

// NullRejected returns the columns in which no row reaching the root can
// hold NULL, because an inner join or a filter above the column's scan
// compares it for equality with another column. Dropping a scan's rows that
// hold NULL there changes no result — except under a LIMIT, which counts
// the rows it is given, so nothing above a LIMIT reaches below it.
func NullRejected(root logical.RelExpr) logical.ColSet {
	var out logical.ColSet
	var walk func(e logical.RelExpr, above logical.ColSet)
	walk = func(e logical.RelExpr, above logical.ColSet) {
		switch t := e.(type) {
		case *logical.Scan:
			for _, c := range t.Cols {
				if above.Contains(c) {
					out.Add(c)
				}
			}
		case *logical.Select:
			walk(t.Input, withEquiCols(above, t.Filters))
		case *logical.Join:
			if t.Kind == logical.InnerJoin {
				above = withEquiCols(above, t.On)
			}
			walk(t.Left, above)
			walk(t.Right, above)
		case *logical.Project:
			walk(t.Input, above)
		case *logical.GroupBy:
			walk(t.Input, above)
		case *logical.Limit:
			walk(t.Input, logical.ColSet{})
		case *logical.Union:
			walk(t.Left, above)
			walk(t.Right, above)
		}
	}
	walk(root, logical.ColSet{})
	return out
}

// withEquiCols returns set plus the columns of the column equalities among
// preds, copying set before it adds to it.
func withEquiCols(set logical.ColSet, preds []logical.Scalar) logical.ColSet {
	copied := false
	for _, p := range preds {
		if l, r, ok := EquiCols(p); ok {
			if !copied {
				set, copied = set.Copy(), true
			}
			set.Add(l)
			set.Add(r)
		}
	}
	return set
}

// ords returns the base ordinals for the scan's output layout.
func (s *Space) ords(cols []logical.ColumnID) []int {
	out := make([]int, len(cols))
	for i, id := range cols {
		out[i] = s.Est.Meta.Column(id).BaseOrd
	}
	return out
}

// nonNull reports whether no row the scan must deliver holds NULL in the
// column at the base ordinal.
func (s *Space) nonNull(scan *logical.Scan, ord int) bool {
	if scan.Table.Cols[ord].NotNull {
		return true
	}
	col, ok := s.colFor(scan, ord)
	return ok && s.NonNull.Contains(col)
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
	var k *logical.Const
	if c, okc := cmp.L.(*logical.Col); okc && c.ID == col {
		k, _ = cmp.R.(*logical.Const)
	} else if c, okc := cmp.R.(*logical.Col); okc && c.ID == col {
		k, _ = cmp.L.(*logical.Const)
		op = op.Commute()
	}
	if k == nil {
		return
	}
	switch op {
	case logical.CmpLt:
		return datum.Null, false, 0, k.Val, false, k.Param, true
	case logical.CmpLe:
		return datum.Null, false, 0, k.Val, true, k.Param, true
	case logical.CmpGt:
		return k.Val, false, k.Param, datum.Null, false, 0, true
	case logical.CmpGe:
		return k.Val, true, k.Param, datum.Null, false, 0, true
	}
	return
}

// Leaf offers the access paths of one base-table occurrence — the scan under
// its pushed-down filters, outRows rows out: a sequential scan; per index,
// an index scan over the equality prefix plus one range column the filters
// match; and, with OrderedIndexScans, a full scan of every index no filter
// qualifies, for the order it provides, where its leading column cannot hold
// NULL (NonNull). Filters past the 64th are never matched to an index; they
// stay residual.
func (s *Space) Leaf(scan *logical.Scan, filters []logical.Scalar, outRows float64, out Sink) {
	// Page count reflects zone-map segment elimination under the pushed-down
	// filters: pruned segments are never read, so the seq-scan candidate is
	// charged only the pages a real scan would touch.
	tableRows, tablePages := s.Est.TableShape(scan, filters)
	ords := s.ords(scan.Cols)

	*s.Costed++
	c := s.Model.SeqScan(tablePages, tableRows, len(filters))
	ts := physical.TableScan{Table: scan.Table, Binding: scan.Binding, Cols: scan.Cols, ColOrds: ords, Filter: filters}
	if ord := ts.Ordering(); out.Beats(ord, c) {
		ts.Props = physical.Props{Rows: outRows, Cost: c}
		kept := ts
		out.Put(Cand{Plan: &kept, Rows: outRows, Cost: c, Ord: ord})
	}

	scanStats := s.Est.Stats(scan)
	matchable := filters[:min(len(filters), 64)]
	for _, ix := range scan.Table.Indexes {
		// Greedily match an equality prefix, then one range column. The node
		// is filled in on the stack and copied out only if it is retained.
		p := physical.IndexScan{Table: scan.Table, Index: ix, Binding: scan.Binding, Cols: scan.Cols, ColOrds: ords}
		var matched uint64 // bit i: filters[i] is answered by the index
		n, sel, anyParam := 0, 1.0, false
		for _, ord := range ix.Cols {
			col, ok := s.colFor(scan, ord)
			if !ok {
				break
			}
			eq := false
			for i, f := range matchable {
				if matched&(1<<uint(i)) != 0 {
					continue
				}
				if v, prm, ok := constEq(f, col); ok {
					p.EqKey = append(p.EqKey, v)
					p.EqKeyParams = append(p.EqKeyParams, prm)
					anyParam = anyParam || prm != 0
					matched |= 1 << uint(i)
					n++
					sel *= s.Est.Selectivity(f, scanStats)
					eq = true
					break
				}
			}
			if eq {
				continue
			}
			// No equality at this depth: take the first lower and the first
			// upper bound on the column, then stop. Further bounds on it stay
			// residual filters.
			for i, f := range matchable {
				if matched&(1<<uint(i)) != 0 {
					continue
				}
				lo, loIncl, loParam, hi, hiIncl, hiParam, ok := rangeBound(f, col)
				switch {
				case !ok:
					continue
				case !lo.IsNull() && p.Lo.IsNull():
					p.Lo, p.LoIncl, p.LoParam = lo, loIncl, loParam
				case !hi.IsNull() && p.Hi.IsNull():
					p.Hi, p.HiIncl, p.HiParam = hi, hiIncl, hiParam
				default:
					continue
				}
				matched |= 1 << uint(i)
				n++
				sel *= s.Est.Selectivity(f, scanStats)
			}
			break
		}
		if !anyParam {
			p.EqKeyParams = nil // keep plans without parameters byte-identical
		}
		if len(p.EqKey) == 0 && p.Lo.IsNull() && p.Hi.IsNull() {
			// A full index scan only pays off for its ordering, and it
			// skips NULL keys.
			if !s.OrderedIndexScans || !s.nonNull(scan, ix.Cols[0]) {
				continue
			}
		}
		*s.Costed++
		matchRows := tableRows * sel
		c := s.Model.IndexScan(matchRows, tableRows, tablePages, ix.Clustered) +
			s.Model.Filter(matchRows, len(filters)-n)
		ord := p.Ordering()
		if !out.Beats(ord, c) {
			continue
		}
		for i, f := range filters {
			if i >= 64 || matched&(1<<uint(i)) == 0 {
				p.Filter = append(p.Filter, f)
			}
		}
		p.Props = physical.Props{Rows: outRows, Cost: c}
		kept := p
		out.Put(Cand{Plan: &kept, Rows: outRows, Cost: c, Ord: ord})
	}
}

// Join offers the alternatives for joining every left with every right
// candidate under the split predicates, producing outRows rows:
// nested-loop, hash, sort-merge (with a Sort enforcer under each input whose
// ordering does not cover the keys — the mechanism by which interesting
// orders pay off), and, when rightLeaf is a base-table leaf (Scan or Select
// over Scan) with an index matching the keys, the cheapest index
// nested-loop probe per left candidate.
func (s *Space) Join(kind logical.JoinKind, left, right []Cand, rightLeaf logical.RelExpr, on On, outRows float64, out Sink) {
	keyed := len(on.Keys) > 0
	hash := keyed && !s.NoHash
	merge := keyed && !s.NoMerge && kind != logical.FullOuterJoin
	// A merge join wants its inputs ordered on the keys and delivers the left
	// keys' order.
	var lWant, rWant logical.Ordering
	if merge {
		for _, k := range on.Keys {
			lWant = append(lWant, logical.OrderSpec{Col: k.L})
			rWant = append(rWant, logical.OrderSpec{Col: k.R})
		}
	}
	for _, l := range left {
		for _, r := range right {
			// Nested-loop join: always applicable.
			*s.Costed++
			if c := l.Cost + s.Model.NLJoin(l.Rows, r.Rows, r.Cost); out.Beats(l.Ord, c) {
				out.Put(Cand{Rows: outRows, Cost: c, Ord: l.Ord, Plan: &physical.NLJoin{
					Props: physical.Props{Rows: outRows, Cost: c},
					Kind:  kind, Left: l.Plan, Right: r.Plan, On: on.Preds,
				}})
			}
			if hash {
				*s.Costed++
				if c := l.Cost + r.Cost + s.Model.HashJoin(l.Rows, r.Rows); out.Beats(l.Ord, c) {
					out.Put(Cand{Rows: outRows, Cost: c, Ord: l.Ord, Plan: &physical.HashJoin{
						Props: physical.Props{Rows: outRows, Cost: c},
						Kind:  kind, Left: l.Plan, Right: r.Plan,
						LeftKeys: on.LeftKeys(), RightKeys: on.RightKeys(), ExtraOn: on.Extras,
					}})
				}
			}
			if merge {
				*s.Costed++
				lSort, rSort := !lWant.SatisfiedBy(l.Ord), !rWant.SatisfiedBy(r.Ord)
				lCost, rCost := l.Cost, r.Cost
				if lSort {
					lCost += s.Model.Sort(l.Rows)
				}
				if rSort {
					rCost += s.Model.Sort(r.Rows)
				}
				if c := lCost + rCost + s.Model.MergeJoin(l.Rows, r.Rows); out.Beats(lWant, c) {
					lp, rp := l.Plan, r.Plan
					if lSort {
						lp = &physical.Sort{Props: physical.Props{Rows: l.Rows, Cost: lCost}, Input: lp, By: lWant}
					}
					if rSort {
						rp = &physical.Sort{Props: physical.Props{Rows: r.Rows, Cost: rCost}, Input: rp, By: rWant}
					}
					out.Put(Cand{Rows: outRows, Cost: c, Ord: lWant, Plan: &physical.MergeJoin{
						Props: physical.Props{Rows: outRows, Cost: c},
						Kind:  kind, Left: lp, Right: rp,
						LeftKeys: on.LeftKeys(), RightKeys: on.RightKeys(), ExtraOn: on.Extras,
					}})
				}
			}
		}
	}
	if keyed && !s.NoINL &&
		(kind == logical.InnerJoin || kind == logical.LeftOuterJoin || kind == logical.SemiJoin || kind == logical.AntiJoin) {
		if scan, filters := ScanOf(rightLeaf); scan != nil {
			s.indexJoin(kind, left, scan, filters, on, outRows, out)
		}
	}
}

// probeKeys matches the longest prefix of the index's columns against the
// join keys' right columns. It returns how many keys matched and their
// bitmask (keys past the 64th are left to the residual), and appends the
// matched keys' left columns, in index order, to *leftKeys if non-nil.
func (s *Space) probeKeys(scan *logical.Scan, ix *catalog.Index, keys []KeyPair, leftKeys *[]logical.ColumnID) (n int, used uint64) {
	for _, ord := range ix.Cols {
		col, ok := s.colFor(scan, ord)
		found := -1
		for ki, k := range keys[:min(len(keys), 64)] {
			if ok && used&(1<<uint(ki)) == 0 && k.R == col {
				found = ki
				break
			}
		}
		if found < 0 {
			break
		}
		used |= 1 << uint(found)
		n++
		if leftKeys != nil {
			*leftKeys = append(*leftKeys, keys[found].L)
		}
	}
	return n, used
}

// colFor maps a base-table ordinal to the scan column holding it, without
// materializing the scan's ordinals.
func (s *Space) colFor(scan *logical.Scan, ord int) (logical.ColumnID, bool) {
	for _, id := range scan.Cols {
		if s.Est.Meta.Column(id).BaseOrd == ord {
			return id, true
		}
	}
	return 0, false
}

// indexJoin offers, for each left candidate, the cheapest index nested-loop
// join probing an index of the right base table that matches the join keys;
// the right leaf's filters become residuals. Which keys an index matches does
// not depend on the left candidate, so it is worked out once per index; key
// and residual lists are built for retained plans only.
func (s *Space) indexJoin(kind logical.JoinKind, left []Cand, scan *logical.Scan, filters []logical.Scalar, on On, outRows float64, out Sink) {
	rStats := s.Est.Stats(scan)
	// Index probes fetch by row ID, so segment pruning does not apply here:
	// shape is taken without filters.
	tableRows, tablePages := s.Est.TableShape(scan, nil)
	type probe struct {
		ix            *catalog.Index
		matchPerOuter float64
		residuals     int
	}
	var probes []probe
	for _, ix := range scan.Table.Indexes {
		n, _ := s.probeKeys(scan, ix, on.Keys, nil)
		if n == 0 {
			continue
		}
		// Matches per outer probe from the index's distinct keys.
		dist := ix.DistinctKeys
		if dist <= 0 {
			if id, ok := s.colFor(scan, ix.Cols[0]); ok {
				if cs, ok := rStats.Cols[id]; ok && cs != nil {
					dist = cs.Distinct
				}
			}
		}
		if dist <= 0 {
			dist = 1
		}
		// Residuals: unmatched equi keys plus extras plus the leaf's filters.
		probes = append(probes, probe{ix, tableRows / dist, len(on.Keys) - n + len(on.Extras) + len(filters)})
	}
	for _, l := range left {
		var best *probe
		bestCost := math.Inf(1)
		for i := range probes {
			p := &probes[i]
			c := l.Cost + s.Model.INLJoin(l.Rows, p.matchPerOuter, tableRows, tablePages, p.ix.Clustered) +
				s.Model.Filter(l.Rows*p.matchPerOuter, p.residuals)
			if c >= bestCost {
				continue
			}
			best, bestCost = p, c
		}
		if best == nil {
			continue
		}
		*s.Costed++
		if !out.Beats(l.Ord, bestCost) {
			continue
		}
		var leftKeys []logical.ColumnID
		_, used := s.probeKeys(scan, best.ix, on.Keys, &leftKeys)
		var residual []logical.Scalar
		for ki, k := range on.Keys {
			if used&(1<<uint(ki)) == 0 {
				residual = append(residual, &logical.Cmp{Op: logical.CmpEq, L: &logical.Col{ID: k.L}, R: &logical.Col{ID: k.R}})
			}
		}
		residual = append(residual, on.Extras...)
		residual = append(residual, filters...)
		out.Put(Cand{Rows: outRows, Cost: bestCost, Ord: l.Ord, Plan: &physical.INLJoin{
			Props: physical.Props{Rows: outRows, Cost: bestCost},
			Kind:  kind, Left: l.Plan,
			Table: scan.Table, Index: best.ix, Binding: scan.Binding,
			Cols: scan.Cols, ColOrds: s.ords(scan.Cols),
			LeftKeys: leftKeys, ExtraOn: residual,
		}})
	}
}

// GroupBy offers, per input candidate, hash aggregation and — when there
// are grouping columns — stream aggregation, behind a Sort enforcer when the
// candidate is not ordered on them, producing outRows groups.
func (s *Space) GroupBy(groupCols []logical.ColumnID, aggs []logical.AggItem, in []Cand, outRows float64, out Sink) {
	want := OrderOf(groupCols)
	for _, c := range in {
		*s.Costed++
		if hc := c.Cost + s.Model.HashGroupBy(c.Rows, len(aggs)); out.Beats(nil, hc) {
			out.Put(Cand{Rows: outRows, Cost: hc, Plan: &physical.HashGroupBy{
				Props: physical.Props{Rows: outRows, Cost: hc},
				Input: c.Plan, GroupCols: groupCols, Aggs: aggs,
			}})
		}
		if len(groupCols) == 0 {
			continue
		}
		*s.Costed++
		sorted := want.SatisfiedBy(c.Ord)
		srcCost := c.Cost
		if !sorted {
			srcCost += s.Model.Sort(c.Rows)
		}
		if sc := srcCost + s.Model.StreamGroupBy(c.Rows, len(aggs)); out.Beats(want, sc) {
			src := c.Plan
			if !sorted {
				src = &physical.Sort{Props: physical.Props{Rows: c.Rows, Cost: srcCost}, Input: src, By: want}
			}
			out.Put(Cand{Rows: outRows, Cost: sc, Ord: want, Plan: &physical.StreamGroupBy{
				Props: physical.Props{Rows: outRows, Cost: sc},
				Input: src, GroupCols: groupCols, Aggs: aggs,
			}})
		}
	}
}
