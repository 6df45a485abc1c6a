package systemr

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/physical"
)

// keyPair is one equi-join column pair aligned (left, right).
type keyPair struct {
	l, r logical.ColumnID
}

// joinOn is the predicate list of one join with its split into aligned
// equi-key pairs and residual predicates.
type joinOn struct {
	preds  []logical.Scalar
	keys   []keyPair
	extras []logical.Scalar
}

// classifyJoinPreds splits predicates into aligned equi-key pairs and
// residual predicates, given the columns available on each side.
func classifyJoinPreds(preds []logical.Scalar, leftCols, rightCols logical.ColSet) joinOn {
	on := joinOn{preds: preds}
	for _, p := range preds {
		if l, r, ok := equiCols(p); ok {
			switch {
			case leftCols.Contains(l) && rightCols.Contains(r):
				on.keys = append(on.keys, keyPair{l, r})
				continue
			case leftCols.Contains(r) && rightCols.Contains(l):
				on.keys = append(on.keys, keyPair{r, l})
				continue
			}
		}
		on.extras = append(on.extras, p)
	}
	return on
}

func colSetOf(cols []logical.ColumnID) logical.ColSet {
	var s logical.ColSet
	for _, c := range cols {
		s.Add(c)
	}
	return s
}

// joinCandidates costs the physical alternatives for joining left and right
// plan sets under the given predicates — nested-loop, hash, sort-merge (with
// sort enforcers as needed) and index nested-loop when the right side is a
// base relation with a usable index — and offers each to out. An
// alternative's cost and output ordering are computed first; its plan node
// (and any Sort enforcer below it) is built only if out retains it.
func (o *Optimizer) joinCandidates(kind logical.JoinKind, left, right []cand, rightLeaf logical.RelExpr, on joinOn, outRows float64, out *frontier) {
	keyed := len(on.keys) > 0
	hash := keyed && !o.Opts.DisableHashJoin
	merge := keyed && !o.Opts.DisableMergeJoin && kind != logical.FullOuterJoin
	// A merge join wants its inputs ordered on the keys and delivers the left
	// keys' order; inputs whose ordering does not already cover the keys get
	// a Sort enforcer — the mechanism by which interesting orders pay off.
	var lWant, rWant logical.Ordering
	if merge {
		for _, k := range on.keys {
			lWant = append(lWant, logical.OrderSpec{Col: k.l})
			rWant = append(rWant, logical.OrderSpec{Col: k.r})
		}
	}
	for _, l := range left {
		for _, r := range right {
			// Nested-loop join: always applicable.
			o.Metrics.PlansCosted++
			if cost := l.cost + o.Model.NLJoin(l.rows, r.rows, r.cost); out.beats(l.ord, cost) {
				out.put(cand{rows: outRows, cost: cost, ord: l.ord, plan: &physical.NLJoin{
					Props: physical.Props{Rows: outRows, Cost: cost},
					Kind:  kind, Left: l.plan, Right: r.plan, On: on.preds,
				}})
			}
			if hash {
				o.Metrics.PlansCosted++
				if cost := l.cost + r.cost + o.Model.HashJoin(l.rows, r.rows); out.beats(l.ord, cost) {
					out.put(cand{rows: outRows, cost: cost, ord: l.ord, plan: &physical.HashJoin{
						Props: physical.Props{Rows: outRows, Cost: cost},
						Kind:  kind, Left: l.plan, Right: r.plan,
						LeftKeys: pairLefts(on.keys), RightKeys: pairRights(on.keys), ExtraOn: on.extras,
					}})
				}
			}
			if merge {
				o.Metrics.PlansCosted++
				lSort, rSort := !lWant.SatisfiedBy(l.ord), !rWant.SatisfiedBy(r.ord)
				lCost, rCost := l.cost, r.cost
				if lSort {
					lCost += o.Model.Sort(l.rows)
				}
				if rSort {
					rCost += o.Model.Sort(r.rows)
				}
				if cost := lCost + rCost + o.Model.MergeJoin(l.rows, r.rows); out.beats(lWant, cost) {
					lp, rp := l.plan, r.plan
					if lSort {
						lp = &physical.Sort{Props: physical.Props{Rows: l.rows, Cost: lCost}, Input: lp, By: lWant}
					}
					if rSort {
						rp = &physical.Sort{Props: physical.Props{Rows: r.rows, Cost: rCost}, Input: rp, By: rWant}
					}
					out.put(cand{rows: outRows, cost: cost, ord: lWant, plan: &physical.MergeJoin{
						Props: physical.Props{Rows: outRows, Cost: cost},
						Kind:  kind, Left: lp, Right: rp,
						LeftKeys: pairLefts(on.keys), RightKeys: pairRights(on.keys), ExtraOn: on.extras,
					}})
				}
			}
		}
	}
	// Index nested-loop: right side must be a single base relation.
	if rightLeaf != nil && keyed && !o.Opts.DisableINLJoin &&
		(kind == logical.InnerJoin || kind == logical.LeftOuterJoin || kind == logical.SemiJoin || kind == logical.AntiJoin) {
		o.inlCandidates(kind, left, rightLeaf, on, outRows, out)
	}
}

func pairLefts(keys []keyPair) []logical.ColumnID {
	out := make([]logical.ColumnID, len(keys))
	for i, k := range keys {
		out[i] = k.l
	}
	return out
}

func pairRights(keys []keyPair) []logical.ColumnID {
	out := make([]logical.ColumnID, len(keys))
	for i, k := range keys {
		out[i] = k.r
	}
	return out
}

// matchIndex matches the longest prefix of the index's columns against the
// join keys. It returns how many keys matched and their bitmask (keys past
// the 64th are left to the residual), and appends the matched keys' left
// columns, in index order, to *leftKeys if non-nil.
func (o *Optimizer) matchIndex(scan *logical.Scan, ix *catalog.Index, keys []keyPair, leftKeys *[]logical.ColumnID) (n int, used uint64) {
	for _, ord := range ix.Cols {
		col, ok := o.ordToColID(scan, ord)
		found := -1
		for ki, k := range keys[:min(len(keys), 64)] {
			if ok && used&(1<<uint(ki)) == 0 && k.r == col {
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
			*leftKeys = append(*leftKeys, keys[found].l)
		}
	}
	return n, used
}

// inlCandidates offers, for each left plan, the cheapest index nested-loop
// join probing an index of the right base relation that matches the join
// keys. Which keys an index matches does not depend on the left plan, so it
// is worked out once per index; key and residual lists are built for
// retained plans only.
func (o *Optimizer) inlCandidates(kind logical.JoinKind, left []cand, rightLeaf logical.RelExpr, on joinOn, outRows float64, out *frontier) {
	scan, localFilters := scanOf(rightLeaf)
	if scan == nil {
		return
	}
	rStats := o.Est.Stats(scan)
	// Index probes fetch by row ID, so segment pruning does not apply here:
	// shape is taken without filters.
	tableRows, tablePages := o.Est.TableShape(scan, nil)
	type probe struct {
		ix            *catalog.Index
		matchPerOuter float64
		residuals     int
	}
	var probes []probe
	for _, ix := range scan.Table.Indexes {
		n, _ := o.matchIndex(scan, ix, on.keys, nil)
		if n == 0 {
			continue
		}
		// Matches per outer probe from the index's distinct keys.
		dist := ix.DistinctKeys
		if dist <= 0 {
			if cs, ok := rStats.Cols[mustColID(o, scan, ix.Cols[0])]; ok && cs != nil {
				dist = cs.Distinct
			}
		}
		if dist <= 0 {
			dist = 1
		}
		// Residuals: unmatched equi keys plus extras plus right-local preds.
		probes = append(probes, probe{ix, tableRows / dist, len(on.keys) - n + len(on.extras) + len(localFilters)})
	}
	for _, l := range left {
		var best *probe
		bestCost := math.Inf(1)
		for i := range probes {
			p := &probes[i]
			cost := l.cost + o.Model.INLJoin(l.rows, p.matchPerOuter, tableRows, tablePages, p.ix.Clustered) +
				o.Model.Filter(l.rows*p.matchPerOuter, p.residuals)
			if cost >= bestCost {
				continue
			}
			best, bestCost = p, cost
		}
		if best == nil {
			continue
		}
		o.Metrics.PlansCosted++
		if !out.beats(l.ord, bestCost) {
			continue
		}
		var leftKeys []logical.ColumnID
		_, used := o.matchIndex(scan, best.ix, on.keys, &leftKeys)
		var residual []logical.Scalar
		for ki, k := range on.keys {
			if used&(1<<uint(ki)) == 0 {
				residual = append(residual, &logical.Cmp{Op: logical.CmpEq, L: &logical.Col{ID: k.l}, R: &logical.Col{ID: k.r}})
			}
		}
		residual = append(residual, on.extras...)
		residual = append(residual, localFilters...)
		out.put(cand{rows: outRows, cost: bestCost, ord: l.ord, plan: &physical.INLJoin{
			Props:    physical.Props{Rows: outRows, Cost: bestCost},
			Kind:     kind,
			Left:     l.plan,
			Table:    scan.Table,
			Index:    best.ix,
			Binding:  scan.Binding,
			Cols:     scan.Cols,
			ColOrds:  o.scanOrds(scan.Cols),
			LeftKeys: leftKeys,
			ExtraOn:  residual,
		}})
	}
}

func mustColID(o *Optimizer, scan *logical.Scan, ord int) logical.ColumnID {
	if id, ok := o.ordToColID(scan, ord); ok {
		return id
	}
	return 0
}

// scanOf unwraps a leaf into its Scan and any local filters.
func scanOf(leaf logical.RelExpr) (*logical.Scan, []logical.Scalar) {
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
