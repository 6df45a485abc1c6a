package rewrite

import (
	"repro/internal/datum"
	"repro/internal/logical"
)

// UnnestStats reports what the unnesting pass accomplished (E8 reads these).
type UnnestStats struct {
	SemiJoins     int // IN / EXISTS turned into semijoins
	AntiJoins     int // NOT IN / NOT EXISTS turned into antijoins
	OuterJoinAggs int // correlated scalar-aggregate subqueries turned into LOJ + group-by
	Remaining     int // subqueries left for nested-iteration execution
}

// UnnestSubqueries rewrites nested subqueries in filters into joins where the
// transformation is semantics-preserving (§4.2.2):
//
//   - [NOT] EXISTS (corr. SPJ)   → semi/anti join (Dayal's semijoin view)
//   - e IN (corr. SPJ)           → semijoin on e = output ∧ correlation
//   - e NOT IN (...)             → antijoin, only when NULLs are impossible
//   - e ⟨cmp⟩ (corr. scalar agg) → left outerjoin + group-by + having
//     (the Muralikrishna/Dayal form; COUNT(*) becomes a count over a marker
//     column so empty groups count zero)
//
// Subqueries that do not match a safe pattern are left in place; the engine
// optimizes each one's body into a sub-plan, and the executor runs it once
// per outer row (nested iteration).
func UnnestSubqueries(q *logical.Query) UnnestStats {
	var st UnnestStats
	q.Root = unnestRel(q.Root, q.Meta, &st)
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		for _, s := range logical.Scalars(e) {
			logical.VisitScalar(s, func(sc logical.Scalar) {
				if _, ok := sc.(*logical.Subquery); ok {
					st.Remaining++
				}
			})
		}
	})
	return st
}

func unnestRel(e logical.RelExpr, md *logical.Metadata, st *UnnestStats) logical.RelExpr {
	// Bottom-up.
	ch := logical.Children(e)
	if len(ch) > 0 {
		nch := make([]logical.RelExpr, len(ch))
		for i, c := range ch {
			nch[i] = unnestRel(c, md, st)
		}
		e = logical.WithChildren(e, nch)
	}
	sel, ok := e.(*logical.Select)
	if !ok {
		return e
	}
	input := sel.Input
	var remaining []logical.Scalar
	for i := 0; i < len(sel.Filters); i++ {
		f := normalizeNegation(sel.Filters[i])
		if out, ok := unnestFilter(input, f, md, st); ok {
			input = out
			continue
		}
		remaining = append(remaining, sel.Filters[i])
	}
	if len(remaining) == 0 {
		return input
	}
	return &logical.Select{Input: input, Filters: remaining}
}

// normalizeNegation folds NOT(subquery) into the subquery's Negated flag.
func normalizeNegation(f logical.Scalar) logical.Scalar {
	if n, ok := f.(*logical.Not); ok {
		if sub, ok := n.E.(*logical.Subquery); ok {
			cp := *sub
			cp.Negated = !sub.Negated
			return &cp
		}
	}
	return f
}

// unnestFilter attempts to convert one filter over the current input into a
// join; it returns the new input and true on success.
func unnestFilter(input logical.RelExpr, f logical.Scalar, md *logical.Metadata, st *UnnestStats) (logical.RelExpr, bool) {
	switch t := f.(type) {
	case *logical.Subquery:
		switch t.Mode {
		case logical.SubExists:
			return unnestExists(input, t, md, st)
		case logical.SubIn:
			return unnestIn(input, t, md, st)
		}
	case *logical.Cmp:
		// e cmp (scalar agg subquery) — on either side.
		if sub, ok := t.R.(*logical.Subquery); ok && sub.Mode == logical.SubScalar && !sub.Negated {
			return unnestScalarAgg(input, t, sub, false, md, st)
		}
		if sub, ok := t.L.(*logical.Subquery); ok && sub.Mode == logical.SubScalar && !sub.Negated {
			return unnestScalarAgg(input, t, sub, true, md, st)
		}
	}
	return input, false
}

func unnestExists(input logical.RelExpr, sub *logical.Subquery, md *logical.Metadata, st *UnnestStats) (logical.RelExpr, bool) {
	if hasGroupBy(sub.Plan) || logical.HasSubqueryRel(sub.Plan) {
		return input, false
	}
	plan, preds, ok := pullCorrelated(sub.Plan, sub.OuterCols)
	if !ok {
		return input, false
	}
	kind := logical.SemiJoin
	if sub.Negated {
		kind = logical.AntiJoin
		st.AntiJoins++
	} else {
		st.SemiJoins++
	}
	return &logical.Join{Kind: kind, Left: input, Right: plan, On: preds}, true
}

func unnestIn(input logical.RelExpr, sub *logical.Subquery, md *logical.Metadata, st *UnnestStats) (logical.RelExpr, bool) {
	if hasGroupBy(sub.Plan) || logical.HasSubqueryRel(sub.Plan) {
		return input, false
	}
	out := sub.OutCol
	if out == 0 {
		var ok bool
		out, ok = firstOutputCol(sub.Plan)
		if !ok {
			return input, false
		}
	}
	if sub.Negated {
		// NOT IN is an antijoin only when neither side can be NULL.
		lcol, lok := sub.Scalar.(*logical.Col)
		if !lok || !notNullCol(lcol.ID, md) || !notNullCol(out, md) {
			return input, false
		}
	}
	plan, preds, ok := pullCorrelated(sub.Plan, sub.OuterCols)
	if !ok {
		return input, false
	}
	preds = append(preds, &logical.Cmp{Op: logical.CmpEq, L: sub.Scalar, R: &logical.Col{ID: out}})
	kind := logical.SemiJoin
	if sub.Negated {
		kind = logical.AntiJoin
		st.AntiJoins++
	} else {
		st.SemiJoins++
	}
	return &logical.Join{Kind: kind, Left: input, Right: plan, On: preds}, true
}

// unnestScalarAgg handles e ⟨cmp⟩ (SELECT agg(...) FROM ... WHERE corr) — the
// paper's Dept.num_machines ≥ (SELECT COUNT(*) ...) example. The outer block
// must expose unique keys (primary keys of all its base tables) so grouping
// restores exactly one row per outer row.
func unnestScalarAgg(input logical.RelExpr, cmp *logical.Cmp, sub *logical.Subquery, subOnLeft bool, md *logical.Metadata, st *UnnestStats) (logical.RelExpr, bool) {
	if sub.OuterCols.Empty() {
		return input, false // uncorrelated: evaluated once anyway
	}
	// Peel passthrough projections to reach the scalar GroupBy.
	plan := sub.Plan
	refID := logical.ColumnID(0)
	for {
		if p, ok := plan.(*logical.Project); ok && p.Passthrough() {
			if refID == 0 {
				if len(p.Items) == 0 {
					return input, false
				}
				refID = p.Items[0].ID
			}
			plan = p.Input
			continue
		}
		break
	}
	g, ok := plan.(*logical.GroupBy)
	if !ok || len(g.GroupCols) != 0 || len(g.Aggs) == 0 {
		return input, false
	}
	if refID == 0 {
		refID = g.Aggs[0].ID
	}
	// The compared value must be the (single) aggregate output.
	aggIdx := -1
	for i, a := range g.Aggs {
		if a.ID == refID {
			aggIdx = i
		}
	}
	if aggIdx < 0 {
		return input, false
	}
	if hasGroupBy(g.Input) || logical.HasSubqueryRel(g.Input) {
		return input, false
	}
	// The outer side needs unique keys to group back to one row per input row.
	if !hasUniqueKeys(input, md) {
		return input, false
	}
	body, preds, ok := pullCorrelated(g.Input, sub.OuterCols)
	if !ok || len(preds) == 0 {
		return input, false
	}
	// Add a marker column so COUNT(*) counts matches, not padded rows.
	marker := md.AddColumn(logical.ColumnMeta{Name: "m", Kind: datum.KindInt})
	items := passthroughOf(body)
	items = append(items, logical.ProjectItem{ID: marker, Expr: &logical.Const{Val: datum.NewInt(1)}})
	body = &logical.Project{Input: body, Items: items}

	loj := &logical.Join{Kind: logical.LeftOuterJoin, Left: input, Right: body, On: preds}

	// Group on every outer column (the unique keys make groups = rows).
	groupCols := input.OutputCols().Ordered()
	aggs := make([]logical.AggItem, len(g.Aggs))
	for i, a := range g.Aggs {
		na := a
		if a.Fn == logical.AggCount && a.Arg == nil {
			na.Arg = &logical.Col{ID: marker} // COUNT(*) → COUNT(m)
		}
		aggs[i] = na
	}
	grouped := &logical.GroupBy{Input: loj, GroupCols: groupCols, Aggs: aggs}

	// The comparison becomes a HAVING-style filter above the grouping.
	var filter logical.Scalar
	if subOnLeft {
		filter = &logical.Cmp{Op: cmp.Op, L: &logical.Col{ID: refID}, R: cmp.R}
	} else {
		filter = &logical.Cmp{Op: cmp.Op, L: cmp.L, R: &logical.Col{ID: refID}}
	}
	st.OuterJoinAggs++
	return &logical.Select{Input: grouped, Filters: []logical.Scalar{filter}}, true
}

// passthroughOf builds identity projection items for a node's outputs.
func passthroughOf(e logical.RelExpr) []logical.ProjectItem {
	var items []logical.ProjectItem
	e.OutputCols().ForEach(func(c logical.ColumnID) {
		items = append(items, logical.ProjectItem{ID: c, Expr: &logical.Col{ID: c}})
	})
	return items
}

// hasUniqueKeys reports whether every base table occurrence in e declares a
// primary key whose columns appear in e's output (so the output has a key).
func hasUniqueKeys(e logical.RelExpr, md *logical.Metadata) bool {
	out := e.OutputCols()
	ok := true
	sawScan := false
	logical.VisitRel(e, func(n logical.RelExpr) {
		switch t := n.(type) {
		case *logical.Scan:
			sawScan = true
			if len(t.Table.PrimaryKey) == 0 {
				ok = false
				return
			}
			for _, ord := range t.Table.PrimaryKey {
				found := false
				for _, id := range t.Cols {
					if md.Column(id).BaseOrd == ord {
						if out.Contains(id) {
							found = true
						}
						break
					}
				}
				if !found {
					ok = false
				}
			}
		case *logical.GroupBy, *logical.Limit, *logical.Values:
			ok = false
		}
	})
	return ok && sawScan
}

func notNullCol(id logical.ColumnID, md *logical.Metadata) bool {
	cm := md.Column(id)
	return cm.Base != nil && cm.Base.Cols[cm.BaseOrd].NotNull
}

func hasGroupBy(e logical.RelExpr) bool {
	found := false
	logical.VisitRel(e, func(n logical.RelExpr) {
		if _, ok := n.(*logical.GroupBy); ok {
			found = true
		}
	})
	return found
}

// firstOutputCol finds the column ID of the subquery's first (and for IN,
// only) projected column.
func firstOutputCol(e logical.RelExpr) (logical.ColumnID, bool) {
	switch t := e.(type) {
	case *logical.Project:
		if len(t.Items) == 0 {
			return 0, false
		}
		return t.Items[0].ID, true
	case *logical.GroupBy:
		if len(t.GroupCols) > 0 {
			return t.GroupCols[0], true
		}
		if len(t.Aggs) > 0 {
			return t.Aggs[0].ID, true
		}
		return 0, false
	case *logical.Select:
		return firstOutputCol(t.Input)
	case *logical.Limit:
		return firstOutputCol(t.Input)
	case *logical.Scan:
		if len(t.Cols) == 0 {
			return 0, false
		}
		return t.Cols[0], true
	case *logical.Values:
		if len(t.Cols) == 0 {
			return 0, false
		}
		return t.Cols[0], true
	}
	return 0, false
}

// pullCorrelated removes conjuncts referencing outer columns from Select
// nodes inside e, returning the cleansed tree and the pulled predicates. It
// fails (ok=false) when a correlated predicate sits somewhere it cannot be
// pulled from (under grouping, limits or the null-producing side of an outer
// join), or when pulled predicates would reference pruned columns.
func pullCorrelated(e logical.RelExpr, outer logical.ColSet) (logical.RelExpr, []logical.Scalar, bool) {
	switch t := e.(type) {
	case *logical.Select:
		in, preds, ok := pullCorrelated(t.Input, outer)
		if !ok {
			return nil, nil, false
		}
		var keep []logical.Scalar
		for _, f := range t.Filters {
			if logical.ScalarCols(f).Intersects(outer) {
				preds = append(preds, f)
			} else {
				keep = append(keep, f)
			}
		}
		if len(keep) == 0 {
			return in, preds, true
		}
		return &logical.Select{Input: in, Filters: keep}, preds, true
	case *logical.Project:
		in, preds, ok := pullCorrelated(t.Input, outer)
		if !ok {
			return nil, nil, false
		}
		if len(preds) == 0 {
			return &logical.Project{Input: in, Items: t.Items}, nil, true
		}
		// Extend the projection so pulled predicates keep their inputs.
		items := append([]logical.ProjectItem{}, t.Items...)
		have := t.OutputCols()
		for _, p := range preds {
			logical.ScalarCols(p).Difference(outer).ForEach(func(c logical.ColumnID) {
				if !have.Contains(c) && in.OutputCols().Contains(c) {
					items = append(items, logical.ProjectItem{ID: c, Expr: &logical.Col{ID: c}})
					have.Add(c)
				}
			})
		}
		// If a needed column is still missing, the projection computed it
		// away; give up.
		for _, p := range preds {
			if !logical.ScalarCols(p).Difference(outer).SubsetOf(have) {
				return nil, nil, false
			}
		}
		return &logical.Project{Input: in, Items: items}, preds, true
	case *logical.Join:
		if t.Kind == logical.InnerJoin {
			l, lp, ok := pullCorrelated(t.Left, outer)
			if !ok {
				return nil, nil, false
			}
			r, rp, ok := pullCorrelated(t.Right, outer)
			if !ok {
				return nil, nil, false
			}
			var on, pulled []logical.Scalar
			for _, f := range t.On {
				if logical.ScalarCols(f).Intersects(outer) {
					pulled = append(pulled, f)
				} else {
					on = append(on, f)
				}
			}
			pulled = append(pulled, lp...)
			pulled = append(pulled, rp...)
			return &logical.Join{Kind: logical.InnerJoin, Left: l, Right: r, On: on}, pulled, true
		}
		// Correlation under other join kinds is unsafe to pull.
		if logical.FreeCols(e).Intersects(outer) {
			return nil, nil, false
		}
		return e, nil, true
	case *logical.Scan, *logical.Values:
		return e, nil, true
	default:
		if logical.FreeCols(e).Intersects(outer) {
			return nil, nil, false
		}
		return e, nil, true
	}
}
