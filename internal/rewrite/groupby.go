package rewrite

import (
	"repro/internal/datum"
	"repro/internal/logical"
)

// PushDownGroupBy implements eager (staged) aggregation — Figure 4 of the
// paper: a GroupBy above an inner equi-join, whose aggregate arguments all
// come from one join side, is split into a partial aggregate below the join
// on that side (grouped by the needed group columns plus the join columns)
// and a combining aggregate above. This is valid because every row of a
// partial group carries identical join keys, so the join multiplies whole
// partitions uniformly; COUNT combines by SUM, SUM by SUM, MIN/MAX by
// themselves.
//
// The split is made only where it is exact: the combined answer must equal
// the unstaged one to the bit. COUNT, MIN, MAX and SUM over INT (int64
// addition, wrapping alike in any grouping) are; SUM over FLOAT is not, since
// the combining SUM adds partial sums already rounded to float64 and so
// rounds the answer twice; nor is AVG, whose accumulator adds float64(x) to
// an exact float sum, which an INT partial sum matches only while the values
// and their sum stay below 2^53. An inexact or DISTINCT aggregate blocks the
// rewrite.
//
// Each aggregate is staged at most once: a partial aggregate is not split
// again, so a second application changes nothing. It returns whether the
// tree changed.
func PushDownGroupBy(q *logical.Query) bool {
	changed := false
	q.Root = pushGroupByRel(q.Root, q.Meta, &changed)
	return changed
}

func pushGroupByRel(e logical.RelExpr, md *logical.Metadata, changed *bool) logical.RelExpr {
	ch := logical.Children(e)
	if len(ch) > 0 {
		nch := make([]logical.RelExpr, len(ch))
		for i, c := range ch {
			nch[i] = pushGroupByRel(c, md, changed)
		}
		e = logical.WithChildren(e, nch)
	}
	g, ok := e.(*logical.GroupBy)
	if !ok || len(g.Aggs) == 0 || len(g.GroupCols) == 0 || md.Column(g.Aggs[0].ID).Partial {
		return e
	}
	join, ok := g.Input.(*logical.Join)
	if !ok || join.Kind != logical.InnerJoin {
		return e
	}
	if out, ok := eagerAggregate(g, join, md); ok {
		*changed = true
		return out
	}
	return e
}

// eagerAggregate builds the staged form, trying the left side then the right.
func eagerAggregate(g *logical.GroupBy, join *logical.Join, md *logical.Metadata) (logical.RelExpr, bool) {
	for _, side := range []bool{true, false} {
		if out, ok := eagerAggregateSide(g, join, md, side); ok {
			return out, true
		}
	}
	return nil, false
}

// exactSplit reports whether a partial and a combining aggregate reproduce
// a's result to the bit.
func exactSplit(a logical.AggItem, md *logical.Metadata) bool {
	switch a.Fn {
	case logical.AggCount, logical.AggMin, logical.AggMax:
		return true
	case logical.AggSum:
		return md.Column(a.ID).Kind == datum.KindInt // a SUM has its argument's kind
	}
	return false
}

// partialName names the partial aggregate's output column.
var partialName = map[logical.AggFn]string{logical.AggCount: "cnt1", logical.AggSum: "sum1",
	logical.AggMin: "min1", logical.AggMax: "max1"}

func eagerAggregateSide(g *logical.GroupBy, join *logical.Join, md *logical.Metadata, left bool) (logical.RelExpr, bool) {
	target := join.Left
	if !left {
		target = join.Right
	}
	// Idempotence: if the side is already an aggregation (a partial from a
	// previous application, or a view), pushing again only stacks redundant
	// group-bys.
	if _, ok := target.(*logical.GroupBy); ok {
		return nil, false
	}
	targetCols := target.OutputCols()

	// Every aggregate argument must come from the target side; DISTINCT and
	// inexact combinations block staging.
	for _, a := range g.Aggs {
		if a.Distinct || !exactSplit(a, md) {
			return nil, false
		}
		if a.Arg != nil && !logical.ScalarCols(a.Arg).SubsetOf(targetCols) {
			return nil, false
		}
	}
	// Join predicates must be column-to-column equalities (so partial groups
	// share join behaviour); collect the target-side join columns.
	var joinCols []logical.ColumnID
	for _, p := range join.On {
		cmp, ok := p.(*logical.Cmp)
		if !ok || cmp.Op != logical.CmpEq {
			return nil, false
		}
		l, lok := cmp.L.(*logical.Col)
		r, rok := cmp.R.(*logical.Col)
		if !lok || !rok {
			return nil, false
		}
		switch {
		case targetCols.Contains(l.ID):
			joinCols = append(joinCols, l.ID)
		case targetCols.Contains(r.ID):
			joinCols = append(joinCols, r.ID)
		default:
			return nil, false
		}
	}

	// Partial group columns: group columns from the target side + join cols.
	var partialGroup []logical.ColumnID
	seen := map[logical.ColumnID]bool{}
	for _, c := range g.GroupCols {
		if targetCols.Contains(c) {
			partialGroup = append(partialGroup, c)
			seen[c] = true
		}
	}
	for _, c := range joinCols {
		if !seen[c] {
			partialGroup = append(partialGroup, c)
			seen[c] = true
		}
	}
	if len(partialGroup) == 0 {
		return nil, false
	}

	// Build partial aggregates and the combining forms, which keep the
	// original output column IDs.
	var partialAggs, finalAggs []logical.AggItem
	for _, a := range g.Aggs {
		combine := a.Fn
		if a.Fn == logical.AggCount {
			combine = logical.AggSum
		}
		p := md.AddColumn(logical.ColumnMeta{Name: partialName[a.Fn], Kind: md.Column(a.ID).Kind, Partial: true})
		partialAggs = append(partialAggs, logical.AggItem{ID: p, Fn: a.Fn, Arg: a.Arg})
		finalAggs = append(finalAggs, logical.AggItem{ID: a.ID, Fn: combine, Arg: &logical.Col{ID: p}})
	}

	partial := &logical.GroupBy{Input: target, GroupCols: partialGroup, Aggs: partialAggs}
	var newJoin *logical.Join
	if left {
		newJoin = &logical.Join{Kind: logical.InnerJoin, Left: partial, Right: join.Right, On: join.On}
	} else {
		newJoin = &logical.Join{Kind: logical.InnerJoin, Left: join.Left, Right: partial, On: join.On}
	}
	return &logical.GroupBy{Input: newJoin, GroupCols: g.GroupCols, Aggs: finalAggs}, true
}
