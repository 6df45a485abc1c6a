package logical

import (
	"repro/internal/datum"
)

// NormalizeOptions controls which normalization rules run, letting
// experiments compare merged vs. unmerged query shapes (E7).
type NormalizeOptions struct {
	// FoldConstants evaluates constant subexpressions.
	FoldConstants bool
	// PushSelections pushes filters toward the leaves and into join
	// conditions.
	PushSelections bool
	// MergeProjects collapses Project(Project) and removes identity
	// projections — this is what "unfolds" SPJ views into the parent block
	// (§4.2.1).
	MergeProjects bool
	// SimplifyOuterJoins converts outer joins to inner joins under
	// null-rejecting predicates.
	SimplifyOuterJoins bool

	// outer is the query's Query.Outer: columns a predicate may read and
	// still be pushed as if they were constants.
	outer ColSet
}

// DefaultNormalize enables every rule.
func DefaultNormalize() NormalizeOptions {
	return NormalizeOptions{
		FoldConstants:      true,
		PushSelections:     true,
		MergeProjects:      true,
		SimplifyOuterJoins: true,
	}
}

// NormalizeQuery applies the enabled rewrite rules to q.Root in place, to
// fixpoint (bounded), treating q.Outer as constants. It reports whether the
// tree changed.
func NormalizeQuery(q *Query, opts NormalizeOptions) bool {
	opts.outer = q.Outer
	changed := false
	for pass := 0; pass < 20; pass++ {
		did := false
		q.Root = normalizeNode(q.Root, opts, &did)
		if !did {
			break
		}
		changed = true
	}
	return changed
}

func normalizeNode(e RelExpr, opts NormalizeOptions, changed *bool) RelExpr {
	// Recurse first (bottom-up).
	ch := Children(e)
	if len(ch) > 0 {
		nch := make([]RelExpr, len(ch))
		mutated := false
		for i, c := range ch {
			nch[i] = normalizeNode(c, opts, changed)
			if nch[i] != c {
				mutated = true
			}
		}
		if mutated {
			e = WithChildren(e, nch)
		}
	}

	if opts.FoldConstants {
		e = foldConstantsNode(e, changed)
	}

	switch t := e.(type) {
	case *Select:
		// Drop always-true filters.
		var kept []Scalar
		for _, f := range t.Filters {
			// Param-tagged constants are kept: a TRUE binding is only true for
			// this probe, and the filter must survive for re-binding.
			if c, ok := f.(*Const); ok && c.Param == 0 && !c.Val.IsNull() && c.Val.Kind() == datum.KindBool && c.Val.Bool() {
				*changed = true
				continue
			}
			kept = append(kept, f)
		}
		if len(kept) == 0 {
			*changed = true
			return t.Input
		}
		if len(kept) != len(t.Filters) {
			t = &Select{Input: t.Input, Filters: kept}
		}
		// Merge Select(Select).
		if inner, ok := t.Input.(*Select); ok {
			*changed = true
			return &Select{Input: inner.Input, Filters: append(append([]Scalar{}, inner.Filters...), t.Filters...)}
		}
		if opts.PushSelections {
			if out, did := pushSelect(t, opts); did {
				*changed = true
				return out
			}
		}
		return t
	case *Project:
		if opts.MergeProjects {
			// Merge Project(Project): substitute inner expressions.
			if inner, ok := t.Input.(*Project); ok {
				sub := map[ColumnID]Scalar{}
				for _, it := range inner.Items {
					sub[it.ID] = it.Expr
				}
				items := make([]ProjectItem, len(t.Items))
				ok := true
				for i, it := range t.Items {
					ni := ProjectItem{ID: it.ID, Expr: substituteCols(it.Expr, sub)}
					if ni.Expr == nil {
						ok = false
						break
					}
					items[i] = ni
				}
				if ok {
					*changed = true
					return &Project{Input: inner.Input, Items: items}
				}
			}
			// Passthrough projections only restrict columns; removing them
			// exposes the block underneath (view merging). Column pruning
			// re-narrows scans afterwards.
			if t.Passthrough() {
				*changed = true
				return t.Input
			}
		}
		return t
	case *Join:
		if opts.SimplifyOuterJoins && t.Kind == LeftOuterJoin {
			// A LEFT JOIN with a null-rejecting predicate over right columns
			// in a parent Select is handled in pushSelect; here we simplify
			// degenerate cases like an outer join whose On includes FALSE.
		}
		return t
	}
	return e
}

// foldConstantsNode folds constant scalar subexpressions in e's scalars.
func foldConstantsNode(e RelExpr, changed *bool) RelExpr {
	fold := func(s Scalar) Scalar {
		return RewriteScalar(s, func(sc Scalar) Scalar {
			switch sc.(type) {
			case *Const, *Col:
				return sc
			}
			if v, ok := EvalConst(sc); ok {
				*changed = true
				return &Const{Val: v}
			}
			return sc
		})
	}
	switch t := e.(type) {
	case *Select:
		nf := make([]Scalar, len(t.Filters))
		for i, f := range t.Filters {
			nf[i] = fold(f)
		}
		return &Select{Input: t.Input, Filters: nf}
	case *Project:
		items := make([]ProjectItem, len(t.Items))
		for i, it := range t.Items {
			items[i] = ProjectItem{ID: it.ID, Expr: fold(it.Expr)}
		}
		return &Project{Input: t.Input, Items: items}
	case *Join:
		cp := *t
		cp.On = make([]Scalar, len(t.On))
		for i, f := range t.On {
			cp.On[i] = fold(f)
		}
		return &cp
	}
	return e
}

// predCols returns the columns f reads that are not constants: those of
// Query.Outer are.
func (opts NormalizeOptions) predCols(f Scalar) ColSet {
	cols := ScalarCols(f)
	if opts.outer.Empty() {
		return cols
	}
	return cols.Difference(opts.outer)
}

// substituteCols replaces column references with the given expressions. It
// returns nil if a subquery prevents safe substitution.
func substituteCols(s Scalar, sub map[ColumnID]Scalar) Scalar {
	bad := false
	out := RewriteScalar(s, func(sc Scalar) Scalar {
		if c, ok := sc.(*Col); ok {
			if e, ok := sub[c.ID]; ok {
				return e
			}
		}
		if q, ok := sc.(*Subquery); ok {
			// Substituting inside correlated subqueries would require
			// rewriting the subplan; only allow when no outer col is mapped.
			affected := false
			q.OuterCols.ForEach(func(c ColumnID) {
				if _, ok := sub[c]; ok {
					affected = true
				}
			})
			if affected {
				bad = true
			}
		}
		return sc
	})
	if bad {
		return nil
	}
	return out
}

// pushSelect pushes the filters of sel one level down when possible.
func pushSelect(sel *Select, opts NormalizeOptions) (RelExpr, bool) {
	switch in := sel.Input.(type) {
	case *Project:
		// Rewrite each filter through the projection and push below.
		sub := map[ColumnID]Scalar{}
		for _, it := range in.Items {
			sub[it.ID] = it.Expr
		}
		var pushed, stay []Scalar
		for _, f := range sel.Filters {
			nf := substituteCols(f, sub)
			if nf == nil {
				stay = append(stay, f)
				continue
			}
			pushed = append(pushed, nf)
		}
		if len(pushed) == 0 {
			return sel, false
		}
		out := RelExpr(&Project{Input: &Select{Input: in.Input, Filters: pushed}, Items: in.Items})
		if len(stay) > 0 {
			out = &Select{Input: out, Filters: stay}
		}
		return out, true
	case *Join:
		leftCols := in.Left.OutputCols()
		rightCols := in.Right.OutputCols()
		var toLeft, toRight, toOn, stay []Scalar
		kind := in.Kind
		for _, f := range sel.Filters {
			cols := opts.predCols(f)
			switch {
			case cols.SubsetOf(leftCols):
				if kind == FullOuterJoin {
					// Null-rejecting filters on either side reduce FULL to
					// one-sided; conservatively keep unless null-rejecting.
					if opts.SimplifyOuterJoins && nullRejecting(f, leftCols) {
						kind = LeftOuterJoin
						toLeft = append(toLeft, f)
					} else {
						stay = append(stay, f)
					}
					continue
				}
				toLeft = append(toLeft, f)
			case cols.SubsetOf(rightCols):
				switch kind {
				case InnerJoin, SemiJoin, AntiJoin:
					if kind == AntiJoin {
						stay = append(stay, f) // right cols invisible anyway
						continue
					}
					toRight = append(toRight, f)
				case LeftOuterJoin:
					if opts.SimplifyOuterJoins && nullRejecting(f, rightCols) {
						// §4.1.2-style simplification: the filter rejects
						// NULL-padded rows, so the outer join is an inner join.
						kind = InnerJoin
						toRight = append(toRight, f)
					} else {
						stay = append(stay, f)
					}
				default:
					stay = append(stay, f)
				}
			default:
				if kind == InnerJoin {
					toOn = append(toOn, f)
				} else if opts.SimplifyOuterJoins && kind == LeftOuterJoin && nullRejecting(f, rightCols) {
					kind = InnerJoin
					toOn = append(toOn, f)
				} else {
					stay = append(stay, f)
				}
			}
		}
		if len(toLeft)+len(toRight)+len(toOn) == 0 && kind == in.Kind {
			return sel, false
		}
		left := in.Left
		if len(toLeft) > 0 {
			left = &Select{Input: left, Filters: toLeft}
		}
		right := in.Right
		if len(toRight) > 0 {
			right = &Select{Input: right, Filters: toRight}
		}
		out := RelExpr(&Join{Kind: kind, Left: left, Right: right, On: append(append([]Scalar{}, in.On...), toOn...)})
		if len(stay) > 0 {
			out = &Select{Input: out, Filters: stay}
		}
		return out, true
	case *GroupBy:
		var groupSet ColSet
		for _, c := range in.GroupCols {
			groupSet.Add(c)
		}
		if len(in.GroupCols) == 0 {
			// A scalar aggregate returns a row even over empty input, so no
			// filter may move below it, not even one on constants alone.
			return sel, false
		}
		var pushed, stay []Scalar
		for _, f := range sel.Filters {
			if opts.predCols(f).SubsetOf(groupSet) && !HasSubquery(f) {
				pushed = append(pushed, f)
			} else {
				stay = append(stay, f)
			}
		}
		if len(pushed) == 0 {
			return sel, false
		}
		out := RelExpr(&GroupBy{
			Input:     &Select{Input: in.Input, Filters: pushed},
			GroupCols: in.GroupCols,
			Aggs:      in.Aggs,
		})
		if len(stay) > 0 {
			out = &Select{Input: out, Filters: stay}
		}
		return out, true
	}
	return sel, false
}

// nullRejecting reports whether f cannot evaluate to TRUE when all columns in
// `over` that f references are NULL. Comparisons and IS NOT NULL over those
// columns reject NULLs; IS NULL and disjunctions are conservatively kept.
func nullRejecting(f Scalar, over ColSet) bool {
	refs := ScalarCols(f).Intersect(over)
	if refs.Empty() {
		return false
	}
	switch t := f.(type) {
	case *Cmp:
		return true // any NULL operand makes the comparison UNKNOWN
	case *IsNull:
		return t.Negated
	case *And:
		return nullRejecting(t.L, over) || nullRejecting(t.R, over)
	case *InList:
		return !t.Negated
	case *UDPRef:
		return false
	default:
		return false
	}
}

// PruneColumns removes unused columns from the tree, trimming Scan column
// lists and Project items. The needed set at the root is the query's result
// columns plus ordering columns.
func PruneColumns(q *Query) {
	var needed ColSet
	for _, c := range q.ResultCols {
		needed.Add(c)
	}
	for _, o := range q.OrderBy {
		needed.Add(o.Col)
	}
	q.Root = pruneRel(q.Root, needed)
}

func pruneRel(e RelExpr, needed ColSet) RelExpr {
	switch t := e.(type) {
	case *Scan:
		var cols []ColumnID
		for _, c := range t.Cols {
			if needed.Contains(c) {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 && len(t.Cols) > 0 {
			cols = []ColumnID{t.Cols[0]} // keep arity ≥ 1 for EXISTS-style plans
		}
		return &Scan{Table: t.Table, Binding: t.Binding, Cols: cols}
	case *Values:
		return t
	case *Select:
		in := needed.Copy()
		for _, f := range t.Filters {
			in = in.Union(ScalarCols(f))
		}
		return &Select{Input: pruneRel(t.Input, in), Filters: t.Filters}
	case *Project:
		var items []ProjectItem
		in := ColSet{}
		for _, it := range t.Items {
			if needed.Contains(it.ID) {
				items = append(items, it)
				in = in.Union(ScalarCols(it.Expr))
			}
		}
		if len(items) == 0 && len(t.Items) > 0 {
			items = t.Items[:1]
			in = in.Union(ScalarCols(items[0].Expr))
		}
		return &Project{Input: pruneRel(t.Input, in), Items: items}
	case *Join:
		in := needed.Copy()
		for _, f := range t.On {
			in = in.Union(ScalarCols(f))
		}
		leftNeeded := in.Intersect(t.Left.OutputCols())
		rightNeeded := in.Intersect(t.Right.OutputCols())
		cp := *t
		cp.Left = pruneRel(t.Left, leftNeeded)
		cp.Right = pruneRel(t.Right, rightNeeded)
		return &cp
	case *GroupBy:
		var aggs []AggItem
		in := ColSet{}
		for _, c := range t.GroupCols {
			in.Add(c)
		}
		for _, a := range t.Aggs {
			if needed.Contains(a.ID) {
				aggs = append(aggs, a)
				if a.Arg != nil {
					in = in.Union(ScalarCols(a.Arg))
				}
			}
		}
		cp := *t
		cp.Aggs = aggs
		cp.Input = pruneRel(t.Input, in)
		return &cp
	case *Limit:
		cp := *t
		cp.Input = pruneRel(t.Input, needed)
		return &cp
	case *Union:
		// Union arms keep their full aligned column lists.
		cp := *t
		var ln, rn ColSet
		for _, c := range t.LeftCols {
			ln.Add(c)
		}
		for _, c := range t.RightCols {
			rn.Add(c)
		}
		cp.Left = pruneRel(t.Left, ln)
		cp.Right = pruneRel(t.Right, rn)
		return &cp
	}
	return e
}

// PlanSubqueries attaches a Body to every subquery in the tree that has none,
// nested ones first: each body is Plan normalized as a query whose result
// column is OutCol and whose correlated columns are constants (Query.Outer),
// column-pruned, then optimized by optimize.
func PlanSubqueries(e RelExpr, md *Metadata, optimize func(*Query) (SubPlan, error)) error {
	var err error
	for _, s := range Scalars(e) {
		VisitScalar(s, func(sc Scalar) {
			sub, ok := sc.(*Subquery)
			if !ok || sub.Body != nil || err != nil {
				return
			}
			body := &Query{Meta: md, Root: sub.Plan, Outer: sub.OuterCols}
			if sub.OutCol != 0 {
				body.ResultCols = []ColumnID{sub.OutCol}
			}
			NormalizeQuery(body, DefaultNormalize())
			PruneColumns(body)
			if err = PlanSubqueries(body.Root, md, optimize); err == nil {
				sub.Body, err = optimize(body)
			}
		})
		if err != nil {
			return err
		}
	}
	for _, c := range Children(e) {
		if err := PlanSubqueries(c, md, optimize); err != nil {
			return err
		}
	}
	return nil
}
