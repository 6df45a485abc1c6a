package physical

import (
	"repro/internal/datum"
	"repro/internal/logical"
)

// BindParams returns a copy of p with every parameter-tagged constant
// replaced by its fresh binding: binds[n-1] substitutes for parameter $n in
// scalars (filters, join conditions, projections, aggregate arguments, the
// bodies of their subqueries) and in index-scan key fields (EqKey/Lo/Hi
// threaded through EqKeyParams and Lo/HiParam, IndexScan.Keys). The input
// plan is never mutated — the copy shares only immutable state (catalog
// pointers, column layouts, estimates). Ordinals without a binding
// (n > len(binds)) keep their probe value. The plan cache does not copy: the
// executor reads bindings at run time and Template renders them, and
// BindParams is the substitution both must agree with.
func BindParams(p Plan, binds []datum.D) Plan {
	if len(binds) == 0 {
		return p
	}
	b := binder(binds)
	return b.plan(p)
}

type binder []datum.D

func (b binder) scalar(s logical.Scalar) logical.Scalar {
	return logical.RewriteScalar(s, func(sc logical.Scalar) logical.Scalar {
		switch t := sc.(type) {
		case *logical.Const:
			if t.Param >= 1 && t.Param <= len(b) {
				return &logical.Const{Val: b[t.Param-1], Param: t.Param}
			}
		case *logical.Subquery:
			// RewriteScalar hands over a copy of the node: its body can be
			// replaced by a re-bound copy in place.
			if body, ok := t.Body.(Plan); ok {
				t.Body = b.plan(body)
			}
		}
		return sc
	})
}

func (b binder) scalars(ss []logical.Scalar) []logical.Scalar {
	if ss == nil {
		return nil
	}
	out := make([]logical.Scalar, len(ss))
	for i, s := range ss {
		out[i] = b.scalar(s)
	}
	return out
}

func (b binder) aggs(as []logical.AggItem) []logical.AggItem {
	if as == nil {
		return nil
	}
	out := make([]logical.AggItem, len(as))
	for i, a := range as {
		out[i] = a
		if a.Arg != nil {
			out[i].Arg = b.scalar(a.Arg)
		}
	}
	return out
}

func (b binder) plan(p Plan) Plan {
	switch t := p.(type) {
	case *TableScan:
		cp := *t
		cp.Filter = b.scalars(t.Filter)
		return &cp
	case *IndexScan:
		cp := *t
		cp.Filter = b.scalars(t.Filter)
		cp.EqKey, cp.Lo, cp.Hi = t.Keys(b, nil)
		return &cp
	case *ValuesOp:
		cp := *t
		if t.Rows != nil {
			rows := make([][]logical.Scalar, len(t.Rows))
			for i, r := range t.Rows {
				rows[i] = b.scalars(r)
			}
			cp.Rows = rows
		}
		return &cp
	case *Filter:
		cp := *t
		cp.Input = b.plan(t.Input)
		cp.Preds = b.scalars(t.Preds)
		return &cp
	case *Project:
		cp := *t
		cp.Input = b.plan(t.Input)
		items := make([]logical.ProjectItem, len(t.Items))
		for i, it := range t.Items {
			items[i] = logical.ProjectItem{ID: it.ID, Expr: b.scalar(it.Expr)}
		}
		cp.Items = items
		return &cp
	case *Sort:
		cp := *t
		cp.Input = b.plan(t.Input)
		return &cp
	case *NLJoin:
		cp := *t
		cp.Left = b.plan(t.Left)
		cp.Right = b.plan(t.Right)
		cp.On = b.scalars(t.On)
		return &cp
	case *INLJoin:
		cp := *t
		cp.Left = b.plan(t.Left)
		cp.ExtraOn = b.scalars(t.ExtraOn)
		return &cp
	case *HashJoin:
		cp := *t
		cp.Left = b.plan(t.Left)
		cp.Right = b.plan(t.Right)
		cp.ExtraOn = b.scalars(t.ExtraOn)
		return &cp
	case *MergeJoin:
		cp := *t
		cp.Left = b.plan(t.Left)
		cp.Right = b.plan(t.Right)
		cp.ExtraOn = b.scalars(t.ExtraOn)
		return &cp
	case *HashGroupBy:
		cp := *t
		cp.Input = b.plan(t.Input)
		cp.Aggs = b.aggs(t.Aggs)
		return &cp
	case *StreamGroupBy:
		cp := *t
		cp.Input = b.plan(t.Input)
		cp.Aggs = b.aggs(t.Aggs)
		return &cp
	case *LimitOp:
		cp := *t
		cp.Input = b.plan(t.Input)
		return &cp
	case *UnionAll:
		cp := *t
		cp.Left = b.plan(t.Left)
		cp.Right = b.plan(t.Right)
		return &cp
	case *Exchange:
		cp := *t
		cp.Input = b.plan(t.Input)
		return &cp
	}
	return p
}
