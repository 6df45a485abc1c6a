package cascades

import (
	"repro/internal/logical"
)

// Transformation rule names (used for once-per-expression firing control).
const (
	ruleCommute = "join-commute"
	ruleAssoc   = "join-associate"
)

// exploreGroup derives all logically equivalent expressions reachable via
// the transformation rules — goal-driven: child groups are explored first,
// and only groups actually reached from the optimization root are touched
// (unlike Starburst's forward-chaining rewrite phase).
func (o *Optimizer) exploreGroup(g *Group) {
	if g.explored {
		return
	}
	g.explored = true
	// Iterate until no rule produces a new expression (the group's Exprs
	// slice grows during iteration; index-based loop covers additions).
	for i := 0; i < len(g.Exprs); i++ {
		e := g.Exprs[i]
		// Explore children first so associativity sees their join variants.
		for _, cid := range e.Children {
			o.exploreGroup(o.memo.Group(cid))
		}
		if e.Kind != opJoin || e.JoinKind != logical.InnerJoin {
			continue
		}
		o.applyCommute(g, e)
		o.applyAssociate(g, e)
		if o.memo.NumExprs() > o.Opts.MaxExprs {
			return
		}
	}
}

// applyCommute fires Join(A,B) → Join(B,A).
func (o *Optimizer) applyCommute(g *Group, e *MExpr) {
	if e.ruleApplied(ruleCommute) {
		return
	}
	e.markApplied(ruleCommute)
	ne := &MExpr{
		Kind:     opJoin,
		Children: []GroupID{e.Children[1], e.Children[0]},
		JoinKind: logical.InnerJoin,
		On:       e.On,
	}
	// Commuting back is pointless: mark on the new expression too.
	ne.markApplied(ruleCommute)
	if o.memo.insert(g, ne) {
		o.Metrics.RulesFired++
	}
}

// applyAssociate fires Join(Join(x,y,p1), z, p2) → Join(x, Join(y,z,pYZ), pRest)
// for every join expression in the left child group.
func (o *Optimizer) applyAssociate(g *Group, e *MExpr) {
	if e.ruleApplied(ruleAssoc) {
		return
	}
	e.markApplied(ruleAssoc)
	left := o.memo.Group(e.Children[0])
	right := o.memo.Group(e.Children[1])
	for _, le := range left.Exprs {
		if le.Kind != opJoin || le.JoinKind != logical.InnerJoin {
			continue
		}
		x := o.memo.Group(le.Children[0])
		y := o.memo.Group(le.Children[1])
		// Combine all predicates and redistribute.
		all := append(append([]logical.Scalar{}, le.On...), e.On...)
		yz := y.Cols.Union(right.Cols)
		var inner, rest []logical.Scalar
		for _, p := range all {
			if logical.ScalarCols(p).SubsetOf(yz) {
				inner = append(inner, p)
			} else {
				rest = append(rest, p)
			}
		}
		if len(inner) == 0 || len(rest) == 0 {
			continue // one of the two joins would be a Cartesian product
		}
		innerExpr := &MExpr{
			Kind:     opJoin,
			Children: []GroupID{y.ID, right.ID},
			JoinKind: logical.InnerJoin,
			On:       inner,
		}
		innerGroup := o.memo.internGroup(innerExpr, yz)
		ne := &MExpr{
			Kind:     opJoin,
			Children: []GroupID{x.ID, innerGroup.ID},
			JoinKind: logical.InnerJoin,
			On:       rest,
		}
		if o.memo.insert(g, ne) {
			o.Metrics.RulesFired++
		}
		if o.memo.NumExprs() > o.Opts.MaxExprs {
			return
		}
	}
}
