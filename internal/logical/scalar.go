package logical

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/datum"
)

// Scalar is a scalar expression over query columns.
type Scalar interface {
	scalar()
	String() string
}

// Col references a query column by ID.
type Col struct{ ID ColumnID }

func (*Col) scalar()          {}
func (c *Col) String() string { return atRef(c.ID) }

// Const is a literal value. Param, when non-zero, tags the constant as the
// binding of statement parameter $Param: Val then holds the value the plan
// was built (probed) at, and a plan-cache execution reads its fresh binding
// instead (Bound). Param-tagged constants are never folded into derived
// constants — EvalConst refuses scalars containing them — so the tag
// survives normalization and optimization into the physical plan.
type Const struct {
	Val   datum.D
	Param int
}

// Bound is the constant's value under the bindings params: params[Param-1]
// for a parameter that has one, Val otherwise.
func (c *Const) Bound(params []datum.D) datum.D { return BoundParam(c.Val, c.Param, params) }

// BoundParam is the value of a datum tagged with parameter ordinal param
// (0 = a plain constant) under the bindings params: params[param-1] when
// that binding exists, d otherwise.
func BoundParam(d datum.D, param int, params []datum.D) datum.D {
	if param >= 1 && param <= len(params) {
		return params[param-1]
	}
	return d
}

func (*Const) scalar() {}
func (c *Const) String() string {
	if c.Param != 0 {
		// The tag is part of the constant's identity: memo fingerprints and
		// canonical forms must never conflate a parameter binding with an
		// equal-valued plain constant.
		return fmt.Sprintf("$%d", c.Param)
	}
	return c.Val.String()
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	CmpLike
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	case CmpLike:
		return "LIKE"
	}
	return "?"
}

// Commute returns the operator with operands swapped (a op b == b op' a).
func (op CmpOp) Commute() CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	}
	return op
}

// Cmp is a comparison producing a (possibly NULL) boolean.
type Cmp struct {
	Op   CmpOp
	L, R Scalar
}

func (*Cmp) scalar()          {}
func (c *Cmp) String() string { return scalarString(c) }

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	ArithAdd ArithOp = iota
	ArithSub
	ArithMul
	ArithDiv
	ArithMod
)

func (op ArithOp) String() string {
	return [...]string{"+", "-", "*", "/", "%"}[op]
}

// Arith is an arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Scalar
}

func (*Arith) scalar()          {}
func (a *Arith) String() string { return scalarString(a) }

// And is a conjunction (three-valued).
type And struct{ L, R Scalar }

func (*And) scalar()          {}
func (a *And) String() string { return scalarString(a) }

// Or is a disjunction (three-valued).
type Or struct{ L, R Scalar }

func (*Or) scalar()          {}
func (o *Or) String() string { return scalarString(o) }

// Not is a negation (three-valued).
type Not struct{ E Scalar }

func (*Not) scalar()          {}
func (n *Not) String() string { return scalarString(n) }

// IsNull tests for NULL; it never returns NULL itself.
type IsNull struct {
	E       Scalar
	Negated bool
}

func (*IsNull) scalar()          {}
func (e *IsNull) String() string { return scalarString(e) }

// InList tests membership in a literal list.
type InList struct {
	E       Scalar
	List    []Scalar
	Negated bool
}

func (*InList) scalar()          {}
func (e *InList) String() string { return scalarString(e) }

// SubqueryMode distinguishes how a subquery is used in a scalar context.
type SubqueryMode uint8

// Subquery modes.
const (
	SubExists SubqueryMode = iota // EXISTS (sub)
	SubIn                         // e IN (sub)
	SubScalar                     // (sub) as a value; must return <= 1 row
)

func (m SubqueryMode) String() string {
	switch m {
	case SubExists:
		return "EXISTS"
	case SubIn:
		return "IN"
	case SubScalar:
		return "SCALAR"
	}
	return "?"
}

// Subquery embeds a relational subplan in a scalar expression. Correlated
// column references appear as Col nodes whose IDs are produced outside Plan
// (the OuterCols). Before optimization the unnesting rewrites of §4.2 remove
// Subquery nodes where possible; for every one they leave, the engine
// optimizes Plan into Body (PlanSubqueries), and the executor evaluates the
// subquery with nested iteration as System R does: Body runs once per outer
// row, the outer row's values bound to the OuterCols — the baseline the
// paper's unnesting work improves on.
type Subquery struct {
	Mode SubqueryMode
	// Scalar is the left operand for SubIn; nil otherwise.
	Scalar Scalar
	// Plan is the subquery's relational plan.
	Plan RelExpr
	// Body is Plan optimized: a physical plan whose output holds OutCol, nil
	// until PlanSubqueries attaches it. Copies of the node share it; a copy
	// whose Plan is remapped drops it.
	Body SubPlan
	// OutCol is the column of Plan holding the compared/returned value for
	// SubIn/SubScalar (zero when the subquery produces no columns).
	OutCol ColumnID
	// OuterCols are the correlated columns referenced by Plan but produced
	// by the enclosing query.
	OuterCols ColSet
	Negated   bool
}

// SubPlan is the optimized body of a subquery — a physical.Plan, which this
// package cannot name, as physical imports it.
type SubPlan interface {
	Columns() []ColumnID
}

func (*Subquery) scalar()          {}
func (s *Subquery) String() string { return scalarString(s) }

// UDPRef is a user-defined predicate applied to columns (§7.2). Its cost and
// selectivity are declared, not derived; EvalFn supplies executable behaviour
// for the simulation.
type UDPRef struct {
	Name         string
	Args         []Scalar
	PerTupleCost float64
	Selectivity  float64
	EvalFn       func([]datum.D) bool
}

func (*UDPRef) scalar()          {}
func (u *UDPRef) String() string { return scalarString(u) }

// --- Scalar utilities ---

// ScalarCols returns the set of column IDs referenced by s, including
// correlated references inside subqueries.
func ScalarCols(s Scalar) ColSet {
	var set ColSet
	VisitScalar(s, func(sc Scalar) {
		switch t := sc.(type) {
		case *Col:
			set.Add(t.ID)
		case *Subquery:
			set = set.Union(t.OuterCols)
		}
	})
	return set
}

// VisitScalar walks s depth-first, calling f on every node. It does not
// descend into subquery plans (their outer references are summarized by
// OuterCols).
func VisitScalar(s Scalar, f func(Scalar)) {
	if s == nil {
		return
	}
	f(s)
	switch t := s.(type) {
	case *Cmp:
		VisitScalar(t.L, f)
		VisitScalar(t.R, f)
	case *Arith:
		VisitScalar(t.L, f)
		VisitScalar(t.R, f)
	case *And:
		VisitScalar(t.L, f)
		VisitScalar(t.R, f)
	case *Or:
		VisitScalar(t.L, f)
		VisitScalar(t.R, f)
	case *Not:
		VisitScalar(t.E, f)
	case *IsNull:
		VisitScalar(t.E, f)
	case *InList:
		VisitScalar(t.E, f)
		for _, e := range t.List {
			VisitScalar(e, f)
		}
	case *Subquery:
		if t.Scalar != nil {
			VisitScalar(t.Scalar, f)
		}
	case *UDPRef:
		for _, a := range t.Args {
			VisitScalar(a, f)
		}
	}
}

// RewriteScalar rebuilds s bottom-up, replacing each node by f(node). f is
// applied to the node after its children have been rewritten.
func RewriteScalar(s Scalar, f func(Scalar) Scalar) Scalar {
	if s == nil {
		return nil
	}
	switch t := s.(type) {
	case *Cmp:
		s = &Cmp{Op: t.Op, L: RewriteScalar(t.L, f), R: RewriteScalar(t.R, f)}
	case *Arith:
		s = &Arith{Op: t.Op, L: RewriteScalar(t.L, f), R: RewriteScalar(t.R, f)}
	case *And:
		s = &And{L: RewriteScalar(t.L, f), R: RewriteScalar(t.R, f)}
	case *Or:
		s = &Or{L: RewriteScalar(t.L, f), R: RewriteScalar(t.R, f)}
	case *Not:
		s = &Not{E: RewriteScalar(t.E, f)}
	case *IsNull:
		s = &IsNull{E: RewriteScalar(t.E, f), Negated: t.Negated}
	case *InList:
		list := make([]Scalar, len(t.List))
		for i, e := range t.List {
			list[i] = RewriteScalar(e, f)
		}
		s = &InList{E: RewriteScalar(t.E, f), List: list, Negated: t.Negated}
	case *Subquery:
		cp := *t
		if t.Scalar != nil {
			cp.Scalar = RewriteScalar(t.Scalar, f)
		}
		s = &cp
	case *UDPRef:
		cp := *t
		cp.Args = make([]Scalar, len(t.Args))
		for i, a := range t.Args {
			cp.Args[i] = RewriteScalar(a, f)
		}
		s = &cp
	}
	return f(s)
}

// RemapScalar replaces column references according to the mapping (IDs not in
// the map are unchanged).
func RemapScalar(s Scalar, mapping map[ColumnID]ColumnID) Scalar {
	return RewriteScalar(s, func(sc Scalar) Scalar {
		if c, ok := sc.(*Col); ok {
			if to, ok := mapping[c.ID]; ok {
				return &Col{ID: to}
			}
		}
		if sub, ok := sc.(*Subquery); ok {
			cp := *sub
			var outer ColSet
			sub.OuterCols.ForEach(func(c ColumnID) {
				if to, ok := mapping[c]; ok {
					outer.Add(to)
				} else {
					outer.Add(c)
				}
			})
			cp.OuterCols = outer
			cp.Plan, cp.Body = RemapRel(sub.Plan, mapping), nil
			if to, ok := mapping[sub.OutCol]; ok {
				cp.OutCol = to
			}
			return &cp
		}
		return sc
	})
}

// SplitConjunction flattens nested ANDs into a list of conjuncts.
func SplitConjunction(s Scalar) []Scalar {
	if s == nil {
		return nil
	}
	if a, ok := s.(*And); ok {
		return append(SplitConjunction(a.L), SplitConjunction(a.R)...)
	}
	return []Scalar{s}
}

// HasSubquery reports whether s contains any Subquery node.
func HasSubquery(s Scalar) bool {
	found := false
	VisitScalar(s, func(sc Scalar) {
		if _, ok := sc.(*Subquery); ok {
			found = true
		}
	})
	return found
}

// FormatScalar renders s with human-readable column names from md; a column
// md does not know prints as @N, as String prints every column.
func FormatScalar(s Scalar, md *Metadata) string {
	if s == nil {
		return ""
	}
	var sb strings.Builder
	writeScalar(&sb, s, func(id ColumnID) string {
		if id >= 1 && int(id) <= md.NumColumns() {
			return md.QualifiedName(id)
		}
		return atRef(id)
	})
	return sb.String()
}

// atRef is a column reference as String prints it: @ and the column ID.
func atRef(id ColumnID) string { return "@" + strconv.Itoa(int(id)) }

// scalarString is String for every scalar that has operands.
func scalarString(s Scalar) string {
	var sb strings.Builder
	writeScalar(&sb, s, atRef)
	return sb.String()
}

// writeScalar appends the text of s to sb, naming each column reference it
// contains with col. Constants, string literals included, print as they
// are: only Col nodes go through col.
func writeScalar(sb *strings.Builder, s Scalar, col func(ColumnID) string) {
	switch t := s.(type) {
	case *Col:
		sb.WriteString(col(t.ID))
	case *Cmp:
		writeInfix(sb, t.L, t.Op.String(), t.R, col)
	case *Arith:
		writeInfix(sb, t.L, t.Op.String(), t.R, col)
	case *And:
		writeInfix(sb, t.L, "AND", t.R, col)
	case *Or:
		writeInfix(sb, t.L, "OR", t.R, col)
	case *Not:
		sb.WriteString("NOT ")
		writeScalar(sb, t.E, col)
	case *IsNull:
		sb.WriteByte('(')
		writeScalar(sb, t.E, col)
		if t.Negated {
			sb.WriteString(" IS NOT NULL)")
		} else {
			sb.WriteString(" IS NULL)")
		}
	case *InList:
		sb.WriteByte('(')
		writeScalar(sb, t.E, col)
		if t.Negated {
			sb.WriteString(" NOT IN (")
		} else {
			sb.WriteString(" IN (")
		}
		for i, it := range t.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeScalar(sb, it, col)
		}
		sb.WriteString("))")
	case *Subquery:
		neg := ""
		if t.Negated {
			neg = "NOT "
		}
		corr := ""
		if !t.OuterCols.Empty() {
			corr = " corr=" + t.OuterCols.String()
		}
		if t.Mode == SubIn {
			sb.WriteByte('(')
			writeScalar(sb, t.Scalar, col)
			fmt.Fprintf(sb, " %sIN <subquery%s>)", neg, corr)
		} else {
			fmt.Fprintf(sb, "%s%s <subquery%s>", neg, t.Mode, corr)
		}
	case *UDPRef:
		sb.WriteString(t.Name)
		sb.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeScalar(sb, a, col)
		}
		fmt.Fprintf(sb, ")[cost=%.1f,sel=%.2f]", t.PerTupleCost, t.Selectivity)
	default: // *Const: no operands and no columns
		sb.WriteString(s.String())
	}
}

// writeInfix appends "(l op r)".
func writeInfix(sb *strings.Builder, l Scalar, op string, r Scalar, col func(ColumnID) string) {
	sb.WriteByte('(')
	writeScalar(sb, l, col)
	sb.WriteByte(' ')
	sb.WriteString(op)
	sb.WriteByte(' ')
	writeScalar(sb, r, col)
	sb.WriteByte(')')
}
