package logical

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
)

// RelExpr is a logical relational operator (a node of the paper's query
// trees).
type RelExpr interface {
	rel()
	// OutputCols returns the columns the operator produces.
	OutputCols() ColSet
}

// Scan reads one base-table occurrence. Cols[i] is the global column ID for
// table ordinal i.
type Scan struct {
	Table   *catalog.Table
	Binding string
	Cols    []ColumnID
}

func (*Scan) rel() {}

// OutputCols returns all of the occurrence's columns.
func (s *Scan) OutputCols() ColSet {
	var set ColSet
	for _, c := range s.Cols {
		set.Add(c)
	}
	return set
}

// Values produces literal rows (used for FROM-less selects and tests).
type Values struct {
	Cols []ColumnID
	Rows [][]Scalar
}

func (*Values) rel() {}

// OutputCols returns the value columns.
func (v *Values) OutputCols() ColSet {
	var set ColSet
	for _, c := range v.Cols {
		set.Add(c)
	}
	return set
}

// Select filters its input by a conjunction of predicates.
type Select struct {
	Input   RelExpr
	Filters []Scalar
}

func (*Select) rel() {}

// OutputCols passes through the input columns.
func (s *Select) OutputCols() ColSet { return s.Input.OutputCols() }

// ProjectItem computes one output column.
type ProjectItem struct {
	ID   ColumnID
	Expr Scalar
}

// Project computes a new column list from its input.
type Project struct {
	Input RelExpr
	Items []ProjectItem
}

func (*Project) rel() {}

// OutputCols returns the projected column IDs.
func (p *Project) OutputCols() ColSet {
	var set ColSet
	for _, it := range p.Items {
		set.Add(it.ID)
	}
	return set
}

// Passthrough reports whether every item is a bare column reference.
func (p *Project) Passthrough() bool {
	for _, it := range p.Items {
		if c, ok := it.Expr.(*Col); !ok || c.ID != it.ID {
			return false
		}
	}
	return true
}

// JoinKind enumerates logical join operators.
type JoinKind uint8

// Logical join kinds. Right outer joins are normalized to left outer joins at
// build time.
const (
	InnerJoin JoinKind = iota
	LeftOuterJoin
	FullOuterJoin
	SemiJoin
	AntiJoin
)

func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "inner-join"
	case LeftOuterJoin:
		return "left-outer-join"
	case FullOuterJoin:
		return "full-outer-join"
	case SemiJoin:
		return "semi-join"
	case AntiJoin:
		return "anti-join"
	}
	return "join"
}

// PreservesRight reports whether right-side columns appear in the output.
func (k JoinKind) PreservesRight() bool {
	return k == InnerJoin || k == LeftOuterJoin || k == FullOuterJoin
}

// Join combines two inputs on a conjunction of predicates. An empty On list
// is a Cartesian product.
type Join struct {
	Kind  JoinKind
	Left  RelExpr
	Right RelExpr
	On    []Scalar
}

func (*Join) rel() {}

// OutputCols returns left ∪ right for preserving kinds, left for semi/anti.
func (j *Join) OutputCols() ColSet {
	if j.Kind.PreservesRight() {
		return j.Left.OutputCols().Union(j.Right.OutputCols())
	}
	return j.Left.OutputCols()
}

// AggFn enumerates aggregate functions.
type AggFn uint8

// Aggregate functions.
const (
	AggCount AggFn = iota // COUNT(expr) or COUNT(*) when Arg == nil
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFn) String() string {
	return [...]string{"count", "sum", "avg", "min", "max"}[f]
}

// AggItem computes one aggregate output column.
type AggItem struct {
	ID       ColumnID
	Fn       AggFn
	Arg      Scalar // nil means COUNT(*)
	Distinct bool
}

func (a AggItem) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	d := ""
	if a.Distinct {
		d = "distinct "
	}
	return fmt.Sprintf("@%d=%s(%s%s)", int(a.ID), a.Fn, d, arg)
}

// GroupBy groups its input and computes aggregates. An empty GroupCols list
// is scalar aggregation (always one output row). A GroupBy with no Aggs is
// DISTINCT.
type GroupBy struct {
	Input     RelExpr
	GroupCols []ColumnID
	Aggs      []AggItem
}

func (*GroupBy) rel() {}

// OutputCols returns the grouping columns plus aggregate outputs.
func (g *GroupBy) OutputCols() ColSet {
	var set ColSet
	for _, c := range g.GroupCols {
		set.Add(c)
	}
	for _, a := range g.Aggs {
		set.Add(a.ID)
	}
	return set
}

// Limit returns the first N input rows.
type Limit struct {
	Input RelExpr
	N     int64
}

func (*Limit) rel() {}

// OutputCols passes through the input columns.
func (l *Limit) OutputCols() ColSet { return l.Input.OutputCols() }

// OrderSpec is one ordering key over a query column.
type OrderSpec struct {
	Col  ColumnID
	Desc bool
}

// Ordering is a sequence of ordering keys — the physical property of §3.
type Ordering []OrderSpec

// Key returns a canonical map key for the ordering.
func (o Ordering) Key() string {
	buf := make([]byte, 0, 8*len(o))
	for _, s := range o {
		if s.Desc {
			buf = append(buf, '-')
		} else {
			buf = append(buf, '+')
		}
		buf = strconv.AppendInt(buf, int64(s.Col), 10)
	}
	return string(buf)
}

// SatisfiedBy reports whether an actual ordering provides the required one
// (actual may be stronger, i.e. have more trailing keys).
func (o Ordering) SatisfiedBy(actual Ordering) bool {
	if len(actual) < len(o) {
		return false
	}
	for i, s := range o {
		if actual[i] != s {
			return false
		}
	}
	return true
}

func (o Ordering) String() string {
	var b []byte
	for i, s := range o {
		if i > 0 {
			b = append(b, ',')
		}
		if s.Desc {
			b = append(b, "-@"...)
		} else {
			b = append(b, "+@"...)
		}
		b = strconv.AppendInt(b, int64(s.Col), 10)
	}
	return string(b)
}

// Query is a fully built statement: the root relational expression plus
// presentation details.
type Query struct {
	Meta *Metadata
	Root RelExpr
	// ResultCols are the output columns in presentation order.
	ResultCols []ColumnID
	// ColNames are the display names for ResultCols.
	ColNames []string
	// OrderBy is the required ordering of the final result (a physical
	// property of the root, not a logical operator).
	OrderBy Ordering
	// Outer holds the columns an enclosing block binds when the query is a
	// subquery's body — its correlated references. They are constants for
	// one evaluation, and normalization places predicates accordingly.
	Outer ColSet
}

// --- Tree utilities ---

// Children returns the relational children of e in a fixed order.
func Children(e RelExpr) []RelExpr {
	switch t := e.(type) {
	case *Scan, *Values:
		return nil
	case *Select:
		return []RelExpr{t.Input}
	case *Project:
		return []RelExpr{t.Input}
	case *Join:
		return []RelExpr{t.Left, t.Right}
	case *GroupBy:
		return []RelExpr{t.Input}
	case *Limit:
		return []RelExpr{t.Input}
	case *Union:
		return []RelExpr{t.Left, t.Right}
	}
	panic(fmt.Sprintf("logical: unknown RelExpr %T", e))
}

// WithChildren returns a copy of e with its relational children replaced.
func WithChildren(e RelExpr, ch []RelExpr) RelExpr {
	switch t := e.(type) {
	case *Scan:
		cp := *t
		return &cp
	case *Values:
		cp := *t
		return &cp
	case *Select:
		cp := *t
		cp.Input = ch[0]
		return &cp
	case *Project:
		cp := *t
		cp.Input = ch[0]
		return &cp
	case *Join:
		cp := *t
		cp.Left, cp.Right = ch[0], ch[1]
		return &cp
	case *GroupBy:
		cp := *t
		cp.Input = ch[0]
		return &cp
	case *Limit:
		cp := *t
		cp.Input = ch[0]
		return &cp
	case *Union:
		cp := *t
		cp.Left, cp.Right = ch[0], ch[1]
		return &cp
	}
	panic(fmt.Sprintf("logical: unknown RelExpr %T", e))
}

// VisitRel walks the tree depth-first (pre-order), including subquery plans
// inside scalar expressions.
func VisitRel(e RelExpr, f func(RelExpr)) {
	if e == nil {
		return
	}
	f(e)
	for _, s := range Scalars(e) {
		VisitScalar(s, func(sc Scalar) {
			if sub, ok := sc.(*Subquery); ok {
				VisitRel(sub.Plan, f)
			}
		})
	}
	for _, c := range Children(e) {
		VisitRel(c, f)
	}
}

// Scalars returns the scalar expressions attached to the node itself.
func Scalars(e RelExpr) []Scalar {
	switch t := e.(type) {
	case *Select:
		return t.Filters
	case *Project:
		out := make([]Scalar, len(t.Items))
		for i, it := range t.Items {
			out[i] = it.Expr
		}
		return out
	case *Join:
		return t.On
	case *GroupBy:
		var out []Scalar
		for _, a := range t.Aggs {
			if a.Arg != nil {
				out = append(out, a.Arg)
			}
		}
		return out
	case *Values:
		var out []Scalar
		for _, row := range t.Rows {
			out = append(out, row...)
		}
		return out
	}
	return nil
}

// RemapRel rewrites the tree replacing column IDs per the mapping, both in
// scalars and in operator column lists.
func RemapRel(e RelExpr, mapping map[ColumnID]ColumnID) RelExpr {
	if e == nil {
		return nil
	}
	mapID := func(c ColumnID) ColumnID {
		if to, ok := mapping[c]; ok {
			return to
		}
		return c
	}
	ch := Children(e)
	nch := make([]RelExpr, len(ch))
	for i, c := range ch {
		nch[i] = RemapRel(c, mapping)
	}
	switch t := e.(type) {
	case *Scan:
		cp := *t
		cp.Cols = make([]ColumnID, len(t.Cols))
		for i, c := range t.Cols {
			cp.Cols[i] = mapID(c)
		}
		return &cp
	case *Values:
		cp := *t
		cp.Cols = make([]ColumnID, len(t.Cols))
		for i, c := range t.Cols {
			cp.Cols[i] = mapID(c)
		}
		cp.Rows = make([][]Scalar, len(t.Rows))
		for i, row := range t.Rows {
			nrow := make([]Scalar, len(row))
			for j, s := range row {
				nrow[j] = RemapScalar(s, mapping)
			}
			cp.Rows[i] = nrow
		}
		return &cp
	case *Select:
		cp := *t
		cp.Input = nch[0]
		cp.Filters = remapScalars(t.Filters, mapping)
		return &cp
	case *Project:
		cp := *t
		cp.Input = nch[0]
		cp.Items = make([]ProjectItem, len(t.Items))
		for i, it := range t.Items {
			cp.Items[i] = ProjectItem{ID: mapID(it.ID), Expr: RemapScalar(it.Expr, mapping)}
		}
		return &cp
	case *Join:
		cp := *t
		cp.Left, cp.Right = nch[0], nch[1]
		cp.On = remapScalars(t.On, mapping)
		return &cp
	case *GroupBy:
		cp := *t
		cp.Input = nch[0]
		cp.GroupCols = make([]ColumnID, len(t.GroupCols))
		for i, c := range t.GroupCols {
			cp.GroupCols[i] = mapID(c)
		}
		cp.Aggs = make([]AggItem, len(t.Aggs))
		for i, a := range t.Aggs {
			na := a
			na.ID = mapID(a.ID)
			if a.Arg != nil {
				na.Arg = RemapScalar(a.Arg, mapping)
			}
			cp.Aggs[i] = na
		}
		return &cp
	case *Limit:
		cp := *t
		cp.Input = nch[0]
		return &cp
	case *Union:
		cp := *t
		cp.Left, cp.Right = nch[0], nch[1]
		remapIDs := func(ids []ColumnID) []ColumnID {
			out := make([]ColumnID, len(ids))
			for i, c := range ids {
				out[i] = mapID(c)
			}
			return out
		}
		cp.LeftCols = remapIDs(t.LeftCols)
		cp.RightCols = remapIDs(t.RightCols)
		cp.Cols = remapIDs(t.Cols)
		return &cp
	}
	panic(fmt.Sprintf("logical: unknown RelExpr %T", e))
}

func remapScalars(ss []Scalar, mapping map[ColumnID]ColumnID) []Scalar {
	out := make([]Scalar, len(ss))
	for i, s := range ss {
		out[i] = RemapScalar(s, mapping)
	}
	return out
}

// Format renders the tree with indentation for EXPLAIN output.
func Format(e RelExpr, md *Metadata) string {
	var sb strings.Builder
	formatRel(&sb, e, md, 0)
	return sb.String()
}

func formatRel(sb *strings.Builder, e RelExpr, md *Metadata, depth int) {
	indent := strings.Repeat("  ", depth)
	switch t := e.(type) {
	case *Scan:
		fmt.Fprintf(sb, "%sscan %s", indent, t.Table.Name)
		if t.Binding != "" && !strings.EqualFold(t.Binding, t.Table.Name) {
			fmt.Fprintf(sb, " as %s", t.Binding)
		}
		sb.WriteByte('\n')
	case *Values:
		fmt.Fprintf(sb, "%svalues (%d rows)\n", indent, len(t.Rows))
	case *Select:
		fmt.Fprintf(sb, "%sselect %s\n", indent, formatFilters(t.Filters, md))
		formatRel(sb, t.Input, md, depth+1)
	case *Project:
		var items []string
		for _, it := range t.Items {
			items = append(items, fmt.Sprintf("%s=%s", md.QualifiedName(it.ID), FormatScalar(it.Expr, md)))
		}
		fmt.Fprintf(sb, "%sproject %s\n", indent, strings.Join(items, ", "))
		formatRel(sb, t.Input, md, depth+1)
	case *Join:
		fmt.Fprintf(sb, "%s%s %s\n", indent, t.Kind, formatFilters(t.On, md))
		formatRel(sb, t.Left, md, depth+1)
		formatRel(sb, t.Right, md, depth+1)
	case *GroupBy:
		var groups []string
		for _, c := range t.GroupCols {
			groups = append(groups, md.QualifiedName(c))
		}
		var aggs []string
		for _, a := range t.Aggs {
			arg := "*"
			if a.Arg != nil {
				arg = FormatScalar(a.Arg, md)
			}
			d := ""
			if a.Distinct {
				d = "distinct "
			}
			aggs = append(aggs, fmt.Sprintf("%s=%s(%s%s)", md.QualifiedName(a.ID), a.Fn, d, arg))
		}
		label := "group-by"
		if len(t.Aggs) == 0 {
			label = "distinct"
		}
		fmt.Fprintf(sb, "%s%s [%s] %s\n", indent, label, strings.Join(groups, ","), strings.Join(aggs, ", "))
		formatRel(sb, t.Input, md, depth+1)
	case *Limit:
		fmt.Fprintf(sb, "%slimit %d\n", indent, t.N)
		formatRel(sb, t.Input, md, depth+1)
	case *Union:
		fmt.Fprintf(sb, "%sunion-all\n", indent)
		formatRel(sb, t.Left, md, depth+1)
		formatRel(sb, t.Right, md, depth+1)
	default:
		fmt.Fprintf(sb, "%s%T\n", indent, e)
	}
}

func formatFilters(fs []Scalar, md *Metadata) string {
	if len(fs) == 0 {
		return ""
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = FormatScalar(f, md)
	}
	return "[" + strings.Join(parts, " AND ") + "]"
}

// HasSubqueryRel reports whether any scalar anywhere in the tree contains a
// Subquery node.
func HasSubqueryRel(e RelExpr) bool {
	for _, s := range Scalars(e) {
		if HasSubquery(s) {
			return true
		}
	}
	for _, c := range Children(e) {
		if HasSubqueryRel(c) {
			return true
		}
	}
	return false
}

// Union combines two inputs with UNION ALL semantics (set-union is layered
// as a DISTINCT GroupBy above). Cols are the fresh output columns;
// LeftCols/RightCols give each child's columns in output order.
type Union struct {
	Left, Right         RelExpr
	LeftCols, RightCols []ColumnID
	Cols                []ColumnID
}

func (*Union) rel() {}

// OutputCols returns the union's output columns.
func (u *Union) OutputCols() ColSet {
	var set ColSet
	for _, c := range u.Cols {
		set.Add(c)
	}
	return set
}
