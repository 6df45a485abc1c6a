package sql

import (
	"fmt"
	"strings"

	"repro/internal/datum"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any scalar expression node.
type Expr interface {
	expr()
	String() string
}

// TableExpr is any FROM-clause item.
type TableExpr interface{ tableExpr() }

// --- Statements ---

// SelectStmt is a (possibly nested) SELECT query block.
type SelectStmt struct {
	Distinct bool
	Select   []SelectItem
	From     []TableExpr // comma-joined items; each may itself be a JoinExpr
	Where    Expr        // nil if absent
	GroupBy  []Expr
	// Grouping selects plain GROUP BY or the CUBE/ROLLUP extensions (§7.4's
	// decision-support constructs [24]).
	Grouping GroupingMode
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
	// Union chains additional SELECT arms combined with UNION [ALL]. The
	// OrderBy/Limit of this (first) statement apply to the whole union.
	Union []UnionArm
}

// GroupingMode distinguishes GROUP BY flavors.
type GroupingMode uint8

// Grouping modes.
const (
	GroupPlain GroupingMode = iota
	GroupCube
	GroupRollup
)

// UnionArm is one additional SELECT combined by UNION.
type UnionArm struct {
	// All keeps duplicates (UNION ALL); otherwise duplicates are removed.
	All  bool
	Stmt *SelectStmt
}

func (*SelectStmt) stmt() {}

// SelectItem is one projection in the select list.
type SelectItem struct {
	Star      bool   // SELECT *
	TableStar string // SELECT t.*  (table alias); empty otherwise
	Expr      Expr
	Alias     string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// CreateTableStmt creates a base table.
type CreateTableStmt struct {
	Name       string
	Cols       []ColDef
	PrimaryKey []string
}

func (*CreateTableStmt) stmt() {}

// ColDef is one column definition.
type ColDef struct {
	Name    string
	Kind    datum.Kind
	NotNull bool
}

// CreateIndexStmt creates an index.
type CreateIndexStmt struct {
	Name      string
	Table     string
	Cols      []string
	Unique    bool
	Clustered bool
}

func (*CreateIndexStmt) stmt() {}

// CreateViewStmt creates a (materialized) view.
type CreateViewStmt struct {
	Name         string
	Materialized bool
	Select       *SelectStmt
	// SQL is the original text of the SELECT body, retained so the catalog
	// can store the definition.
	SQL string
}

func (*CreateViewStmt) stmt() {}

// InsertStmt inserts literal rows.
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

func (*InsertStmt) stmt() {}

// AnalyzeStmt collects statistics for one table (or all when empty).
type AnalyzeStmt struct{ Table string }

func (*AnalyzeStmt) stmt() {}

// ExplainStmt wraps a statement whose plan should be displayed. With Analyze
// set (EXPLAIN ANALYZE <query>) the statement is also executed and the plan
// is annotated with per-operator runtime metrics.
type ExplainStmt struct {
	Stmt    Statement
	Analyze bool
}

func (*ExplainStmt) stmt() {}

// --- Table expressions ---

// TableName references a base table or view, optionally aliased.
type TableName struct {
	Name  string
	Alias string // empty if none; effective name is Alias or Name
}

func (*TableName) tableExpr() {}

// Binding returns the name the table is known by in the query.
func (t *TableName) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinKind enumerates join operators in the FROM clause.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
	JoinRightOuter
	JoinFullOuter
	JoinCross
)

func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER JOIN"
	case JoinLeftOuter:
		return "LEFT OUTER JOIN"
	case JoinRightOuter:
		return "RIGHT OUTER JOIN"
	case JoinFullOuter:
		return "FULL OUTER JOIN"
	case JoinCross:
		return "CROSS JOIN"
	}
	return "JOIN"
}

// JoinExpr is an explicit JOIN in the FROM clause.
type JoinExpr struct {
	Kind  JoinKind
	Left  TableExpr
	Right TableExpr
	On    Expr // nil for CROSS JOIN
}

func (*JoinExpr) tableExpr() {}

// SubqueryTable is a derived table: (SELECT ...) AS alias.
type SubqueryTable struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryTable) tableExpr() {}

// --- Scalar expressions ---

// ColRef is a column reference, optionally qualified by table binding.
type ColRef struct {
	Table string // empty if unqualified
	Name  string
}

func (*ColRef) expr() {}
func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Lit is a literal value.
type Lit struct{ Val datum.D }

func (*Lit) expr()            {}
func (l *Lit) String() string { return l.Val.String() }

// Param is a statement parameter placeholder (`?` or `$n`). Ord is the
// 1-based ordinal; `?` placeholders are numbered left to right by the lexer.
type Param struct{ Ord int }

func (*Param) expr()            {}
func (p *Param) String() string { return fmt.Sprintf("$%d", p.Ord) }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLike
)

func (op BinOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpLike:
		return "LIKE"
	}
	return "?"
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

func (*BinExpr) expr() {}
func (b *BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// NotExpr is logical negation.
type NotExpr struct{ E Expr }

func (*NotExpr) expr()            {}
func (n *NotExpr) String() string { return fmt.Sprintf("NOT %s", n.E) }

// NegExpr is arithmetic negation.
type NegExpr struct{ E Expr }

func (*NegExpr) expr()            {}
func (n *NegExpr) String() string { return fmt.Sprintf("-%s", n.E) }

// IsNullExpr tests for NULL.
type IsNullExpr struct {
	E       Expr
	Negated bool // IS NOT NULL
}

func (*IsNullExpr) expr() {}
func (e *IsNullExpr) String() string {
	if e.Negated {
		return fmt.Sprintf("%s IS NOT NULL", e.E)
	}
	return fmt.Sprintf("%s IS NULL", e.E)
}

// FuncCall is a function or aggregate invocation.
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

func (*FuncCall) expr() {}
func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	var args []string
	for _, a := range f.Args {
		args = append(args, a.String())
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// AggregateFuncs lists the supported aggregate function names.
var AggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the call is an aggregate function.
func (f *FuncCall) IsAggregate() bool { return AggregateFuncs[f.Name] }

// InExpr is "e [NOT] IN (list)" or "e [NOT] IN (subquery)".
type InExpr struct {
	E       Expr
	List    []Expr      // nil when Sub is set
	Sub     *SelectStmt // nil when List is set
	Negated bool
}

func (*InExpr) expr() {}
func (e *InExpr) String() string {
	neg := ""
	if e.Negated {
		neg = "NOT "
	}
	if e.Sub != nil {
		return fmt.Sprintf("%s %sIN (<subquery>)", e.E, neg)
	}
	var items []string
	for _, it := range e.List {
		items = append(items, it.String())
	}
	return fmt.Sprintf("%s %sIN (%s)", e.E, neg, strings.Join(items, ", "))
}

// ExistsExpr is "[NOT] EXISTS (subquery)".
type ExistsExpr struct {
	Sub     *SelectStmt
	Negated bool
}

func (*ExistsExpr) expr() {}
func (e *ExistsExpr) String() string {
	if e.Negated {
		return "NOT EXISTS (<subquery>)"
	}
	return "EXISTS (<subquery>)"
}

// SubqueryExpr is a scalar subquery used as a value.
type SubqueryExpr struct{ Sub *SelectStmt }

func (*SubqueryExpr) expr()            {}
func (e *SubqueryExpr) String() string { return "(<scalar subquery>)" }

// BetweenExpr is "e [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	E, Lo, Hi Expr
	Negated   bool
}

func (*BetweenExpr) expr() {}
func (e *BetweenExpr) String() string {
	neg := ""
	if e.Negated {
		neg = "NOT "
	}
	return fmt.Sprintf("%s %sBETWEEN %s AND %s", e.E, neg, e.Lo, e.Hi)
}
