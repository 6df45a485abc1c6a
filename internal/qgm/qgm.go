// Package qgm implements the Starburst architecture of §6.1 of the paper:
// a Query Graph Model view of a statement (boxes holding predicate structure,
// quantifiers ranging over other boxes or base tables), a query-rewrite phase
// driven by a forward-chaining rule engine — rules are pairs of condition and
// action functions, grouped into rule classes with firing budgets — and a
// second plan-optimization phase that delegates to the System-R style
// bottom-up enumerator. Contrast with package cascades, which folds both
// phases into one goal-driven search. The rewrite phase is the engine's only
// rewrite driver: every optimizer kind runs one of its rule sets, Rewrites or
// StarburstRewrites, before planning.
package qgm

import (
	"fmt"
	"strings"

	"repro/internal/logical"
)

// BoxKind classifies QGM boxes.
type BoxKind uint8

// Box kinds.
const (
	SelectBox BoxKind = iota // an SPJ block
	GroupByBox
	BaseTableBox
)

func (k BoxKind) String() string {
	switch k {
	case SelectBox:
		return "SELECT"
	case GroupByBox:
		return "GROUP BY"
	case BaseTableBox:
		return "BASE"
	}
	return "?"
}

// QuantifierType is the role a quantifier plays in its box.
type QuantifierType uint8

// Quantifier types: F (ForEach — a range variable), E (Existential — from
// subquery predicates), A (All — universal).
const (
	ForEach QuantifierType = iota
	Existential
	All
)

func (t QuantifierType) String() string {
	switch t {
	case ForEach:
		return "F"
	case Existential:
		return "E"
	case All:
		return "A"
	}
	return "?"
}

// Quantifier ranges over another box (a table reference or nested block).
type Quantifier struct {
	Type   QuantifierType
	Name   string // binding name (or synthesized)
	Ranges *Box
}

// Box is one QGM box: a query block with quantifiers and predicates.
type Box struct {
	Kind        BoxKind
	Table       string // for BaseTableBox
	Quantifiers []Quantifier
	// Preds are the predicate strings of the block (display form).
	Preds []string
	// Ordered records whether the box's output stream carries an order.
	Ordered bool
}

// BuildQGM derives the QGM structure from a built logical query — one box per
// query block, with quantifiers for base tables and nested blocks.
func BuildQGM(q *logical.Query) *Box {
	root := buildBox(q.Root, q.Meta)
	root.Ordered = len(q.OrderBy) > 0
	return root
}

func buildBox(e logical.RelExpr, md *logical.Metadata) *Box {
	box := &Box{Kind: SelectBox}
	fill(box, e, md)
	return box
}

// fill walks one block, stopping at block boundaries (GroupBy starts a new
// box; subqueries become existential quantifiers).
func fill(box *Box, e logical.RelExpr, md *logical.Metadata) {
	switch t := e.(type) {
	case *logical.Scan:
		box.Quantifiers = append(box.Quantifiers, Quantifier{
			Type: ForEach, Name: t.Binding,
			Ranges: &Box{Kind: BaseTableBox, Table: t.Table.Name},
		})
	case *logical.Values:
		box.Quantifiers = append(box.Quantifiers, Quantifier{
			Type: ForEach, Name: "values",
			Ranges: &Box{Kind: BaseTableBox, Table: "VALUES"},
		})
	case *logical.Select:
		for _, f := range t.Filters {
			box.Preds = append(box.Preds, logical.FormatScalar(f, md))
			addSubqueryQuantifiers(box, f, md)
		}
		fill(box, t.Input, md)
	case *logical.Project:
		fill(box, t.Input, md)
	case *logical.Limit:
		fill(box, t.Input, md)
	case *logical.Join:
		for _, f := range t.On {
			box.Preds = append(box.Preds, logical.FormatScalar(f, md))
			addSubqueryQuantifiers(box, f, md)
		}
		if t.Kind == logical.InnerJoin {
			fill(box, t.Left, md)
			fill(box, t.Right, md)
			return
		}
		// Non-inner joins keep block structure: each side is a nested box.
		box.Quantifiers = append(box.Quantifiers,
			Quantifier{Type: ForEach, Name: t.Kind.String() + "-left", Ranges: buildBox(t.Left, md)},
			Quantifier{Type: quantifierFor(t.Kind), Name: t.Kind.String() + "-right", Ranges: buildBox(t.Right, md)},
		)
	case *logical.Union:
		box.Quantifiers = append(box.Quantifiers,
			Quantifier{Type: ForEach, Name: "union-left", Ranges: buildBox(t.Left, md)},
			Quantifier{Type: ForEach, Name: "union-right", Ranges: buildBox(t.Right, md)},
		)
	case *logical.GroupBy:
		inner := buildBox(t.Input, md)
		gb := &Box{Kind: GroupByBox, Quantifiers: []Quantifier{{Type: ForEach, Name: "grouped", Ranges: inner}}}
		box.Quantifiers = append(box.Quantifiers, Quantifier{Type: ForEach, Name: "agg", Ranges: gb})
	}
}

func quantifierFor(k logical.JoinKind) QuantifierType {
	switch k {
	case logical.SemiJoin:
		return Existential
	case logical.AntiJoin:
		return All
	default:
		return ForEach
	}
}

func addSubqueryQuantifiers(box *Box, f logical.Scalar, md *logical.Metadata) {
	logical.VisitScalar(f, func(sc logical.Scalar) {
		if sub, ok := sc.(*logical.Subquery); ok {
			qt := Existential
			if sub.Negated {
				qt = All
			}
			box.Quantifiers = append(box.Quantifiers, Quantifier{
				Type: qt, Name: strings.ToLower(sub.Mode.String()),
				Ranges: buildBox(sub.Plan, md),
			})
		}
	})
}

// Blocks counts the boxes in the QGM (a multi-block query has > 1).
func (b *Box) Blocks() int {
	n := 1
	for _, q := range b.Quantifiers {
		if q.Ranges != nil && q.Ranges.Kind != BaseTableBox {
			n += q.Ranges.Blocks()
		}
	}
	return n
}

// String renders the QGM for diagnostics.
func (b *Box) String() string {
	var sb strings.Builder
	writeBox(&sb, b, 0)
	return sb.String()
}

func writeBox(sb *strings.Builder, b *Box, depth int) {
	indent := strings.Repeat("  ", depth)
	if b.Kind == BaseTableBox {
		fmt.Fprintf(sb, "%sbase %s\n", indent, b.Table)
		return
	}
	fmt.Fprintf(sb, "%sbox %s", indent, b.Kind)
	if len(b.Preds) > 0 {
		fmt.Fprintf(sb, " preds=[%s]", strings.Join(b.Preds, " AND "))
	}
	sb.WriteByte('\n')
	for _, q := range b.Quantifiers {
		fmt.Fprintf(sb, "%s  quantifier %s(%s):\n", indent, q.Name, q.Type)
		writeBox(sb, q.Ranges, depth+2)
	}
}
