// Package cascades implements the Volcano/Cascades extensible optimizer of
// §6.2 of the paper: a memo of equivalence groups, top-down goal-driven rule
// application with memoization ("optimize this group for this required
// property"), transformation rules (join commutativity/associativity),
// implementation rules (scan/join/aggregate algorithms) and enforcers (sort).
// Its implementation rules call internal/implement, as the System-R
// optimizer's enumerators do, over the same cost model and statistics, so
// E14 compares search strategies, not cost models or plan spaces.
package cascades

import (
	"fmt"
	"strings"

	"repro/internal/logical"
)

// GroupID identifies one equivalence class in the memo.
type GroupID int

// opKind tags memo expressions.
type opKind uint8

const (
	opScan opKind = iota
	opValues
	opSelect
	opProject
	opJoin
	opGroupBy
	opLimit
	opUnion
)

// MExpr is one logical expression in the memo: an operator whose relational
// children are memo groups.
type MExpr struct {
	Kind     opKind
	Children []GroupID

	// Payloads (by kind).
	Scan      *logical.Scan
	Values    *logical.Values
	Filters   []logical.Scalar
	Items     []logical.ProjectItem
	JoinKind  logical.JoinKind
	On        []logical.Scalar
	GroupCols []logical.ColumnID
	Aggs      []logical.AggItem
	N         int64
	// Union payload: aligned column lists.
	UnionLeft, UnionRight, UnionCols []logical.ColumnID

	// applied records transformation rules already fired on this expression.
	applied map[string]bool
}

func (e *MExpr) ruleApplied(name string) bool { return e.applied[name] }
func (e *MExpr) markApplied(name string) {
	if e.applied == nil {
		e.applied = map[string]bool{}
	}
	e.applied[name] = true
}

// fingerprint canonically identifies the expression for deduplication.
func (e *MExpr) fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d[", e.Kind)
	for _, c := range e.Children {
		fmt.Fprintf(&sb, "g%d,", int(c))
	}
	sb.WriteByte(']')
	switch e.Kind {
	case opScan:
		fmt.Fprintf(&sb, "%s/%s%v", e.Scan.Table.Name, e.Scan.Binding, e.Scan.Cols)
	case opValues:
		fmt.Fprintf(&sb, "values%d", len(e.Values.Rows))
	case opSelect:
		writeScalars(&sb, e.Filters)
	case opProject:
		for _, it := range e.Items {
			fmt.Fprintf(&sb, "@%d=%s;", int(it.ID), it.Expr)
		}
	case opJoin:
		fmt.Fprintf(&sb, "%d:", e.JoinKind)
		writeScalars(&sb, e.On)
	case opGroupBy:
		fmt.Fprintf(&sb, "%v:", e.GroupCols)
		for _, a := range e.Aggs {
			sb.WriteString(a.String())
			sb.WriteByte(';')
		}
	case opLimit:
		fmt.Fprintf(&sb, "%d", e.N)
	case opUnion:
		fmt.Fprintf(&sb, "%v|%v|%v", e.UnionLeft, e.UnionRight, e.UnionCols)
	}
	return sb.String()
}

// writeScalars writes predicates order-insensitively (a conjunction set).
func writeScalars(sb *strings.Builder, ss []logical.Scalar) {
	strs := make([]string, len(ss))
	for i, s := range ss {
		strs[i] = s.String()
	}
	// Insertion sort: small lists.
	for i := 1; i < len(strs); i++ {
		for j := i; j > 0 && strs[j] < strs[j-1]; j-- {
			strs[j], strs[j-1] = strs[j-1], strs[j]
		}
	}
	for _, s := range strs {
		sb.WriteString(s)
		sb.WriteByte('&')
	}
}

// Group is one equivalence class: a set of logically equivalent expressions
// plus logical properties and the memoized winners per required property.
type Group struct {
	ID    GroupID
	Exprs []*MExpr
	// Cols is the output column set (a logical property).
	Cols logical.ColSet
	// repr is a representative logical tree used for statistics.
	repr logical.RelExpr
	// winners memoizes the best plan per required-ordering key.
	winners  map[string]*winner
	explored bool
}

// Memo is the deduplicated space of explored expressions.
type Memo struct {
	groups []*Group
	index  map[string]GroupID // fingerprint → owning group
	// Metrics
	DedupHits int
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{index: map[string]GroupID{}}
}

// Group returns the group with the given id.
func (m *Memo) Group(id GroupID) *Group { return m.groups[id] }

// NumExprs counts all memo expressions.
func (m *Memo) NumExprs() int {
	n := 0
	for _, g := range m.groups {
		n += len(g.Exprs)
	}
	return n
}

// newGroup allocates an empty group.
func (m *Memo) newGroup(cols logical.ColSet) *Group {
	g := &Group{ID: GroupID(len(m.groups)), Cols: cols, winners: map[string]*winner{}}
	m.groups = append(m.groups, g)
	return g
}

// insert adds an expression to a group (or records a dedup hit if it exists
// anywhere). It returns true if the expression was new.
func (m *Memo) insert(g *Group, e *MExpr) bool {
	fp := e.fingerprint()
	if _, ok := m.index[fp]; ok {
		m.DedupHits++
		return false
	}
	m.index[fp] = g.ID
	g.Exprs = append(g.Exprs, e)
	return true
}

// internGroup finds the group owning an equivalent expression, or creates a
// new group holding it.
func (m *Memo) internGroup(e *MExpr, cols logical.ColSet) *Group {
	fp := e.fingerprint()
	if gid, ok := m.index[fp]; ok {
		m.DedupHits++
		return m.groups[gid]
	}
	g := m.newGroup(cols)
	m.index[fp] = g.ID
	g.Exprs = append(g.Exprs, e)
	return g
}

// Build translates a logical tree into the memo, returning the root group.
func (m *Memo) Build(rel logical.RelExpr) (*Group, error) {
	e, cols, err := m.convert(rel)
	if err != nil {
		return nil, err
	}
	return m.internGroup(e, cols), nil
}

func (m *Memo) convert(rel logical.RelExpr) (*MExpr, logical.ColSet, error) {
	switch t := rel.(type) {
	case *logical.Scan:
		return &MExpr{Kind: opScan, Scan: t}, t.OutputCols(), nil
	case *logical.Values:
		return &MExpr{Kind: opValues, Values: t}, t.OutputCols(), nil
	case *logical.Select:
		cg, err := m.Build(t.Input)
		if err != nil {
			return nil, logical.ColSet{}, err
		}
		return &MExpr{Kind: opSelect, Children: []GroupID{cg.ID}, Filters: t.Filters}, cg.Cols, nil
	case *logical.Project:
		cg, err := m.Build(t.Input)
		if err != nil {
			return nil, logical.ColSet{}, err
		}
		return &MExpr{Kind: opProject, Children: []GroupID{cg.ID}, Items: t.Items}, t.OutputCols(), nil
	case *logical.Join:
		lg, err := m.Build(t.Left)
		if err != nil {
			return nil, logical.ColSet{}, err
		}
		rg, err := m.Build(t.Right)
		if err != nil {
			return nil, logical.ColSet{}, err
		}
		cols := lg.Cols
		if t.Kind.PreservesRight() {
			cols = cols.Union(rg.Cols)
		}
		return &MExpr{Kind: opJoin, Children: []GroupID{lg.ID, rg.ID}, JoinKind: t.Kind, On: t.On}, cols, nil
	case *logical.GroupBy:
		cg, err := m.Build(t.Input)
		if err != nil {
			return nil, logical.ColSet{}, err
		}
		return &MExpr{Kind: opGroupBy, Children: []GroupID{cg.ID}, GroupCols: t.GroupCols, Aggs: t.Aggs}, t.OutputCols(), nil
	case *logical.Limit:
		cg, err := m.Build(t.Input)
		if err != nil {
			return nil, logical.ColSet{}, err
		}
		return &MExpr{Kind: opLimit, Children: []GroupID{cg.ID}, N: t.N}, cg.Cols, nil
	case *logical.Union:
		lg, err := m.Build(t.Left)
		if err != nil {
			return nil, logical.ColSet{}, err
		}
		rg, err := m.Build(t.Right)
		if err != nil {
			return nil, logical.ColSet{}, err
		}
		return &MExpr{Kind: opUnion, Children: []GroupID{lg.ID, rg.ID},
			UnionLeft: t.LeftCols, UnionRight: t.RightCols, UnionCols: t.Cols}, t.OutputCols(), nil
	}
	return nil, logical.ColSet{}, fmt.Errorf("cascades: cannot memoize %T", rel)
}

// Repr returns a representative logical expression for the group, used to
// compute its statistics (statistics are logical properties shared by all
// group members).
func (m *Memo) Repr(g *Group) logical.RelExpr {
	if g.repr != nil {
		return g.repr
	}
	e := g.Exprs[0]
	g.repr = m.exprRepr(e)
	return g.repr
}

func (m *Memo) exprRepr(e *MExpr) logical.RelExpr {
	child := func(i int) logical.RelExpr { return m.Repr(m.groups[e.Children[i]]) }
	switch e.Kind {
	case opScan:
		return e.Scan
	case opValues:
		return e.Values
	case opSelect:
		return &logical.Select{Input: child(0), Filters: e.Filters}
	case opProject:
		return &logical.Project{Input: child(0), Items: e.Items}
	case opJoin:
		return &logical.Join{Kind: e.JoinKind, Left: child(0), Right: child(1), On: e.On}
	case opGroupBy:
		return &logical.GroupBy{Input: child(0), GroupCols: e.GroupCols, Aggs: e.Aggs}
	case opLimit:
		return &logical.Limit{Input: child(0), N: e.N}
	case opUnion:
		return &logical.Union{Left: child(0), Right: child(1),
			LeftCols: e.UnionLeft, RightCols: e.UnionRight, Cols: e.UnionCols}
	}
	panic("cascades: unknown op")
}
