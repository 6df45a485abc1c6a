// Package physical defines physical operator trees — the execution plans of
// Figure 1 of the paper. Each node fixes a concrete output column layout, an
// estimated cardinality and a cumulative estimated cost, and declares the
// ordering (physical property, §3) its output provides.
package physical

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
)

// Plan is a physical operator tree node.
type Plan interface {
	phys()
	// Columns returns the output layout: column IDs in row order.
	Columns() []logical.ColumnID
	// Ordering returns the ordering the output is guaranteed to have.
	Ordering() logical.Ordering
	// Estimate returns (cardinality, cumulative cost).
	Estimate() (rows, cost float64)
}

// Props carries the estimates every node stores.
type Props struct {
	Rows float64 // estimated output cardinality
	Cost float64 // estimated cumulative cost of the subtree
}

// Estimate implements part of Plan.
func (p Props) Estimate() (float64, float64) { return p.Rows, p.Cost }

// TableScan reads a heap sequentially.
type TableScan struct {
	Props
	Table   *catalog.Table
	Binding string
	Cols    []logical.ColumnID // layout; parallel to ColOrds
	ColOrds []int              // base-table ordinals for each output column
	// Filter is applied during the scan (pushed-down predicates).
	Filter []logical.Scalar
}

func (*TableScan) phys() {}

// Columns returns the scan layout.
func (t *TableScan) Columns() []logical.ColumnID { return t.Cols }

// Ordering: a heap scan provides the clustered index order if one exists.
func (t *TableScan) Ordering() logical.Ordering {
	ci := t.Table.ClusteredIndex()
	if ci == nil {
		return nil
	}
	var ord logical.Ordering
	for _, baseOrd := range ci.Cols {
		id, ok := t.colForOrd(baseOrd)
		if !ok {
			return ord
		}
		ord = append(ord, logical.OrderSpec{Col: id})
	}
	return ord
}

func (t *TableScan) colForOrd(ord int) (logical.ColumnID, bool) {
	for i, o := range t.ColOrds {
		if o == ord {
			return t.Cols[i], true
		}
	}
	return 0, false
}

// IndexScan seeks/scans an index and fetches matching rows.
type IndexScan struct {
	Props
	Table   *catalog.Table
	Index   *catalog.Index
	Binding string
	Cols    []logical.ColumnID
	ColOrds []int
	// EqKey, when non-nil, restricts the leading index column(s) to these
	// constant values.
	EqKey datum.Row
	// EqKeyParams, when non-nil, parallels EqKey: entry i is the 1-based
	// statement parameter whose binding produced EqKey[i], or 0 for a plain
	// constant. Keys reads fresh bindings through it.
	EqKeyParams []int
	// Lo/Hi bound the column after the equality prefix (or the leading
	// column when EqKey is empty); NULL means unbounded.
	Lo, Hi         datum.D
	LoIncl, HiIncl bool
	// LoParam/HiParam are the parameter ordinals behind Lo/Hi (0 = constant).
	LoParam, HiParam int
	// Filter holds residual predicates evaluated after the fetch.
	Filter []logical.Scalar
}

func (*IndexScan) phys() {}

// Keys returns the scan's index condition under the parameter bindings
// params: EqKey appended to eq, and Lo and Hi, each parameter-bound value
// replaced by its binding (logical.BoundParam).
func (i *IndexScan) Keys(params []datum.D, eq datum.Row) (datum.Row, datum.D, datum.D) {
	n := len(eq)
	eq = append(eq, i.EqKey...)
	for k, ord := range i.EqKeyParams[:min(len(i.EqKeyParams), len(i.EqKey))] {
		eq[n+k] = logical.BoundParam(eq[n+k], ord, params)
	}
	return eq, logical.BoundParam(i.Lo, i.LoParam, params), logical.BoundParam(i.Hi, i.HiParam, params)
}

// Columns returns the output layout.
func (i *IndexScan) Columns() []logical.ColumnID { return i.Cols }

// Ordering: index order on the index columns (ascending).
func (i *IndexScan) Ordering() logical.Ordering {
	var ord logical.Ordering
	for _, baseOrd := range i.Index.Cols {
		id, ok := i.colForOrd(baseOrd)
		if !ok {
			return ord
		}
		ord = append(ord, logical.OrderSpec{Col: id})
	}
	return ord
}

func (i *IndexScan) colForOrd(ord int) (logical.ColumnID, bool) {
	for j, o := range i.ColOrds {
		if o == ord {
			return i.Cols[j], true
		}
	}
	return 0, false
}

// ValuesOp produces literal rows.
type ValuesOp struct {
	Props
	Cols []logical.ColumnID
	Rows [][]logical.Scalar
}

func (*ValuesOp) phys() {}

// Columns returns the layout.
func (v *ValuesOp) Columns() []logical.ColumnID { return v.Cols }

// Ordering of literal rows is unspecified.
func (v *ValuesOp) Ordering() logical.Ordering { return nil }

// Filter drops rows failing its predicates.
type Filter struct {
	Props
	Input Plan
	Preds []logical.Scalar
}

func (*Filter) phys() {}

// Columns passes through the input layout.
func (f *Filter) Columns() []logical.ColumnID { return f.Input.Columns() }

// Ordering passes through.
func (f *Filter) Ordering() logical.Ordering { return f.Input.Ordering() }

// Project computes a new layout.
type Project struct {
	Props
	Input Plan
	Items []logical.ProjectItem
}

func (*Project) phys() {}

// Columns returns the projected layout.
func (p *Project) Columns() []logical.ColumnID {
	out := make([]logical.ColumnID, len(p.Items))
	for i, it := range p.Items {
		out[i] = it.ID
	}
	return out
}

// Ordering is preserved for the passthrough prefix of the input ordering.
func (p *Project) Ordering() logical.Ordering {
	in := p.Input.Ordering()
	keep := map[logical.ColumnID]bool{}
	for _, it := range p.Items {
		if c, ok := it.Expr.(*logical.Col); ok && c.ID == it.ID {
			keep[it.ID] = true
		}
	}
	var out logical.Ordering
	for _, s := range in {
		if !keep[s.Col] {
			break
		}
		out = append(out, s)
	}
	return out
}

// Sort orders its input — the enforcer operator of §6.2.
type Sort struct {
	Props
	Input Plan
	By    logical.Ordering
}

func (*Sort) phys() {}

// Columns passes through.
func (s *Sort) Columns() []logical.ColumnID { return s.Input.Columns() }

// Ordering is exactly the sort key.
func (s *Sort) Ordering() logical.Ordering { return s.By }

// JoinSide layouts combine left then right for right-preserving kinds.
func joinColumns(kind logical.JoinKind, left, right Plan) []logical.ColumnID {
	cols := append([]logical.ColumnID{}, left.Columns()...)
	if kind.PreservesRight() {
		cols = append(cols, right.Columns()...)
	}
	return cols
}

// NLJoin is the (block) nested-loop join.
type NLJoin struct {
	Props
	Kind  logical.JoinKind
	Left  Plan
	Right Plan
	On    []logical.Scalar
}

func (*NLJoin) phys() {}

// Columns is left ⧺ right (kind permitting).
func (j *NLJoin) Columns() []logical.ColumnID { return joinColumns(j.Kind, j.Left, j.Right) }

// Ordering: the outer (left) input's order survives.
func (j *NLJoin) Ordering() logical.Ordering { return j.Left.Ordering() }

// INLJoin is the index nested-loop join: for each outer row, seek the inner
// table's index with the outer key.
type INLJoin struct {
	Props
	Kind  logical.JoinKind
	Left  Plan
	Table *catalog.Table
	Index *catalog.Index
	// Binding and Cols/ColOrds describe the inner occurrence layout.
	Binding string
	Cols    []logical.ColumnID
	ColOrds []int
	// LeftKeys are outer columns equated with the index's leading columns.
	LeftKeys []logical.ColumnID
	// ExtraOn holds residual join predicates.
	ExtraOn []logical.Scalar
}

func (*INLJoin) phys() {}

// Columns is left ⧺ inner columns (kind permitting).
func (j *INLJoin) Columns() []logical.ColumnID {
	cols := append([]logical.ColumnID{}, j.Left.Columns()...)
	if j.Kind.PreservesRight() {
		cols = append(cols, j.Cols...)
	}
	return cols
}

// Ordering: outer order survives.
func (j *INLJoin) Ordering() logical.Ordering { return j.Left.Ordering() }

// MergeJoin joins two inputs sorted on their keys.
type MergeJoin struct {
	Props
	Kind      logical.JoinKind
	Left      Plan
	Right     Plan
	LeftKeys  []logical.ColumnID
	RightKeys []logical.ColumnID
	ExtraOn   []logical.Scalar
}

func (*MergeJoin) phys() {}

// Columns is left ⧺ right (kind permitting).
func (j *MergeJoin) Columns() []logical.ColumnID { return joinColumns(j.Kind, j.Left, j.Right) }

// Ordering: merge output is ordered on the left keys.
func (j *MergeJoin) Ordering() logical.Ordering {
	var out logical.Ordering
	for _, k := range j.LeftKeys {
		out = append(out, logical.OrderSpec{Col: k})
	}
	return out
}

// HashJoin builds a hash table on the right input.
type HashJoin struct {
	Props
	Kind      logical.JoinKind
	Left      Plan
	Right     Plan
	LeftKeys  []logical.ColumnID
	RightKeys []logical.ColumnID
	ExtraOn   []logical.Scalar
}

func (*HashJoin) phys() {}

// Columns is left ⧺ right (kind permitting).
func (j *HashJoin) Columns() []logical.ColumnID { return joinColumns(j.Kind, j.Left, j.Right) }

// Ordering: probe-side order survives (streaming probe).
func (j *HashJoin) Ordering() logical.Ordering { return j.Left.Ordering() }

// HashGroupBy aggregates with a hash table (no input order required).
type HashGroupBy struct {
	Props
	Input     Plan
	GroupCols []logical.ColumnID
	Aggs      []logical.AggItem
}

func (*HashGroupBy) phys() {}

// Columns: group columns then aggregates.
func (g *HashGroupBy) Columns() []logical.ColumnID {
	out := append([]logical.ColumnID{}, g.GroupCols...)
	for _, a := range g.Aggs {
		out = append(out, a.ID)
	}
	return out
}

// Ordering: hash output is unordered.
func (g *HashGroupBy) Ordering() logical.Ordering { return nil }

// StreamGroupBy aggregates an input already sorted on the group columns.
type StreamGroupBy struct {
	Props
	Input     Plan
	GroupCols []logical.ColumnID
	Aggs      []logical.AggItem
}

func (*StreamGroupBy) phys() {}

// Columns: group columns then aggregates.
func (g *StreamGroupBy) Columns() []logical.ColumnID {
	out := append([]logical.ColumnID{}, g.GroupCols...)
	for _, a := range g.Aggs {
		out = append(out, a.ID)
	}
	return out
}

// Ordering: output stays ordered on the group columns.
func (g *StreamGroupBy) Ordering() logical.Ordering {
	var out logical.Ordering
	for _, c := range g.GroupCols {
		out = append(out, logical.OrderSpec{Col: c})
	}
	return out
}

// LimitOp returns the first N rows.
type LimitOp struct {
	Props
	Input Plan
	N     int64
}

func (*LimitOp) phys() {}

// Columns passes through.
func (l *LimitOp) Columns() []logical.ColumnID { return l.Input.Columns() }

// Ordering passes through.
func (l *LimitOp) Ordering() logical.Ordering { return l.Input.Ordering() }

// UnionAll concatenates two aligned inputs.
type UnionAll struct {
	Props
	Left, Right         Plan
	LeftCols, RightCols []logical.ColumnID
	Cols                []logical.ColumnID
}

func (*UnionAll) phys() {}

// Columns returns the union layout.
func (u *UnionAll) Columns() []logical.ColumnID { return u.Cols }

// Ordering: concatenation destroys order.
func (u *UnionAll) Ordering() logical.Ordering { return nil }

// Exchange models a parallel repartitioning boundary (§7.1): its input runs
// partitioned Degree ways on PartitionCols and is re-merged or re-hashed.
type Exchange struct {
	Props
	Input Plan
	// PartitionCols is the hash-partitioning key (empty = round robin).
	PartitionCols []logical.ColumnID
	Degree        int
	// MergeOrdering, when set, merges sorted streams preserving the order.
	MergeOrdering logical.Ordering
}

func (*Exchange) phys() {}

// Columns passes through.
func (e *Exchange) Columns() []logical.ColumnID { return e.Input.Columns() }

// Ordering: only preserved when merging sorted streams.
func (e *Exchange) Ordering() logical.Ordering { return e.MergeOrdering }

// Subqueries returns the subqueries in p's own scalars — not in its inputs,
// nor in the subqueries' bodies.
func Subqueries(p Plan) []*logical.Subquery {
	var out []*logical.Subquery
	visit := func(ss ...logical.Scalar) {
		for _, s := range ss {
			logical.VisitScalar(s, func(sc logical.Scalar) {
				if sub, ok := sc.(*logical.Subquery); ok {
					out = append(out, sub)
				}
			})
		}
	}
	switch t := p.(type) {
	case *TableScan:
		visit(t.Filter...)
	case *IndexScan:
		visit(t.Filter...)
	case *ValuesOp:
		for _, r := range t.Rows {
			visit(r...)
		}
	case *Filter:
		visit(t.Preds...)
	case *Project:
		for _, it := range t.Items {
			visit(it.Expr)
		}
	case *NLJoin:
		visit(t.On...)
	case *INLJoin:
		visit(t.ExtraOn...)
	case *HashJoin:
		visit(t.ExtraOn...)
	case *MergeJoin:
		visit(t.ExtraOn...)
	case *HashGroupBy:
		for _, a := range t.Aggs {
			visit(a.Arg)
		}
	case *StreamGroupBy:
		for _, a := range t.Aggs {
			visit(a.Arg)
		}
	}
	return out
}

// Children returns the plan children of p.
func Children(p Plan) []Plan {
	switch t := p.(type) {
	case *TableScan, *IndexScan, *ValuesOp:
		return nil
	case *Filter:
		return []Plan{t.Input}
	case *Project:
		return []Plan{t.Input}
	case *Sort:
		return []Plan{t.Input}
	case *NLJoin:
		return []Plan{t.Left, t.Right}
	case *INLJoin:
		return []Plan{t.Left}
	case *MergeJoin:
		return []Plan{t.Left, t.Right}
	case *HashJoin:
		return []Plan{t.Left, t.Right}
	case *HashGroupBy:
		return []Plan{t.Input}
	case *StreamGroupBy:
		return []Plan{t.Input}
	case *LimitOp:
		return []Plan{t.Input}
	case *Exchange:
		return []Plan{t.Input}
	case *UnionAll:
		return []Plan{t.Left, t.Right}
	}
	panic(fmt.Sprintf("physical: unknown plan %T", p))
}

// Format renders the plan tree for EXPLAIN output.
func Format(p Plan, md *logical.Metadata) string {
	var w planWriter
	w.plan(p, md, 0)
	return w.String()
}

// Template is a plan's Format text with a slot wherever an index scan prints
// a key that a statement parameter bound (EqKeyParams, LoParam, HiParam):
// the only text of a plan that depends on parameter values, since a
// parameter-tagged constant in a scalar prints as its "$n" tag. Render
// splices bindings into the slots with the printer Format uses (datum's
// Append), so Render(binds) equals Format(BindParams(p, binds), md) byte for
// byte for bindings that are NULL where p's are — which bindings of one
// plan-cache entry are, since the cache keys on the parameters' kinds — and
// Render(nil) equals Format(p, md). A Template is immutable.
type Template struct {
	text  string // Format's text without the slotted values
	slots []textSlot
}

// textSlot is a parameter-bound value printed at offset at of the text.
type textSlot struct {
	at    int
	param int
	val   datum.D // the value in the plan, printed when param has no binding
}

// NewTemplate renders p's plan text with its parameter slots.
func NewTemplate(p Plan, md *logical.Metadata) *Template {
	w := planWriter{t: &Template{}}
	w.plan(p, md, 0)
	w.t.text = w.String()
	return w.t
}

// Render returns the plan text under the bindings binds.
func (t *Template) Render(binds []datum.D) string {
	if len(t.slots) == 0 {
		return t.text
	}
	var buf [256]byte
	b, prev := buf[:0], 0
	for _, s := range t.slots {
		b = append(b, t.text[prev:s.at]...)
		b = logical.BoundParam(s.val, s.param, binds).Append(b)
		prev = s.at
	}
	return string(append(b, t.text[prev:]...))
}

// planWriter accumulates plan text. With t set, a parameter-bound index key
// becomes a slot of t instead of text.
type planWriter struct {
	strings.Builder
	t *Template
}

// value prints d, bound from parameter param (0 = a plain constant).
func (w *planWriter) value(d datum.D, param int) {
	if w.t != nil && param > 0 {
		w.t.slots = append(w.t.slots, textSlot{at: w.Len(), param: param, val: d})
		return
	}
	var buf [32]byte
	w.Write(d.Append(buf[:0]))
}

// plan writes one line per node, "<indent><Describe>  (rows=%.0f
// cost=%.1f)", children indented below their parent. The sub-plans of the
// subqueries in a node's scalars come first, each under a "subquery <mode>
// corr=(<outer columns>)" line one level below the node. Every ad-hoc
// execution renders its plan (Result.Plan) and every new plan-cache box its
// Template, so it is written with strconv, not fmt; a cache hit only renders
// the box's Template.
func (w *planWriter) plan(p Plan, md *logical.Metadata, depth int) {
	sb := &w.Builder
	writeIndent(sb, depth)
	w.describe(p, md)
	rows, cost := p.Estimate()
	var buf [48]byte
	b := append(buf[:0], "  (rows="...)
	b = appendFixed(b, rows, 0)
	b = append(b, " cost="...)
	b = appendFixed(b, cost, 1)
	sb.Write(append(b, ")\n"...))
	for _, sub := range Subqueries(p) {
		writeIndent(sb, depth+1)
		sb.WriteString("subquery ")
		if sub.Negated {
			sb.WriteString("NOT ")
		}
		sb.WriteString(sub.Mode.String())
		sb.WriteString(" corr=(")
		sep := ""
		sub.OuterCols.ForEach(func(c logical.ColumnID) {
			sb.WriteString(sep)
			sb.WriteString(md.QualifiedName(c))
			sep = ", "
		})
		sb.WriteString(")\n")
		if body, ok := sub.Body.(Plan); ok {
			w.plan(body, md, depth+2)
		}
	}
	for _, c := range Children(p) {
		w.plan(c, md, depth+1)
	}
}

func writeIndent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

// appendFixed appends strconv.AppendFloat(b, x, 'f', prec, 64) for prec 0 or
// 1. strconv takes its multiprecision path for every fixed precision, so an
// x in [0, 2^53) is rounded here instead: x = m·2^e exactly, and x·10^prec
// rounds half-even in integer arithmetic, since 10m < 2^57.
func appendFixed(b []byte, x float64, prec int) []byte {
	if !(x >= 0 && x < 1<<53) || math.Signbit(x) {
		return strconv.AppendFloat(b, x, 'f', prec, 64)
	}
	bits := math.Float64bits(x)
	m, e := bits&(1<<52-1)|1<<52, int(bits>>52)-1075
	if bits>>52 == 0 {
		m, e = bits, -1074
	}
	if prec == 1 {
		m *= 10
	}
	var q uint64
	switch {
	case e >= 0:
		q = m << e
	case e > -58: // below that, x·10^prec < 2^57·2^-58 rounds to 0
		q = m >> -e
		rest, half := m&(1<<-e-1), uint64(1)<<(-e-1)
		if rest > half || rest == half && q&1 == 1 {
			q++
		}
	}
	if prec == 0 {
		return strconv.AppendUint(b, q, 10)
	}
	return append(strconv.AppendUint(b, q/10, 10), '.', byte('0'+q%10))
}

// Describe renders one plan node as a single line (operator name plus its
// salient arguments) — shared by EXPLAIN, EXPLAIN ANALYZE and the feedback
// report.
func Describe(p Plan, md *logical.Metadata) string {
	var w planWriter
	w.describe(p, md)
	return w.String()
}

func (w *planWriter) describe(p Plan, md *logical.Metadata) {
	sb := &w.Builder
	switch t := p.(type) {
	case *TableScan:
		sb.WriteString("table-scan ")
		sb.WriteString(t.Table.Name)
		writeFilter(sb, t.Filter, md)
	case *IndexScan:
		sb.WriteString("index-scan ")
		sb.WriteString(t.Table.Name)
		sb.WriteByte('.')
		sb.WriteString(t.Index.Name)
		if len(t.EqKey) > 0 {
			sb.WriteString(" eq=(")
			for i, d := range t.EqKey {
				if i > 0 {
					sb.WriteString(", ")
				}
				param := 0
				if i < len(t.EqKeyParams) {
					param = t.EqKeyParams[i]
				}
				w.value(d, param)
			}
			sb.WriteByte(')')
		}
		if !t.Lo.IsNull() || !t.Hi.IsNull() {
			sb.WriteString(" range=[")
			w.value(t.Lo, t.LoParam)
			sb.WriteByte(',')
			w.value(t.Hi, t.HiParam)
			sb.WriteByte(']')
		}
		writeFilter(sb, t.Filter, md)
	case *ValuesOp:
		sb.WriteString("values (")
		sb.WriteString(strconv.Itoa(len(t.Rows)))
		sb.WriteString(" rows)")
	case *Filter:
		sb.WriteString("filter ")
		sb.WriteString(formatPreds(t.Preds, md))
	case *Project:
		sb.WriteString("project")
	case *Sort:
		sb.WriteString("sort ")
		sb.WriteString(t.By.String())
	case *NLJoin:
		sb.WriteString("nested-loop-")
		sb.WriteString(t.Kind.String())
		sb.WriteByte(' ')
		sb.WriteString(formatPreds(t.On, md))
	case *INLJoin:
		sb.WriteString("index-nl-")
		sb.WriteString(t.Kind.String())
		sb.WriteByte(' ')
		sb.WriteString(t.Table.Name)
		sb.WriteByte('.')
		sb.WriteString(t.Index.Name)
	case *MergeJoin:
		sb.WriteString("merge-")
		sb.WriteString(t.Kind.String())
	case *HashJoin:
		sb.WriteString("hash-")
		sb.WriteString(t.Kind.String())
	case *HashGroupBy:
		sb.WriteString("hash-group-by")
	case *StreamGroupBy:
		sb.WriteString("stream-group-by")
	case *LimitOp:
		sb.WriteString("limit ")
		sb.WriteString(strconv.FormatInt(t.N, 10))
	case *Exchange:
		sb.WriteString("exchange degree=")
		sb.WriteString(strconv.Itoa(t.Degree))
		if len(t.PartitionCols) > 0 {
			sb.WriteString(" hash(")
			for i, c := range t.PartitionCols {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(md.QualifiedName(c))
			}
			sb.WriteByte(')')
		} else {
			sb.WriteString(" round-robin")
		}
		if len(t.MergeOrdering) > 0 {
			sb.WriteString(" merge ")
			sb.WriteString(t.MergeOrdering.String())
		}
	case *UnionAll:
		sb.WriteString("union-all")
	default:
		sb.WriteString(fmt.Sprintf("%T", p))
	}
}

// writeFilter appends " filter=[...]" for a non-empty residual filter.
func writeFilter(sb *strings.Builder, preds []logical.Scalar, md *logical.Metadata) {
	if len(preds) > 0 {
		sb.WriteString(" filter=")
		sb.WriteString(formatPreds(preds, md))
	}
}

func formatPreds(preds []logical.Scalar, md *logical.Metadata) string {
	if len(preds) == 0 {
		return "[]"
	}
	parts := make([]string, len(preds))
	for i, f := range preds {
		parts[i] = logical.FormatScalar(f, md)
	}
	return "[" + strings.Join(parts, " AND ") + "]"
}
