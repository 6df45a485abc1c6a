// Package reference is the engine's correctness oracle: a naive evaluator that
// executes a logical tree directly by recursive materialization — no
// optimizer, no physical plan, one row at a time, every join a nested loop —
// and evaluates every subquery it meets by tuple iteration, re-running the
// subquery's logical tree once per outer row: the baseline §4.2's unnesting
// improves on. It shares no code with internal/exec, so exec's own tests, the
// root package's equivalence suites, internal/experiments and the engine's
// Reference mode check the executor against it. Its aggregates keep the
// engine's result semantics with their own accumulators (agg.go).
package reference

import (
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Counters tallies the evaluator's work, letting experiments compare tuple
// iteration against the executor's set-oriented plans.
type Counters struct {
	RowsProcessed int64 // rows flowing through operators
	HashOps       int64 // group-table inserts
	SubqueryEvals int64 // tuple-iteration subquery executions
	// What the column reads of segment files did.
	storage.ReadStats
}

// Result is a materialized relation: a layout and rows in that layout.
type Result struct {
	Cols []logical.ColumnID
	Rows []datum.Row
}

// ColIndex returns the row offset of a column ID, or -1.
func (r *Result) ColIndex(id logical.ColumnID) int {
	return slices.Index(r.Cols, id)
}

// Evaluator runs logical queries over a store.
type Evaluator struct {
	Store    *storage.Store
	Meta     *logical.Metadata
	Counters Counters
}

// New returns an evaluator over the store and the query's metadata.
func New(store *storage.Store, md *logical.Metadata) *Evaluator {
	return &Evaluator{Store: store, Meta: md}
}

// Compute returns a function that builds a statement over cat, normalizes it
// and runs it over store: the query — whose ResultCols, ColNames and metadata
// describe the result — and its rows in ResultCols order. It is the
// matview.Compute of tests and experiments.
func Compute(cat *catalog.Catalog, store *storage.Store) func(*sql.SelectStmt) (*logical.Query, []datum.Row, error) {
	return func(sel *sql.SelectStmt) (*logical.Query, []datum.Row, error) {
		q, err := logical.NewBuilder(cat).Build(sel)
		if err != nil {
			return nil, nil, err
		}
		logical.NormalizeQuery(q, logical.DefaultNormalize())
		res, err := New(store, q.Meta).RunQuery(q)
		if err != nil {
			return nil, nil, err
		}
		return q, res.Rows, nil
	}
}

// RunQuery executes a full logical query: evaluate the root, apply the
// required ordering, and project the presentation columns. SQL applies ORDER
// BY before LIMIT, so when the root is a Limit the sort happens on its input.
func (v *Evaluator) RunQuery(q *logical.Query) (*Result, error) {
	root := q.Root
	var limit int64 = -1
	if lim, ok := root.(*logical.Limit); ok && len(q.OrderBy) > 0 {
		root, limit = lim.Input, lim.N
	}
	res, err := v.eval(root, nil)
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 {
		spec := make([]datum.SortSpec, len(q.OrderBy))
		for i, o := range q.OrderBy {
			off, err := offset(res.Cols, o.Col, "ORDER BY")
			if err != nil {
				return nil, err
			}
			spec[i] = datum.SortSpec{Col: off, Desc: o.Desc}
		}
		slices.SortStableFunc(res.Rows, func(a, b datum.Row) int { return datum.CompareRows(a, b, spec) })
	}
	if limit >= 0 && int64(len(res.Rows)) > limit {
		res.Rows = res.Rows[:limit]
	}
	return project(res, q.ResultCols, "result")
}

// eval executes a logical tree; outer supplies the bindings of correlated
// columns (nil at the top level).
func (v *Evaluator) eval(rel logical.RelExpr, outer *env) (*Result, error) {
	switch t := rel.(type) {
	case *logical.Scan:
		return v.scan(t)
	case *logical.Values:
		out := &Result{Cols: t.Cols}
		ectx := v.evalCtx(newEnv(nil, outer))
		for _, row := range t.Rows {
			nr, err := evalAll(row, ectx)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, nr)
		}
		return out, nil
	case *logical.Select:
		return v.where(t.Input, t.Filters, outer)
	case *logical.Project:
		in, err := v.eval(t.Input, outer)
		if err != nil {
			return nil, err
		}
		out := &Result{Cols: make([]logical.ColumnID, len(t.Items))}
		exprs := make([]logical.Scalar, len(t.Items))
		for i, it := range t.Items {
			out.Cols[i], exprs[i] = it.ID, it.Expr
		}
		e := newEnv(in.Cols, outer)
		ectx := v.evalCtx(e)
		for _, r := range in.Rows {
			e.row = r
			nr, err := evalAll(exprs, ectx)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, nr)
		}
		v.Counters.RowsProcessed += int64(len(in.Rows))
		return out, nil
	case *logical.Join:
		return v.join(t, outer)
	case *logical.GroupBy:
		return v.groupBy(t, outer)
	case *logical.Limit:
		in, err := v.eval(t.Input, outer)
		if err != nil {
			return nil, err
		}
		in.Rows = in.Rows[:min(int(t.N), len(in.Rows))]
		return in, nil
	case *logical.Union:
		out := &Result{Cols: t.Cols}
		for _, arm := range []struct {
			rel  logical.RelExpr
			cols []logical.ColumnID
		}{{t.Left, t.LeftCols}, {t.Right, t.RightCols}} {
			in, err := v.eval(arm.rel, outer)
			if err != nil {
				return nil, err
			}
			aligned, err := project(in, arm.cols, "union")
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, aligned.Rows...)
		}
		v.Counters.RowsProcessed += int64(len(out.Rows))
		return out, nil
	}
	return nil, fmt.Errorf("reference: cannot evaluate %T", rel)
}

func (v *Evaluator) scan(t *logical.Scan) (*Result, error) {
	tab, ok := v.Store.Table(t.Table.Name)
	if !ok {
		return nil, fmt.Errorf("reference: no storage for table %s", t.Table.Name)
	}
	var sc storage.ScanCtx
	rows, err := tab.Rows(&sc)
	v.Counters.ReadStats.Add(sc.ReadStats)
	if err != nil {
		return nil, err
	}
	v.Counters.RowsProcessed += int64(len(rows))
	out := &Result{Cols: t.Cols, Rows: make([]datum.Row, len(rows))}
	for k, r := range rows {
		nr := make(datum.Row, len(t.Cols))
		for i, id := range t.Cols {
			nr[i] = r[v.Meta.Column(id).BaseOrd]
		}
		out.Rows[k] = nr
	}
	return out, nil
}

// where evaluates rel under the conjuncts preds. Each conjunct is applied at
// the lowest inner join whose inputs bind its columns (a column neither input
// binds belongs to an enclosing block), so a WHERE clause over a
// comma-separated FROM list joins as it goes instead of filtering the
// Cartesian product of its tables; above anything else preds filter rel's
// rows.
func (v *Evaluator) where(rel logical.RelExpr, preds []logical.Scalar, outer *env) (*Result, error) {
	if j, ok := rel.(*logical.Join); ok && j.Kind == logical.InnerJoin {
		lcols, rcols := j.Left.OutputCols(), j.Right.OutputCols()
		var lp, rp, on []logical.Scalar
		for _, p := range preds {
			cols := logical.ScalarCols(p).Intersect(lcols.Union(rcols))
			switch {
			case cols.SubsetOf(lcols):
				lp = append(lp, p)
			case cols.SubsetOf(rcols):
				rp = append(rp, p)
			default:
				on = append(on, p)
			}
		}
		left, err := v.where(j.Left, lp, outer)
		if err != nil {
			return nil, err
		}
		right, err := v.where(j.Right, rp, outer)
		if err != nil {
			return nil, err
		}
		return v.joinRows(j.Kind, left, right, slices.Concat(j.On, on), outer)
	}
	in, err := v.eval(rel, outer)
	if err != nil || len(preds) == 0 {
		return in, err
	}
	out := &Result{Cols: in.Cols}
	e := newEnv(in.Cols, outer)
	ectx := v.evalCtx(e)
	for _, r := range in.Rows {
		e.row = r
		ok, err := allTrue(preds, ectx)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, r)
		}
	}
	v.Counters.RowsProcessed += int64(len(in.Rows))
	return out, nil
}

// join evaluates both inputs and joins them.
func (v *Evaluator) join(t *logical.Join, outer *env) (*Result, error) {
	left, err := v.eval(t.Left, outer)
	if err != nil {
		return nil, err
	}
	right, err := v.eval(t.Right, outer)
	if err != nil {
		return nil, err
	}
	return v.joinRows(t.Kind, left, right, t.On, outer)
}

// joinRows tests the conjunction on on every pair of rows.
func (v *Evaluator) joinRows(kind logical.JoinKind, left, right *Result, on []logical.Scalar, outer *env) (*Result, error) {
	combined := slices.Concat(left.Cols, right.Cols)
	out := &Result{Cols: left.Cols}
	if kind.PreservesRight() {
		out.Cols = combined
	}
	e := newEnv(combined, outer)
	ectx := v.evalCtx(e)
	rightMatched := make([]bool, len(right.Rows)) // for FULL OUTER
	for _, lr := range left.Rows {
		matched := false
		for ri, rr := range right.Rows {
			v.Counters.RowsProcessed++
			e.row = append(append(e.row[:0], lr...), rr...)
			ok, err := allTrue(on, ectx)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			matched, rightMatched[ri] = true, true
			if !kind.PreservesRight() {
				break // a semi or anti join needs one match
			}
			out.Rows = append(out.Rows, lr.Concat(rr))
		}
		switch {
		case kind == logical.SemiJoin && matched, kind == logical.AntiJoin && !matched:
			out.Rows = append(out.Rows, lr)
		case (kind == logical.LeftOuterJoin || kind == logical.FullOuterJoin) && !matched:
			out.Rows = append(out.Rows, lr.Concat(nullRow(len(right.Cols))))
		}
	}
	if kind == logical.FullOuterJoin {
		for ri, rr := range right.Rows {
			if !rightMatched[ri] {
				out.Rows = append(out.Rows, nullRow(len(left.Cols)).Concat(rr))
			}
		}
	}
	return out, nil
}

func nullRow(n int) datum.Row {
	r := make(datum.Row, n)
	for i := range r {
		r[i] = datum.Null
	}
	return r
}

// groupBy feeds the input to a group table, one row at a time; the output
// layout is the group columns, then the aggregates.
func (v *Evaluator) groupBy(t *logical.GroupBy, outer *env) (*Result, error) {
	in, err := v.eval(t.Input, outer)
	if err != nil {
		return nil, err
	}
	keyOffs := make([]int, len(t.GroupCols))
	for i, c := range t.GroupCols {
		if keyOffs[i], err = offset(in.Cols, c, "group"); err != nil {
			return nil, err
		}
	}
	gt := newGroupTable(len(keyOffs) == 0, t.Aggs)
	e := newEnv(in.Cols, outer)
	ectx := v.evalCtx(e)
	args := make([]datum.D, len(t.Aggs))
	for _, r := range in.Rows {
		v.Counters.RowsProcessed++
		v.Counters.HashOps++
		e.row = r
		key := make(datum.Row, len(keyOffs))
		for i, off := range keyOffs {
			key[i] = r[off]
		}
		for i, a := range t.Aggs {
			args[i] = datum.NewInt(1) // COUNT(*) counts every row
			if a.Arg != nil {
				if args[i], err = logical.Eval(a.Arg, ectx); err != nil {
					return nil, err
				}
			}
		}
		gt.add(key, args)
	}
	out := &Result{Cols: slices.Clone(t.GroupCols)}
	for _, a := range t.Aggs {
		out.Cols = append(out.Cols, a.ID)
	}
	out.Rows = gt.rows()
	return out, nil
}

// subquery evaluates a subquery by tuple iteration: its logical tree runs
// under the current bindings, and its rows become a value under SQL's
// three-valued logic.
func (v *Evaluator) subquery(sub *logical.Subquery, e *env) (datum.D, error) {
	v.Counters.SubqueryEvals++
	res, err := v.eval(sub.Plan, e)
	if err != nil {
		return datum.Null, err
	}
	off := max(res.ColIndex(sub.OutCol), 0)
	switch sub.Mode {
	case logical.SubExists:
		return datum.NewBool(len(res.Rows) > 0), nil
	case logical.SubIn:
		val, err := logical.Eval(sub.Scalar, v.evalCtx(e))
		if err != nil {
			return datum.Null, err
		}
		unknown := false
		for _, r := range res.Rows {
			switch {
			case val.IsNull() || r[off].IsNull():
				unknown = true
			case datum.Compare(val, r[off]) == 0:
				return datum.NewBool(true), nil
			}
		}
		if unknown {
			return datum.Null, nil
		}
		return datum.NewBool(false), nil
	case logical.SubScalar:
		switch len(res.Rows) {
		case 0:
			return datum.Null, nil
		case 1:
			return res.Rows[0][off], nil
		}
		return datum.Null, fmt.Errorf("reference: scalar subquery returned %d rows", len(res.Rows))
	}
	return datum.Null, fmt.Errorf("reference: unknown subquery mode %v", sub.Mode)
}

// env binds column IDs to values for scalar evaluation; parent chains
// implement correlation into outer query blocks.
type env struct {
	cols   map[logical.ColumnID]int
	row    datum.Row
	parent *env
}

func newEnv(layout []logical.ColumnID, parent *env) *env {
	m := make(map[logical.ColumnID]int, len(layout))
	for i, c := range layout {
		m[c] = i
	}
	return &env{cols: m, parent: parent}
}

func (e *env) lookup(id logical.ColumnID) (datum.D, error) {
	for cur := e; cur != nil; cur = cur.parent {
		if i, ok := cur.cols[id]; ok {
			return cur.row[i], nil
		}
	}
	return datum.Null, fmt.Errorf("reference: unbound column @%d", int(id))
}

func (v *Evaluator) evalCtx(e *env) *logical.EvalContext {
	return &logical.EvalContext{
		Lookup: e.lookup,
		EvalSubquery: func(sub *logical.Subquery, _ *logical.EvalContext) (datum.D, error) {
			return v.subquery(sub, e)
		},
	}
}

// allTrue reports whether every predicate is TRUE (not FALSE, not NULL).
func allTrue(preds []logical.Scalar, ectx *logical.EvalContext) (bool, error) {
	for _, p := range preds {
		val, err := logical.Eval(p, ectx)
		if err != nil || !logical.TruthValue(val) {
			return false, err
		}
	}
	return true, nil
}

func evalAll(exprs []logical.Scalar, ectx *logical.EvalContext) (datum.Row, error) {
	out := make(datum.Row, len(exprs))
	for i, s := range exprs {
		val, err := logical.Eval(s, ectx)
		if err != nil {
			return nil, err
		}
		out[i] = val
	}
	return out, nil
}

func offset(layout []logical.ColumnID, id logical.ColumnID, what string) (int, error) {
	off := slices.Index(layout, id)
	if off < 0 {
		return 0, fmt.Errorf("reference: %s column @%d not in layout", what, int(id))
	}
	return off, nil
}

// project returns res's rows cut down and reordered to cols.
func project(res *Result, cols []logical.ColumnID, what string) (*Result, error) {
	offs := make([]int, len(cols))
	for i, c := range cols {
		var err error
		if offs[i], err = offset(res.Cols, c, what); err != nil {
			return nil, err
		}
	}
	out := &Result{Cols: cols, Rows: make([]datum.Row, len(res.Rows))}
	for k, r := range res.Rows {
		nr := make(datum.Row, len(offs))
		for i, off := range offs {
			nr[i] = r[off]
		}
		out.Rows[k] = nr
	}
	return out, nil
}
