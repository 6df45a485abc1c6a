package exec

import (
	"fmt"
	"slices"

	"repro/internal/datum"
	"repro/internal/logical"
)

// EvalLogical executes a logical tree directly by recursive materialization —
// the reference evaluator. outer supplies bindings for correlated columns
// (nil at the top level).
func (c *Ctx) EvalLogical(rel logical.RelExpr, outer *env) (*Result, error) {
	switch t := rel.(type) {
	case *logical.Scan:
		return c.naiveScan(t)
	case *logical.Values:
		return c.naiveValues(t, outer)
	case *logical.Select:
		in, err := c.EvalLogical(t.Input, outer)
		if err != nil {
			return nil, err
		}
		out := &Result{Cols: in.Cols}
		e := newEnv(in.Cols, outer)
		for _, r := range in.Rows {
			e.row = r
			ok, err := c.filterRow(t.Filters, e)
			if err != nil {
				return nil, err
			}
			if ok {
				out.Rows = append(out.Rows, r)
			}
		}
		c.Counters.RowsProcessed += int64(len(in.Rows))
		return out, nil
	case *logical.Project:
		in, err := c.EvalLogical(t.Input, outer)
		if err != nil {
			return nil, err
		}
		out := &Result{Cols: make([]logical.ColumnID, len(t.Items))}
		for i, it := range t.Items {
			out.Cols[i] = it.ID
		}
		e := newEnv(in.Cols, outer)
		ectx := c.evalCtx(e)
		for _, r := range in.Rows {
			e.row = r
			nr := make(datum.Row, len(t.Items))
			for i, it := range t.Items {
				v, err := logical.Eval(it.Expr, ectx)
				if err != nil {
					return nil, err
				}
				nr[i] = v
			}
			out.Rows = append(out.Rows, nr)
		}
		c.Counters.RowsProcessed += int64(len(in.Rows))
		return out, nil
	case *logical.Join:
		return c.naiveJoin(t, outer)
	case *logical.GroupBy:
		return c.naiveGroupBy(t, outer)
	case *logical.Limit:
		in, err := c.EvalLogical(t.Input, outer)
		if err != nil {
			return nil, err
		}
		n := int(t.N)
		if n > len(in.Rows) {
			n = len(in.Rows)
		}
		return &Result{Cols: in.Cols, Rows: in.Rows[:n]}, nil
	case *logical.Union:
		left, err := c.EvalLogical(t.Left, outer)
		if err != nil {
			return nil, err
		}
		right, err := c.EvalLogical(t.Right, outer)
		if err != nil {
			return nil, err
		}
		out := &Result{Cols: t.Cols}
		if err := appendAligned(out, left, t.LeftCols); err != nil {
			return nil, err
		}
		if err := appendAligned(out, right, t.RightCols); err != nil {
			return nil, err
		}
		c.Counters.RowsProcessed += int64(len(out.Rows))
		return out, nil
	}
	return nil, fmt.Errorf("exec: cannot evaluate %T", rel)
}

func (c *Ctx) naiveScan(t *logical.Scan) (*Result, error) {
	tab, ok := c.Store.Table(t.Table.Name)
	if !ok {
		return nil, fmt.Errorf("exec: no storage for table %s", t.Table.Name)
	}
	ords := c.scanOrds(t.Cols)
	out := &Result{Cols: t.Cols}
	rows, err := c.tableRows(tab)
	if err != nil {
		return nil, err
	}
	c.touchScan(tab)
	c.Counters.RowsProcessed += int64(len(rows))
	for _, r := range rows {
		out.Rows = append(out.Rows, projectRow(r, ords))
	}
	return out, nil
}

func (c *Ctx) naiveValues(t *logical.Values, outer *env) (*Result, error) {
	out := &Result{Cols: t.Cols}
	e := newEnv(nil, outer)
	ectx := c.evalCtx(e)
	for _, row := range t.Rows {
		nr := make(datum.Row, len(row))
		for i, s := range row {
			v, err := logical.Eval(s, ectx)
			if err != nil {
				return nil, err
			}
			nr[i] = v
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

func (c *Ctx) naiveJoin(t *logical.Join, outer *env) (*Result, error) {
	left, err := c.EvalLogical(t.Left, outer)
	if err != nil {
		return nil, err
	}
	right, err := c.EvalLogical(t.Right, outer)
	if err != nil {
		return nil, err
	}
	combined := append(append([]logical.ColumnID{}, left.Cols...), right.Cols...)
	e := newEnv(combined, outer)
	outCols := left.Cols
	if t.Kind.PreservesRight() {
		outCols = combined
	}
	out := &Result{Cols: outCols}
	rightWidth := len(right.Cols)
	rightMatched := make([]bool, len(right.Rows)) // for FULL OUTER

	// Every pair is tested in one reused row; only a pair that joins is
	// copied out.
	ectx := c.evalCtx(e)
	for _, lr := range left.Rows {
		matched := false
		for ri, rr := range right.Rows {
			c.Counters.RowsProcessed++
			e.row = append(append(e.row[:0], lr...), rr...)
			ok, err := allTrue(t.On, ectx)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			matched = true
			rightMatched[ri] = true
			switch t.Kind {
			case logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin:
				out.Rows = append(out.Rows, lr.Concat(rr))
			case logical.SemiJoin:
				out.Rows = append(out.Rows, lr)
			case logical.AntiJoin:
				// handled below
			}
			if t.Kind == logical.SemiJoin || t.Kind == logical.AntiJoin {
				break
			}
		}
		switch t.Kind {
		case logical.LeftOuterJoin, logical.FullOuterJoin:
			if !matched {
				out.Rows = append(out.Rows, lr.Concat(nullRow(rightWidth)))
			}
		case logical.AntiJoin:
			if !matched {
				out.Rows = append(out.Rows, lr)
			}
		}
	}
	if t.Kind == logical.FullOuterJoin {
		leftWidth := len(left.Cols)
		for ri, rr := range right.Rows {
			if !rightMatched[ri] {
				out.Rows = append(out.Rows, nullRow(leftWidth).Concat(rr))
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

func (c *Ctx) naiveGroupBy(t *logical.GroupBy, outer *env) (*Result, error) {
	in, err := c.EvalLogical(t.Input, outer)
	if err != nil {
		return nil, err
	}
	keyOffsets, err := colOffsets(in.Cols, t.GroupCols, "group")
	if err != nil {
		return nil, err
	}
	gt := newGroupTable(len(t.GroupCols), t.Aggs)
	e := newEnv(in.Cols, outer)
	ectx := c.evalCtx(e)
	for _, r := range in.Rows {
		c.Counters.RowsProcessed++
		e.row = r
		key := make(datum.Row, len(keyOffsets))
		for i, off := range keyOffsets {
			key[i] = r[off]
		}
		args := make([]datum.D, len(t.Aggs))
		for i, a := range t.Aggs {
			if a.Arg == nil {
				args[i] = datum.NewInt(1) // COUNT(*) placeholder
				continue
			}
			v, err := logical.Eval(a.Arg, ectx)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		c.Counters.HashOps++
		gt.add(key, key.Hash(seqOffsets(len(key))), args)
	}
	// Layout is group cols then aggs, matching gt.rows().
	out := &Result{
		Cols: append(append([]logical.ColumnID{}, t.GroupCols...), aggIDs(t.Aggs)...),
		Rows: gt.rows(),
	}
	return out, nil
}

func aggIDs(aggs []logical.AggItem) []logical.ColumnID {
	out := make([]logical.ColumnID, len(aggs))
	for i, a := range aggs {
		out[i] = a.ID
	}
	return out
}

func seqOffsets(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// RunQuery executes a full logical query with the naive engine: evaluate the
// root, apply the required ordering, and project the presentation columns.
// SQL applies ORDER BY before LIMIT, so when the root is a Limit the sort
// happens on its input.
func (c *Ctx) RunQuery(q *logical.Query) (*Result, error) {
	root := q.Root
	var limit int64 = -1
	if lim, ok := root.(*logical.Limit); ok && len(q.OrderBy) > 0 {
		root = lim.Input
		limit = lim.N
	}
	res, err := c.EvalLogical(root, nil)
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 {
		if err := c.sortResult(res, q.OrderBy); err != nil {
			return nil, err
		}
	}
	if limit >= 0 && int64(len(res.Rows)) > limit {
		res.Rows = res.Rows[:limit]
	}
	return presentation(res, q)
}

// sortResult sorts the reference evaluator's rows in place, stably, by the
// ordering over the result layout — under datum.Compare, like every sort of
// the engine.
func (c *Ctx) sortResult(res *Result, by logical.Ordering) error {
	spec, err := sortSpec(res.Cols, by)
	if err != nil {
		return err
	}
	slices.SortStableFunc(res.Rows, func(a, b datum.Row) int { return datum.CompareRows(a, b, spec) })
	return nil
}

// presentation projects a result to the query's declared output columns.
func presentation(res *Result, q *logical.Query) (*Result, error) {
	offsets, err := colOffsets(res.Cols, q.ResultCols, "result")
	if err != nil {
		return nil, err
	}
	out := &Result{Cols: q.ResultCols}
	if len(res.Rows) == 0 {
		return out, nil
	}
	// One backing array for all cells, like Batch.ToRows.
	out.Rows = make([]datum.Row, len(res.Rows))
	cells := make(datum.Row, len(res.Rows)*len(offsets))
	for k, r := range res.Rows {
		out.Rows[k], cells = cells[:len(offsets):len(offsets)], cells[len(offsets):]
		for i, off := range offsets {
			out.Rows[k][i] = r[off]
		}
	}
	return out, nil
}

// appendAligned appends src rows to dst, reordering columns per the aligned
// column list.
func appendAligned(dst *Result, src *Result, cols []logical.ColumnID) error {
	offs := make([]int, len(cols))
	for i, c := range cols {
		off := src.ColIndex(c)
		if off < 0 {
			return fmt.Errorf("exec: union column @%d missing from arm", int(c))
		}
		offs[i] = off
	}
	for _, r := range src.Rows {
		nr := make(datum.Row, len(offs))
		for i, off := range offs {
			nr[i] = r[off]
		}
		dst.Rows = append(dst.Rows, nr)
	}
	return nil
}
