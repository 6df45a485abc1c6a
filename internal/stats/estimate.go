package stats

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/histogram"
	"repro/internal/logical"
)

// System-R style fallback constants used when no histogram or distinct count
// is available (the paper's [55]).
const (
	DefaultEqSel    = 0.10
	DefaultRangeSel = 1.0 / 3.0
	DefaultSel      = 1.0 / 3.0
)

// Mode selects how conjunctions are combined (§5.1.3).
type Mode uint8

const (
	// Independence multiplies the selectivities of all conjuncts.
	Independence Mode = iota
	// MostSelective uses only the most selective conjunct, the alternative
	// the paper attributes to some systems ([17]).
	MostSelective
)

// ColStat is the statistical summary of one query column.
type ColStat struct {
	Distinct float64
	NullFrac float64
	Hist     *histogram.Histogram // may be nil
}

// RelStats is the statistical summary (a logical property) of a relational
// expression's output.
type RelStats struct {
	Rows float64
	Cols map[logical.ColumnID]*ColStat
}

func (s *RelStats) col(id logical.ColumnID) *ColStat {
	if cs, ok := s.Cols[id]; ok {
		return cs
	}
	return nil
}

// Estimator derives RelStats bottom-up over logical expressions.
type Estimator struct {
	Meta *logical.Metadata
	Mode Mode
	// UseHistograms disables histogram use when false (constants only),
	// reproducing the degradation E10/E12 measure.
	UseHistograms bool
	// Overrides, when set, supplies feedback-patched cardinalities consulted
	// before the histogram estimate: a (table, predicate-fingerprint) match
	// on a scan or a filtered scan replaces the computed row count with the
	// observed one. Estimates only — results are never affected.
	Overrides *Overrides
	// SegmentStats, when set, returns coarse statistics synthesized from a
	// table's segment footers (zone maps, NULL counts, distinct sketches).
	// Consulted when a table has never been ANALYZEd, or when the
	// ANALYZE-time row count has drifted ≥2x from the actual stored row
	// count — segment metadata is always current, so it wins over stale
	// statistics. Returns nil when no segment metadata exists.
	SegmentStats func(table string) *catalog.TableStats
	// ScanPages, when set, returns the page count a scan of the table would
	// actually read after zone-map segment elimination under the given
	// residual filters, or -1 when unknown. Lets the cost model charge I/O
	// only for non-pruned segments.
	ScanPages func(scan *logical.Scan, filters []logical.Scalar) float64
	cache     map[logical.RelExpr]*RelStats
	// histJoins memoizes histogram joins per pair of histograms. Column
	// summaries pass through joins by pointer, so every expression that
	// contains a join edge asks for the same pair: a join block of n
	// relations joins n-1 pairs of histograms, not one per subset.
	histJoins map[[2]*histogram.Histogram]float64
}

// NewEstimator returns an estimator with histograms enabled.
func NewEstimator(md *logical.Metadata) *Estimator {
	return &Estimator{Meta: md, UseHistograms: true, cache: make(map[logical.RelExpr]*RelStats)}
}

// Stats computes (and caches) the statistics of rel's output.
func (e *Estimator) Stats(rel logical.RelExpr) *RelStats {
	if s, ok := e.cache[rel]; ok {
		return s
	}
	s := e.compute(rel)
	// Guard the row estimate: never negative, never NaN (a poisoned estimate
	// would silently corrupt every cost above this node).
	if s.Rows < 0 || math.IsNaN(s.Rows) {
		s.Rows = 0
	}
	e.cache[rel] = s
	return s
}

func (e *Estimator) compute(rel logical.RelExpr) *RelStats {
	switch t := rel.(type) {
	case *logical.Scan:
		out := e.scanStats(t)
		e.applyOverride(out, t, nil)
		return out
	case *logical.Values:
		out := &RelStats{Rows: float64(len(t.Rows)), Cols: map[logical.ColumnID]*ColStat{}}
		for _, c := range t.Cols {
			out.Cols[c] = &ColStat{Distinct: out.Rows}
		}
		return out
	case *logical.Select:
		in := e.Stats(t.Input)
		out := e.filterStats(in, t.Filters)
		if scan, ok := t.Input.(*logical.Scan); ok {
			e.applyOverride(out, scan, t.Filters)
		}
		return out
	case *logical.Project:
		in := e.Stats(t.Input)
		out := &RelStats{Rows: in.Rows, Cols: map[logical.ColumnID]*ColStat{}}
		for _, it := range t.Items {
			if c, ok := it.Expr.(*logical.Col); ok {
				if cs := in.col(c.ID); cs != nil {
					out.Cols[it.ID] = cs
					continue
				}
			}
			out.Cols[it.ID] = &ColStat{Distinct: math.Max(1, in.Rows)}
		}
		return out
	case *logical.Join:
		return e.joinStats(t)
	case *logical.GroupBy:
		return e.groupByStats(t)
	case *logical.Limit:
		in := e.Stats(t.Input)
		return &RelStats{Rows: math.Min(in.Rows, float64(t.N)), Cols: in.Cols}
	case *logical.Union:
		l := e.Stats(t.Left)
		r := e.Stats(t.Right)
		out := &RelStats{Rows: l.Rows + r.Rows, Cols: map[logical.ColumnID]*ColStat{}}
		for i, c := range t.Cols {
			var dl, dr float64 = 1, 1
			if cs := l.col(t.LeftCols[i]); cs != nil {
				dl = cs.Distinct
			}
			if cs := r.col(t.RightCols[i]); cs != nil {
				dr = cs.Distinct
			}
			out.Cols[c] = &ColStat{Distinct: math.Min(out.Rows, dl+dr)}
		}
		return out
	}
	return &RelStats{Rows: 1, Cols: map[logical.ColumnID]*ColStat{}}
}

// tableStats resolves the statistics to estimate a scan from: the ANALYZE
// output when present and fresh, otherwise coarse segment-footer statistics
// (when available). "Fresh" means the analyzed row count is within 2x of the
// row count the segment metadata reports — beyond that the table has changed
// enough since ANALYZE that always-current segment metadata is the better
// basis.
func (e *Estimator) tableStats(t *logical.Scan) *catalog.TableStats {
	if t.Table == nil {
		return nil
	}
	ts := t.Table.Stats
	if e.SegmentStats == nil {
		return ts
	}
	ss := e.SegmentStats(t.Table.Name)
	if ss == nil {
		return ts
	}
	if ts == nil {
		return ss
	}
	if ts.RowCount >= 2*ss.RowCount || ss.RowCount >= 2*math.Max(ts.RowCount, 1) {
		return ss
	}
	return ts
}

// TableShape returns the row and page counts a scan of t should be costed
// with. Rows and pages come from the freshest statistics available (ANALYZE
// or segment metadata); when zone-map pruning applies, pages is reduced to
// the pages of only the segments the filters cannot eliminate, so a
// sequential scan under a selective range predicate is charged its true,
// post-pruning I/O. Pages is floored at 1.
func (e *Estimator) TableShape(t *logical.Scan, filters []logical.Scalar) (rows, pages float64) {
	rows, pages = 1, 1
	if ts := e.tableStats(t); ts != nil {
		rows, pages = ts.RowCount, ts.PageCount
	}
	if len(filters) > 0 && e.ScanPages != nil {
		if p := e.ScanPages(t, filters); p >= 0 && p < pages {
			pages = p
		}
	}
	return rows, math.Max(1, pages)
}

func (e *Estimator) scanStats(t *logical.Scan) *RelStats {
	out := &RelStats{Rows: 1, Cols: map[logical.ColumnID]*ColStat{}}
	ts := e.tableStats(t)
	if ts == nil {
		for _, id := range t.Cols {
			out.Cols[id] = &ColStat{Distinct: 1}
		}
		return out
	}
	out.Rows = ts.RowCount
	// Segment-footer stats back-fill columns ANALYZE did not cover: the
	// footer's distinct sketch gives a real NDV where the fallback would
	// otherwise assume every row is distinct (wildly over-selective for
	// equality on low-cardinality columns). Fetched lazily, once per scan.
	var segTS *catalog.TableStats
	segFetched := false
	segStats := func(ord int) *catalog.ColumnStats {
		if !segFetched {
			segFetched = true
			if e.SegmentStats != nil && t.Table != nil {
				segTS = e.SegmentStats(t.Table.Name)
			}
		}
		if segTS == nil {
			return nil
		}
		return segTS.ColStats[ord]
	}
	for _, id := range t.Cols {
		ord := e.Meta.Column(id).BaseOrd
		cs, ok := ts.ColStats[ord]
		if !ok {
			if sc := segStats(ord); sc != nil {
				nullFrac := 0.0
				if ts.RowCount > 0 {
					nullFrac = sc.NullCount / ts.RowCount
				}
				out.Cols[id] = &ColStat{Distinct: math.Max(1, sc.DistinctCount), NullFrac: nullFrac}
				continue
			}
			out.Cols[id] = &ColStat{Distinct: math.Max(1, ts.RowCount)}
			continue
		}
		nullFrac := 0.0
		if ts.RowCount > 0 {
			nullFrac = cs.NullCount / ts.RowCount
		}
		st := &ColStat{Distinct: math.Max(1, cs.DistinctCount), NullFrac: nullFrac}
		if e.UseHistograms {
			st.Hist = cs.Hist
		}
		out.Cols[id] = st
	}
	return out
}

// applyOverride replaces a scan (or filtered-scan) row estimate with an
// observed cardinality when the engine's feedback loop recorded one for the
// same (table, predicate fingerprint). Per-column summaries are kept — only
// the row count is patched — and distincts are re-capped against it.
func (e *Estimator) applyOverride(out *RelStats, scan *logical.Scan, filters []logical.Scalar) {
	if e.Overrides == nil || scan.Table == nil {
		return
	}
	fp, ok := FingerprintFilters(e.Meta, scan.Table.Name, filters)
	if !ok {
		return
	}
	rows, ok := e.Overrides.Get(scan.Table.Name, fp)
	if !ok {
		return
	}
	out.Rows = rows
	for id, cs := range out.Cols {
		if cs.Distinct > out.Rows && out.Rows > 0 {
			nc := *cs
			nc.Distinct = math.Max(1, out.Rows)
			out.Cols[id] = &nc
		}
	}
}

// filterStats applies a conjunction to input statistics, scaling row counts
// and propagating per-column summaries (§5.1.3). Conjuncts combine under the
// independence assumption (or MostSelective): each contributes its own
// selectivity, even two range conjuncts on one column, and a restriction on
// one column never narrows the summary of another. histogram.Build2D
// captures the joint distribution that would fix this; E20 measures it, but
// ANALYZE collects none and this estimator reads none.
func (e *Estimator) filterStats(in *RelStats, filters []logical.Scalar) *RelStats {
	out := &RelStats{Rows: in.Rows, Cols: map[logical.ColumnID]*ColStat{}}
	for id, cs := range in.Cols {
		out.Cols[id] = cs
	}
	sel := 1.0
	minSel := 1.0
	for _, f := range filters {
		s := e.Selectivity(f, in)
		sel *= s
		if s < minSel {
			minSel = s
		}
		// Narrow the summary of directly restricted columns.
		e.narrowColumn(out, f)
	}
	if e.Mode == MostSelective {
		sel = minSel
	}
	// The per-conjunct factors are individually clamped, but their product
	// can still degrade (UDP declarations); clamp the combined selectivity
	// so the filter never amplifies rows or goes negative.
	out.Rows = in.Rows * clamp01(sel)
	// Cap distincts at the new row count.
	for id, cs := range out.Cols {
		if cs.Distinct > out.Rows && out.Rows > 0 {
			nc := *cs
			nc.Distinct = math.Max(1, out.Rows)
			out.Cols[id] = &nc
		}
	}
	return out
}

// narrowColumn updates the column summary for simple col-vs-const predicates.
// The inability to touch *other* columns is the correlation blind spot the
// paper highlights; E12 measures it.
func (e *Estimator) narrowColumn(out *RelStats, f logical.Scalar) {
	cmp, ok := f.(*logical.Cmp)
	if !ok {
		return
	}
	col, cval, op, ok := normalizeCmp(cmp)
	if !ok {
		return
	}
	cs := out.col(col)
	if cs == nil {
		return
	}
	nc := *cs
	nc.NullFrac = 0
	switch op {
	case logical.CmpEq:
		nc.Distinct = 1
		if cs.Hist != nil {
			nc.Hist = cs.Hist.FilterRange(cval, true, cval, true)
		}
	case logical.CmpLt, logical.CmpLe:
		if cs.Hist != nil {
			nc.Hist = cs.Hist.FilterRange(datum.Null, false, cval, op == logical.CmpLe)
			nc.Distinct = math.Max(1, nc.Hist.Distinct)
		}
	case logical.CmpGt, logical.CmpGe:
		if cs.Hist != nil {
			nc.Hist = cs.Hist.FilterRange(cval, op == logical.CmpGe, datum.Null, false)
			nc.Distinct = math.Max(1, nc.Hist.Distinct)
		}
	default:
		return
	}
	out.Cols[col] = &nc
}

// normalizeCmp extracts (column, constant, op) from col-op-const or
// const-op-col comparisons.
func normalizeCmp(c *logical.Cmp) (logical.ColumnID, datum.D, logical.CmpOp, bool) {
	if col, ok := c.L.(*logical.Col); ok {
		if k, ok := c.R.(*logical.Const); ok {
			return col.ID, k.Val, c.Op, true
		}
	}
	if col, ok := c.R.(*logical.Col); ok {
		if k, ok := c.L.(*logical.Const); ok {
			return col.ID, k.Val, c.Op.Commute(), true
		}
	}
	return 0, datum.Null, 0, false
}

// Selectivity estimates the fraction of input rows satisfying pred.
func (e *Estimator) Selectivity(pred logical.Scalar, in *RelStats) float64 {
	switch t := pred.(type) {
	case *logical.Const:
		if logical.TruthValue(t.Val) {
			return 1
		}
		return 0
	case *logical.Cmp:
		return e.cmpSelectivity(t, in)
	case *logical.And:
		l := e.Selectivity(t.L, in)
		r := e.Selectivity(t.R, in)
		if e.Mode == MostSelective {
			return clamp01(math.Min(l, r))
		}
		return clamp01(l * r)
	case *logical.Or:
		l := e.Selectivity(t.L, in)
		r := e.Selectivity(t.R, in)
		return clamp01(l + r - l*r)
	case *logical.Not:
		return clamp01(1 - e.Selectivity(t.E, in))
	case *logical.IsNull:
		var frac float64
		if c, ok := t.E.(*logical.Col); ok {
			if cs := in.col(c.ID); cs != nil {
				frac = cs.NullFrac
			}
		}
		if t.Negated {
			return clamp01(1 - frac)
		}
		return clamp01(frac)
	case *logical.InList:
		if c, ok := t.E.(*logical.Col); ok {
			sel := 0.0
			for _, item := range t.List {
				if k, ok := item.(*logical.Const); ok {
					sel += e.colConstSelectivity(c.ID, k.Val, logical.CmpEq, in)
				} else {
					sel += DefaultEqSel
				}
			}
			sel = clamp01(sel)
			if t.Negated {
				return clamp01(1 - sel)
			}
			return sel
		}
		return DefaultSel
	case *logical.Subquery:
		// No statistics cross query blocks here; use a neutral guess.
		return 0.5
	case *logical.UDPRef:
		return clamp01(t.Selectivity)
	}
	return DefaultSel
}

func (e *Estimator) cmpSelectivity(c *logical.Cmp, in *RelStats) float64 {
	// col op const
	if col, cval, op, ok := normalizeCmp(c); ok {
		return e.colConstSelectivity(col, cval, op, in)
	}
	// col op col (within the same input): use distinct counts.
	lc, lok := c.L.(*logical.Col)
	rc, rok := c.R.(*logical.Col)
	if lok && rok {
		ls, rs := in.col(lc.ID), in.col(rc.ID)
		if ls != nil && rs != nil {
			switch c.Op {
			case logical.CmpEq:
				return 1 / math.Max(1, math.Max(ls.Distinct, rs.Distinct))
			case logical.CmpNe:
				return clamp01(1 - 1/math.Max(1, math.Max(ls.Distinct, rs.Distinct)))
			default:
				return DefaultRangeSel
			}
		}
	}
	switch c.Op {
	case logical.CmpEq:
		return DefaultEqSel
	case logical.CmpNe:
		return 1 - DefaultEqSel
	default:
		return DefaultRangeSel
	}
}

func (e *Estimator) colConstSelectivity(col logical.ColumnID, cval datum.D, op logical.CmpOp, in *RelStats) float64 {
	cs := in.col(col)
	if cs == nil {
		if op == logical.CmpEq {
			return DefaultEqSel
		}
		return DefaultRangeSel
	}
	nonNull := 1 - cs.NullFrac
	switch op {
	case logical.CmpEq:
		if cs.Hist != nil && cs.Hist.Total > 0 {
			return clamp01(cs.Hist.SelectivityEq(cval) * nonNull)
		}
		return clamp01(nonNull / math.Max(1, cs.Distinct))
	case logical.CmpNe:
		return clamp01(1 - e.colConstSelectivity(col, cval, logical.CmpEq, in))
	case logical.CmpLt:
		return e.rangeSel(cs, datum.Null, false, cval, false, nonNull)
	case logical.CmpLe:
		return e.rangeSel(cs, datum.Null, false, cval, true, nonNull)
	case logical.CmpGt:
		return e.rangeSel(cs, cval, false, datum.Null, false, nonNull)
	case logical.CmpGe:
		return e.rangeSel(cs, cval, true, datum.Null, false, nonNull)
	case logical.CmpLike:
		if cval.Kind() == datum.KindString {
			prefix := logical.LikePrefix(cval.Str())
			if prefix == cval.Str() {
				// No wildcards: equality.
				return e.colConstSelectivity(col, cval, logical.CmpEq, in)
			}
			if prefix != "" && cs.Hist != nil {
				hi := prefix[:len(prefix)-1] + string(prefix[len(prefix)-1]+1)
				return clamp01(cs.Hist.SelectivityRange(datum.NewString(prefix), true, datum.NewString(hi), false) * nonNull)
			}
		}
		return DefaultRangeSel
	}
	return DefaultSel
}

func (e *Estimator) rangeSel(cs *ColStat, lo datum.D, loIncl bool, hi datum.D, hiIncl bool, nonNull float64) float64 {
	if cs.Hist != nil && cs.Hist.Total > 0 {
		return clamp01(cs.Hist.SelectivityRange(lo, loIncl, hi, hiIncl) * nonNull)
	}
	return DefaultRangeSel
}

// joinStats estimates join output cardinality and column summaries.
func (e *Estimator) joinStats(j *logical.Join) *RelStats {
	l := e.Stats(j.Left)
	r := e.Stats(j.Right)
	cross := l.Rows * r.Rows
	sel := e.JoinSelectivity(j.On, l, r)
	innerRows := cross * sel

	out := &RelStats{Cols: map[logical.ColumnID]*ColStat{}}
	switch j.Kind {
	case logical.InnerJoin:
		out.Rows = innerRows
	case logical.LeftOuterJoin:
		out.Rows = math.Max(innerRows, l.Rows)
	case logical.FullOuterJoin:
		out.Rows = math.Max(innerRows, math.Max(l.Rows, r.Rows))
	case logical.SemiJoin:
		// Fraction of left rows with at least one match.
		out.Rows = math.Min(l.Rows, innerRows)
		if r.Rows > 0 {
			frac := innerRows / math.Max(1, l.Rows)
			out.Rows = l.Rows * clamp01(frac)
		}
	case logical.AntiJoin:
		frac := innerRows / math.Max(1, l.Rows)
		out.Rows = l.Rows * clamp01(1-clamp01(frac))
	}
	for id, cs := range l.Cols {
		out.Cols[id] = capDistinct(cs, out.Rows)
	}
	if j.Kind.PreservesRight() {
		for id, cs := range r.Cols {
			out.Cols[id] = capDistinct(cs, out.Rows)
		}
	}
	return out
}

func capDistinct(cs *ColStat, rows float64) *ColStat {
	if cs.Distinct <= rows {
		return cs
	}
	nc := *cs
	nc.Distinct = math.Max(1, rows)
	return &nc
}

// JoinSelectivity estimates the combined selectivity of join predicates
// between two inputs: histogram joining when possible, otherwise 1/max of the
// distinct counts, otherwise constants.
func (e *Estimator) JoinSelectivity(preds []logical.Scalar, l, r *RelStats) float64 {
	if len(preds) == 0 {
		return 1
	}
	sel := 1.0
	minSel := 1.0
	for _, p := range preds {
		s := e.joinPredSelectivity(p, l, r)
		sel *= s
		if s < minSel {
			minSel = s
		}
	}
	if e.Mode == MostSelective {
		return clamp01(minSel)
	}
	return clamp01(sel)
}

func (e *Estimator) joinPredSelectivity(p logical.Scalar, l, r *RelStats) float64 {
	cmp, ok := p.(*logical.Cmp)
	if !ok {
		return DefaultSel
	}
	lc, lok := cmp.L.(*logical.Col)
	rc, rok := cmp.R.(*logical.Col)
	if !lok || !rok {
		// Mixed predicate: treat as a filter over the cross product.
		combined := &RelStats{Rows: l.Rows * r.Rows, Cols: map[logical.ColumnID]*ColStat{}}
		for id, cs := range l.Cols {
			combined.Cols[id] = cs
		}
		for id, cs := range r.Cols {
			combined.Cols[id] = cs
		}
		return e.Selectivity(p, combined)
	}
	ls := l.col(lc.ID)
	rs := r.col(rc.ID)
	if ls == nil || rs == nil {
		// Sides swapped relative to the plan's children.
		ls = l.col(rc.ID)
		rs = r.col(lc.ID)
	}
	if ls == nil || rs == nil {
		if cmp.Op == logical.CmpEq {
			return DefaultEqSel
		}
		return DefaultRangeSel
	}
	if cmp.Op != logical.CmpEq {
		return DefaultRangeSel
	}
	if e.UseHistograms && ls.Hist != nil && rs.Hist != nil && ls.Hist.Total > 0 && rs.Hist.Total > 0 {
		card := e.joinCardinality(ls.Hist, rs.Hist)
		denom := ls.Hist.Total * rs.Hist.Total
		if denom > 0 {
			return clamp01(card / denom)
		}
	}
	return 1 / math.Max(1, math.Max(ls.Distinct, rs.Distinct))
}

func (e *Estimator) joinCardinality(a, b *histogram.Histogram) float64 {
	key := [2]*histogram.Histogram{a, b}
	card, ok := e.histJoins[key]
	if !ok {
		if e.histJoins == nil {
			e.histJoins = map[[2]*histogram.Histogram]float64{}
		}
		card = histogram.JoinCardinality(a, b)
		e.histJoins[key] = card
	}
	return card
}

// groupByStats estimates one row per group.
func (e *Estimator) groupByStats(g *logical.GroupBy) *RelStats {
	in := e.Stats(g.Input)
	out := &RelStats{Cols: map[logical.ColumnID]*ColStat{}}
	if len(g.GroupCols) == 0 {
		out.Rows = 1
	} else {
		groups := 1.0
		for _, c := range g.GroupCols {
			if cs := in.col(c); cs != nil {
				groups *= math.Max(1, cs.Distinct)
			} else {
				groups *= math.Max(1, in.Rows)
			}
			if groups > in.Rows {
				groups = math.Max(1, in.Rows)
				break
			}
		}
		out.Rows = math.Min(groups, math.Max(1, in.Rows))
	}
	for _, c := range g.GroupCols {
		if cs := in.col(c); cs != nil {
			out.Cols[c] = capDistinct(cs, out.Rows)
		} else {
			out.Cols[c] = &ColStat{Distinct: out.Rows}
		}
	}
	for _, a := range g.Aggs {
		out.Cols[a.ID] = &ColStat{Distinct: math.Max(1, out.Rows)}
	}
	return out
}

// clamp01 confines a selectivity to [0,1]; NaN (e.g. 0/0 from degenerate
// histograms) maps to 0 so it cannot poison downstream cardinalities.
func clamp01(f float64) float64 {
	if f < 0 || math.IsNaN(f) {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
