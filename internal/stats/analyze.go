// Package stats implements statistics collection (ANALYZE) and the
// cardinality/selectivity estimation framework of Section 5 of the paper:
// predicate selectivity from histograms or System-R constants, join
// cardinality via histogram joining or distinct-count containment, and
// propagation of statistical summaries through every logical operator.
package stats

import (
	"cmp"
	"slices"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/histogram"
	"repro/internal/storage"
)

// AnalyzeOptions configures statistics collection.
type AnalyzeOptions struct {
	// Buckets is the histogram bucket budget per column (default 32).
	Buckets int
}

func (o AnalyzeOptions) withDefaults() AnalyzeOptions {
	if o.Buckets <= 0 {
		o.Buckets = 32
	}
	return o
}

// Analyze collects statistics for one stored table into its catalog entry:
// row and page counts and, per column, null count, distinct count,
// second-min/second-max and a histogram. Each column is filled into a typed
// vector whose non-NULL payload is sorted in datum.Compare order; one pass
// over it yields everything but the null count, which the vector keeps.
func Analyze(tab *storage.Table, opts AnalyzeOptions) error {
	opts = opts.withDefaults()
	def := tab.Def
	n := tab.RowCount()
	ts := &catalog.TableStats{
		RowCount:  float64(n),
		PageCount: float64(tab.PageCount()),
		ColStats:  make(map[int]*catalog.ColumnStats),
	}
	for ord := range def.Cols {
		v, err := fillColumn(tab, ord, n)
		if err != nil {
			return err
		}
		ts.ColStats[ord] = summarizeColumn(v, opts.Buckets)
	}
	// Multi-column index statistics: distinct key combinations (§5.1.1).
	for _, ix := range def.Indexes {
		switch len(ix.Cols) {
		case 0:
		case 1:
			ix.DistinctKeys = ts.ColStats[ix.Cols[0]].DistinctCount
		default:
			d, err := distinctKeys(tab, ix.Cols, n)
			if err != nil {
				return err
			}
			ix.DistinctKeys = d
		}
	}
	def.Stats = ts
	return nil
}

// fillColumn reads column ord of rows [0, n) into a vector of its own.
func fillColumn(tab *storage.Table, ord, n int) (*datum.Vec, error) {
	v := datum.NewVec(tab.Def.Cols[ord].Kind, n)
	if err := tab.FillColumnRange(nil, ord, 0, n, v); err != nil {
		return nil, err
	}
	return v, nil
}

// summarizeColumn sorts v's non-NULL payload in place, in datum.Compare
// order, and reads the column's statistics off it. INT, BOOL and dictionary
// codes sort as int64 (a dictionary is sorted, so code order is string
// order), FLOAT as float64 (NaN first, -0 beside +0, as datum.Compare
// orders them) and plain strings as strings; only a boxed vector sorts by
// datum.Compare itself.
func summarizeColumn(v *datum.Vec, k int) *catalog.ColumnStats {
	null := v.Null
	if !v.HasNulls() {
		null = nil
	}
	switch {
	case v.Boxed():
		vals := nonNull(v.Ds, v.Null)
		slices.SortFunc(vals, datum.Compare)
		return summarize(vals, v.Len()-len(vals), k, datum.Equal, func(d datum.D) datum.D { return d })
	case v.Kind() == datum.KindNull:
		return summarize([]datum.D(nil), v.Len(), k, datum.Equal, nil)
	case v.Dict != nil:
		dict := v.Dict.Vals
		return summarizeOrdered(nonNull(v.Ints, null), v.NumNulls(), k,
			func(c int64) datum.D { return datum.NewString(dict[c]) })
	case v.Kind() == datum.KindInt:
		return summarizeOrdered(nonNull(v.Ints, null), v.NumNulls(), k, datum.NewInt)
	case v.Kind() == datum.KindBool:
		return summarizeOrdered(nonNull(v.Ints, null), v.NumNulls(), k,
			func(b int64) datum.D { return datum.NewBool(b != 0) })
	case v.Kind() == datum.KindFloat:
		return summarizeOrdered(nonNull(v.Floats, null), v.NumNulls(), k, datum.NewFloat)
	default:
		return summarizeOrdered(nonNull(v.Strs, null), v.NumNulls(), k, datum.NewString)
	}
}

// nonNull moves the payload of the rows null does not mark to the front of
// vals, keeping their order, and returns that prefix; a nil null keeps vals.
func nonNull[T any](vals []T, null func(i int) bool) []T {
	if null == nil {
		return vals
	}
	out := vals[:0]
	for i, x := range vals {
		if !null(i) {
			out = append(out, x)
		}
	}
	return out
}

// summarizeOrdered sorts a typed payload — cmp.Compare is datum.Compare on
// one kind's payload, NaN and -0 included — and summarizes it.
func summarizeOrdered[T cmp.Ordered](vals []T, nulls, k int, box func(T) datum.D) *catalog.ColumnStats {
	slices.Sort(vals)
	return summarize(vals, nulls, k, func(a, b T) bool { return cmp.Compare(a, b) == 0 }, box)
}

// summarize reads a column's statistics off its sorted non-NULL values: the
// equi-depth histogram, whose distinct count is the exact number of values
// distinct under datum.Compare, and the second-lowest and second-highest
// values (the paper notes min/max themselves are often outliers), which fall
// back to the extremes with fewer than two distinct values. Only the bucket
// bounds and the two extremes are boxed.
func summarize[T any](vals []T, nulls, k int, equal func(a, b T) bool, box func(T) datum.D) *catalog.ColumnStats {
	h := histogram.EquiDepthSorted(vals, k, equal, box)
	cs := &catalog.ColumnStats{NullCount: float64(nulls), DistinctCount: h.Distinct, Hist: h}
	if n := len(vals); n > 0 {
		lo := 1
		for lo < n && equal(vals[lo], vals[0]) {
			lo++
		}
		hi := n - 2
		for hi >= 0 && equal(vals[hi], vals[n-1]) {
			hi--
		}
		if lo == n {
			lo, hi = 0, n-1
		}
		cs.SecondMin, cs.SecondMax = box(vals[lo]), box(vals[hi])
	}
	return cs
}

// distinctKeys counts the distinct combinations of the given columns over
// rows [0, n): row positions sorted by the columns' datum.KeyOrders, one run
// per combination.
func distinctKeys(tab *storage.Table, cols []int, n int) (float64, error) {
	orders := make([]func(i, j int) int, len(cols))
	for x, ord := range cols {
		v, err := fillColumn(tab, ord, n)
		if err != nil {
			return 0, err
		}
		orders[x] = datum.NewKeyOrder(v, v, false).Func()
	}
	order := func(i, j int) int {
		for _, c := range orders {
			if r := c(i, j); r != 0 {
				return r
			}
		}
		return 0
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, order)
	runs := 0
	for x := range ids {
		if x == 0 || order(ids[x-1], ids[x]) != 0 {
			runs++
		}
	}
	return float64(runs), nil
}

// AnalyzeAll analyzes every table registered in both the store and catalog.
func AnalyzeAll(store *storage.Store, cat *catalog.Catalog, opts AnalyzeOptions) error {
	for _, def := range cat.Tables() {
		if tab, ok := store.Table(def.Name); ok {
			if err := Analyze(tab, opts); err != nil {
				return err
			}
		}
	}
	return nil
}
