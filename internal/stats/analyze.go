// Package stats implements statistics collection (ANALYZE) and the
// cardinality/selectivity estimation framework of Section 5 of the paper:
// predicate selectivity from histograms or System-R constants, join
// cardinality via histogram joining or distinct-count containment, and
// propagation of statistical summaries through every logical operator.
package stats

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/histogram"
	"repro/internal/storage"
)

// AnalyzeOptions configures statistics collection.
type AnalyzeOptions struct {
	// Buckets is the histogram bucket budget per column (default 32).
	Buckets int
	// Compressed selects compressed (end-biased) histograms instead of
	// plain equi-depth.
	Compressed bool
	// SampleRows, when > 0, builds histograms from a random sample of this
	// many rows instead of a full scan (§5.1.2).
	SampleRows int
	// Seed drives sampling for reproducibility.
	Seed int64
}

func (o AnalyzeOptions) withDefaults() AnalyzeOptions {
	if o.Buckets <= 0 {
		o.Buckets = 32
	}
	return o
}

// Analyze collects statistics for one stored table into its catalog entry:
// row and page counts and, per column, null count, distinct count,
// second-min/second-max and a histogram.
func Analyze(tab *storage.Table, opts AnalyzeOptions) error {
	opts = opts.withDefaults()
	def := tab.Def
	n := tab.RowCount()
	ts := &catalog.TableStats{
		RowCount:  float64(n),
		PageCount: float64(tab.PageCount()),
		ColStats:  make(map[int]*catalog.ColumnStats),
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for ord := range def.Cols {
		vals, err := columnValues(tab, ord, n)
		if err != nil {
			return err
		}
		nulls := 0.0
		for _, d := range vals {
			if d.IsNull() {
				nulls++
			}
		}
		cs := &catalog.ColumnStats{NullCount: nulls}
		cs.SecondMin, cs.SecondMax = secondExtremes(vals)
		if opts.SampleRows > 0 && opts.SampleRows < len(vals) {
			sample := histogram.Sample(vals, opts.SampleRows, rng)
			cs.Hist = histogram.BuildFromSample(sample, len(vals)-int(nulls), opts.Buckets)
			cs.DistinctCount = histogram.DistinctGEE(sample, len(vals))
		} else {
			if opts.Compressed {
				cs.Hist = histogram.BuildCompressed(vals, opts.Buckets, opts.Buckets/4)
			} else {
				cs.Hist = histogram.BuildEquiDepth(vals, opts.Buckets)
			}
			cs.DistinctCount = histogram.ExactDistinct(vals)
		}
		ts.ColStats[ord] = cs
	}
	// Multi-column index statistics: distinct key combinations (§5.1.1).
	for _, ix := range def.Indexes {
		if len(ix.Cols) < 2 {
			if len(ix.Cols) == 1 {
				ix.DistinctKeys = ts.ColStats[ix.Cols[0]].DistinctCount
			}
			continue
		}
		keyCols := make([][]datum.D, len(ix.Cols))
		at := make([]int, len(ix.Cols))
		for j, ord := range ix.Cols {
			var err error
			if keyCols[j], err = columnValues(tab, ord, n); err != nil {
				return err
			}
			at[j] = j
		}
		seen := make(map[uint64]struct{}, n)
		key := make(datum.Row, len(ix.Cols))
		for i := 0; i < n; i++ {
			for j := range key {
				key[j] = keyCols[j][i]
			}
			seen[key.Hash(at)] = struct{}{}
		}
		ix.DistinctKeys = float64(len(seen))
	}
	def.Stats = ts
	return nil
}

// columnValues reads column ord of rows [0, n) — one column fill, not a
// materialization of every row.
func columnValues(tab *storage.Table, ord, n int) ([]datum.D, error) {
	v := datum.NewVec(tab.Def.Cols[ord].Kind, n)
	if err := tab.FillColumnRange(nil, ord, 0, n, v); err != nil {
		return nil, err
	}
	vals := make([]datum.D, n)
	for i := range vals {
		vals[i] = v.D(i)
	}
	return vals, nil
}

// secondExtremes returns the second-lowest and second-highest non-NULL values
// (the paper notes min/max themselves are often outliers). With fewer than
// two distinct values both fall back to the extremes.
func secondExtremes(vals []datum.D) (datum.D, datum.D) {
	var nonNull []datum.D
	for _, v := range vals {
		if !v.IsNull() {
			nonNull = append(nonNull, v)
		}
	}
	if len(nonNull) == 0 {
		return datum.Null, datum.Null
	}
	sort.Slice(nonNull, func(i, j int) bool { return datum.Compare(nonNull[i], nonNull[j]) < 0 })
	lo := nonNull[0]
	for _, v := range nonNull {
		if datum.Compare(v, lo) > 0 {
			lo = v
			break
		}
	}
	hi := nonNull[len(nonNull)-1]
	for i := len(nonNull) - 1; i >= 0; i-- {
		if datum.Compare(nonNull[i], hi) < 0 {
			hi = nonNull[i]
			break
		}
	}
	return lo, hi
}

// AnalyzeJoint collects a two-dimensional histogram for a column pair,
// capturing the joint distribution the per-column histograms cannot (§5.1.1).
// The table must have been analyzed first.
func AnalyzeJoint(tab *storage.Table, colA, colB string, kOuter, kInner int) error {
	def := tab.Def
	a, b := def.Ordinal(colA), def.Ordinal(colB)
	if a < 0 || b < 0 {
		return fmt.Errorf("stats: unknown column in joint analyze (%q, %q)", colA, colB)
	}
	if kOuter <= 0 {
		kOuter = 16
	}
	if kInner <= 0 {
		kInner = 16
	}
	n := tab.RowCount()
	as, err := columnValues(tab, a, n)
	if err != nil {
		return err
	}
	bs, err := columnValues(tab, b, n)
	if err != nil {
		return err
	}
	if def.Stats == nil {
		def.Stats = &catalog.TableStats{ColStats: map[int]*catalog.ColumnStats{}}
	}
	if def.Stats.Joint == nil {
		def.Stats.Joint = map[[2]int]*histogram.Hist2D{}
	}
	def.Stats.Joint[[2]int{a, b}] = histogram.Build2D(as, bs, kOuter, kInner)
	return nil
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
