// Package histogram implements the statistical summaries of Section 5.1 of
// the paper: equi-depth and compressed (end-biased) histograms, construction
// from full data or from random samples, incremental maintenance in the style
// of Gibbons/Matias/Poosala, and sampling-based distinct-value estimation.
//
// A histogram describes the distribution of non-NULL values in one column.
// NULL counts are tracked by the catalog, outside the histogram.
package histogram

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/datum"
)

// Kind distinguishes histogram construction strategies.
type Kind uint8

// Histogram kinds, per §5.1.1.
const (
	// EquiDepth divides the sorted values into buckets of (nearly) equal
	// row count.
	EquiDepth Kind = iota
	// Compressed places frequently occurring values in singleton buckets
	// and equi-depth-buckets the rest; effective for high- or low-skew
	// data (Poosala et al., the paper's [52]).
	Compressed
)

func (k Kind) String() string {
	switch k {
	case EquiDepth:
		return "equi-depth"
	case Compressed:
		return "compressed"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Bucket summarizes one value range (Lower, Upper], except the first bucket
// which is inclusive at both ends. Singleton buckets have Lower == Upper and
// DistinctCount == 1.
type Bucket struct {
	Lower     datum.D
	Upper     datum.D
	Count     float64 // number of rows whose value falls in the bucket
	Distinct  float64 // estimated number of distinct values in the bucket
	Singleton bool    // exactly one value, counted precisely
}

// Histogram is a bucketized summary of a column's non-NULL values.
type Histogram struct {
	Kind     Kind
	Buckets  []Bucket
	Total    float64 // total row count summarized (sum of bucket counts)
	Distinct float64 // estimated total distinct values
}

// BuildEquiDepth constructs a k-bucket equi-depth histogram over values.
// NULLs in the input are ignored. The input slice is not modified.
func BuildEquiDepth(values []datum.D, k int) *Histogram {
	return EquiDepthSorted(sortedNonNull(values), k, datum.Equal, boxed)
}

// BuildCompressed constructs a compressed histogram: values whose frequency
// exceeds total/k are placed in singleton buckets (up to maxSingletons) and
// the remaining values are equi-depth-bucketized into the remaining budget.
func BuildCompressed(values []datum.D, k, maxSingletons int) *Histogram {
	vals := sortedNonNull(values)
	if len(vals) == 0 {
		return &Histogram{Kind: Compressed}
	}
	if k < 1 {
		k = 1
	}
	threshold := float64(len(vals)) / float64(k)
	type vf struct {
		v datum.D
		f int
	}
	var freqs []vf
	for i := 0; i < len(vals); {
		j := i
		for j < len(vals) && datum.Equal(vals[j], vals[i]) {
			j++
		}
		freqs = append(freqs, vf{vals[i], j - i})
		i = j
	}
	// Pick singletons: frequent values, highest frequency first.
	cand := make([]int, 0, len(freqs))
	for i, f := range freqs {
		if float64(f.f) > threshold {
			cand = append(cand, i)
		}
	}
	sort.Slice(cand, func(a, b int) bool { return freqs[cand[a]].f > freqs[cand[b]].f })
	if maxSingletons >= 0 && len(cand) > maxSingletons {
		cand = cand[:maxSingletons]
	}
	isSingleton := make(map[int]bool, len(cand))
	for _, i := range cand {
		isSingleton[i] = true
	}

	var rest []datum.D
	var singles []Bucket
	for i, f := range freqs {
		if isSingleton[i] {
			singles = append(singles, Bucket{
				Lower: f.v, Upper: f.v, Count: float64(f.f), Distinct: 1, Singleton: true,
			})
		} else {
			for n := 0; n < f.f; n++ {
				rest = append(rest, f.v)
			}
		}
	}
	budget := k - len(singles)
	if budget < 1 {
		budget = 1
	}
	base := EquiDepthSorted(rest, budget, datum.Equal, boxed)
	base.Kind = Compressed
	base.Buckets = mergeSorted(base.Buckets, singles)
	base.Total = 0
	base.Distinct = 0
	for _, b := range base.Buckets {
		base.Total += b.Count
		base.Distinct += b.Distinct
	}
	return base
}

// mergeSorted merges regular buckets and singleton buckets into one ordered
// bucket list (singletons are already disjoint from the regular buckets'
// values because their rows were removed before equi-depth construction, but
// ranges may interleave).
func mergeSorted(a, b []Bucket) []Bucket {
	out := append(append([]Bucket{}, a...), b...)
	sort.Slice(out, func(i, j int) bool {
		c := datum.Compare(out[i].Upper, out[j].Upper)
		if c != 0 {
			return c < 0
		}
		return datum.Compare(out[i].Lower, out[j].Lower) < 0
	})
	return out
}

// sortedNonNull returns the non-NULL values in datum.Compare order.
func sortedNonNull(values []datum.D) []datum.D {
	vals := make([]datum.D, 0, len(values))
	for _, v := range values {
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	slices.SortFunc(vals, datum.Compare)
	return vals
}

func boxed(d datum.D) datum.D { return d }

// EquiDepthSorted cuts a k-bucket equi-depth histogram from vals, a column's
// non-NULL values sorted in datum.Compare order in whatever payload the
// caller holds them: boxed datums, or a typed slice (INT, BOOL or dictionary
// codes, FLOAT, strings) whose equal agrees with datum.Equal on the values
// box turns them into. It is the one bucket-cutting loop: every histogram
// built from full data or a sample goes through it. One pass counts each
// bucket's distinct values — a bucket is extended over every duplicate of its
// upper bound, so no value straddles two buckets and Distinct is the exact
// number of distinct values — and only the bucket bounds are boxed.
func EquiDepthSorted[T any](vals []T, k int, equal func(a, b T) bool, box func(T) datum.D) *Histogram {
	h := &Histogram{Kind: EquiDepth}
	n := len(vals)
	if n == 0 {
		return h
	}
	k = max(1, min(k, n))
	per, rem := n/k, n%k
	for b, i := 0, 0; b < k && i < n; b++ {
		j := i + per
		if b < rem {
			j++
		}
		j = min(j, n)
		for j < n && equal(vals[j], vals[j-1]) {
			j++
		}
		distinct := 1
		for x := i + 1; x < j; x++ {
			if !equal(vals[x], vals[x-1]) {
				distinct++
			}
		}
		h.Buckets = append(h.Buckets, Bucket{
			Lower:    box(vals[i]),
			Upper:    box(vals[j-1]),
			Count:    float64(j - i),
			Distinct: float64(distinct),
		})
		i = j
	}
	for _, b := range h.Buckets {
		h.Total += b.Count
		h.Distinct += b.Distinct
	}
	return h
}

// EstimateEq estimates the number of rows with value v.
func (h *Histogram) EstimateEq(v datum.D) float64 {
	if v.IsNull() || len(h.Buckets) == 0 {
		return 0
	}
	for _, b := range h.Buckets {
		if datum.Compare(v, b.Lower) >= 0 && datum.Compare(v, b.Upper) <= 0 {
			if b.Singleton {
				if datum.Equal(v, b.Lower) {
					return b.Count
				}
				continue
			}
			if b.Distinct <= 0 {
				return 0
			}
			return b.Count / b.Distinct
		}
	}
	return 0
}

// EstimateRange estimates the number of rows with lo <(=) value <(=) hi.
// A NULL bound means unbounded on that side.
func (h *Histogram) EstimateRange(lo datum.D, loIncl bool, hi datum.D, hiIncl bool) float64 {
	total := 0.0
	for _, b := range h.Buckets {
		total += h.bucketOverlap(b, lo, loIncl, hi, hiIncl)
	}
	return total
}

// bucketOverlap estimates how many of bucket b's rows satisfy the range.
func (h *Histogram) bucketOverlap(b Bucket, lo datum.D, loIncl bool, hi datum.D, hiIncl bool) float64 {
	// Entirely below or above?
	if !lo.IsNull() {
		c := datum.Compare(b.Upper, lo)
		if c < 0 || (c == 0 && !loIncl) {
			return 0
		}
	}
	if !hi.IsNull() {
		c := datum.Compare(b.Lower, hi)
		if c > 0 || (c == 0 && !hiIncl) {
			return 0
		}
	}
	// Entirely inside?
	inLo := lo.IsNull() || datum.Compare(b.Lower, lo) > 0 || (datum.Compare(b.Lower, lo) == 0 && loIncl)
	inHi := hi.IsNull() || datum.Compare(b.Upper, hi) < 0 || (datum.Compare(b.Upper, hi) == 0 && hiIncl)
	if inLo && inHi {
		return b.Count
	}
	// Partial overlap: uniform-spread assumption within the bucket
	// (numeric interpolation when possible, else half the bucket).
	frac := overlapFraction(b, lo, loIncl, hi, hiIncl)
	est := b.Count * frac
	if est < 0 {
		est = 0
	}
	if est > b.Count {
		est = b.Count
	}
	return est
}

func overlapFraction(b Bucket, lo datum.D, loIncl bool, hi datum.D, hiIncl bool) float64 {
	if b.Lower.Kind().Numeric() && b.Upper.Kind().Numeric() {
		lowEnd, highEnd := b.Lower.Float(), b.Upper.Float()
		width := highEnd - lowEnd
		switch {
		case math.IsNaN(width):
			return 0.5 // a NaN end, or both ends infinite: no spread to interpolate
		case width <= 0:
			return 1
		}
		l, r := lowEnd, highEnd
		if !lo.IsNull() && lo.Kind().Numeric() && lo.Float() > l {
			l = lo.Float()
		}
		if !hi.IsNull() && hi.Kind().Numeric() && hi.Float() < r {
			r = hi.Float()
		}
		if r < l {
			return 0
		}
		f := (r - l) / width
		// Nudge for exclusive endpoints on (near-)discrete domains.
		if b.Distinct > 0 {
			unit := 1 / b.Distinct
			if !loIncl && !lo.IsNull() && lo.Float() >= l {
				f -= unit * 0.5
			}
			if !hiIncl && !hi.IsNull() && hi.Float() <= r {
				f -= unit * 0.5
			}
		}
		if f < 0 {
			f = 0
		}
		return f
	}
	return 0.5
}

// SelectivityEq returns the fraction of summarized rows equal to v.
func (h *Histogram) SelectivityEq(v datum.D) float64 {
	if h.Total == 0 {
		return 0
	}
	return clamp01(h.EstimateEq(v) / h.Total)
}

// SelectivityRange returns the fraction of summarized rows in the range.
func (h *Histogram) SelectivityRange(lo datum.D, loIncl bool, hi datum.D, hiIncl bool) float64 {
	if h.Total == 0 {
		return 0
	}
	return clamp01(h.EstimateRange(lo, loIncl, hi, hiIncl) / h.Total)
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// FilterRange returns a new histogram describing the rows that satisfy the
// range predicate — statistical propagation through a selection (§5.1.3).
func (h *Histogram) FilterRange(lo datum.D, loIncl bool, hi datum.D, hiIncl bool) *Histogram {
	out := &Histogram{Kind: h.Kind}
	for _, b := range h.Buckets {
		cnt := h.bucketOverlap(b, lo, loIncl, hi, hiIncl)
		if cnt <= 0 {
			continue
		}
		nb := b
		nb.Count = cnt
		if !lo.IsNull() && datum.Compare(nb.Lower, lo) < 0 {
			nb.Lower = lo
		}
		if !hi.IsNull() && datum.Compare(nb.Upper, hi) > 0 {
			nb.Upper = hi
		}
		if frac := cnt / b.Count; frac < 1 && !b.Singleton {
			nb.Distinct = math.Max(1, b.Distinct*frac)
		}
		out.Buckets = append(out.Buckets, nb)
	}
	for _, b := range out.Buckets {
		out.Total += b.Count
		out.Distinct += b.Distinct
	}
	return out
}

// JoinCardinality estimates |R ⋈ S| on an equality predicate between the two
// histogrammed columns by aligning buckets (the "joining histograms" of
// §5.1.3). Within an aligned fragment it applies the containment assumption:
// each value of the smaller distinct set matches in the larger.
//
// Two buckets contribute only if their value ranges overlap, so each bucket
// of a is joined with a window of b: from the first bucket whose Upper
// reaches its Lower (binary-searched — bucket lists ascend by Upper) up to
// where floor, the least Lower of all later buckets, passes its Upper
// (Lowers alone need not ascend: a compressed histogram's singleton sits
// before the bucket whose range surrounds it). The pairs left out would add
// exactly zero and the rest are summed in bucket order, so the result is the
// all-pairs sum bit for bit. A b not ascending by Upper is scanned from its
// first bucket instead.
func JoinCardinality(a, b *Histogram) float64 {
	if a == nil || b == nil || len(a.Buckets) == 0 || len(b.Buckets) == 0 {
		return 0
	}
	bb := b.Buckets
	floor := make([]datum.D, len(bb))
	ascending := true
	for j := len(bb) - 1; j >= 0; j-- {
		floor[j] = bb[j].Lower
		if j+1 < len(bb) {
			if datum.Compare(floor[j+1], floor[j]) < 0 {
				floor[j] = floor[j+1]
			}
			ascending = ascending && datum.Compare(bb[j].Upper, bb[j+1].Upper) <= 0
		}
	}
	total := 0.0
	for _, ba := range a.Buckets {
		j := 0
		if ascending {
			j = sort.Search(len(bb), func(j int) bool { return datum.Compare(bb[j].Upper, ba.Lower) >= 0 })
		}
		for ; j < len(bb) && datum.Compare(floor[j], ba.Upper) <= 0; j++ {
			total += bucketJoin(ba, bb[j])
		}
	}
	return total
}

func bucketJoin(a, b Bucket) float64 {
	lo, hi := a.Lower, a.Upper
	if datum.Compare(b.Lower, lo) > 0 {
		lo = b.Lower
	}
	if datum.Compare(b.Upper, hi) < 0 {
		hi = b.Upper
	}
	if datum.Compare(lo, hi) > 0 {
		return 0
	}
	fa := overlapFraction(a, lo, true, hi, true)
	fb := overlapFraction(b, lo, true, hi, true)
	ca, cb := a.Count*fa, b.Count*fb
	da, db := math.Max(1, a.Distinct*fa), math.Max(1, b.Distinct*fb)
	dmax := math.Max(da, db)
	return ca * cb / dmax
}

// String renders the histogram for diagnostics.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s histogram: total=%.0f distinct=%.0f\n", h.Kind, h.Total, h.Distinct)
	for i, b := range h.Buckets {
		tag := ""
		if b.Singleton {
			tag = " [singleton]"
		}
		fmt.Fprintf(&sb, "  b%d: [%s, %s] count=%.1f distinct=%.1f%s\n",
			i, b.Lower, b.Upper, b.Count, b.Distinct, tag)
	}
	return sb.String()
}
