package histogram

import (
	"math"
	"slices"

	"repro/internal/datum"
)

// Hist2D is a two-dimensional histogram (§5.1.1: "one option is to consider
// 2-dimensional histograms [45,51]"): the first column is equi-depth
// bucketized, and each slice holds an equi-depth histogram of the second
// column restricted to that slice. It captures the joint distribution that
// per-column histograms plus the independence assumption cannot.
type Hist2D struct {
	Slices []Slice2D
	Total  float64
}

// Slice2D is one first-column range with the conditional distribution of the
// second column inside it.
type Slice2D struct {
	Lower, Upper datum.D
	Count        float64
	Inner        *Histogram
}

// Build2D constructs a 2-D histogram over (a, b) pairs with kOuter slices of
// a and kInner buckets of b per slice. Pairs where either value is NULL are
// ignored.
func Build2D(as, bs []datum.D, kOuter, kInner int) *Hist2D {
	if len(as) != len(bs) {
		panic("histogram: Build2D requires parallel slices")
	}
	type pair struct{ a, b datum.D }
	var pairs []pair
	for i := range as {
		if as[i].IsNull() || bs[i].IsNull() {
			continue
		}
		pairs = append(pairs, pair{as[i], bs[i]})
	}
	// The slices are the equi-depth buckets of the first column, so equal
	// first-column values never split across slices.
	slices.SortFunc(pairs, func(x, y pair) int { return datum.Compare(x.a, y.a) })
	outer := EquiDepthSorted(pairs, kOuter,
		func(x, y pair) bool { return datum.Equal(x.a, y.a) }, func(p pair) datum.D { return p.a })
	h := &Hist2D{Total: outer.Total}
	i := 0
	for _, b := range outer.Buckets {
		j := i + int(b.Count)
		bVals := make([]datum.D, 0, j-i)
		for _, p := range pairs[i:j] {
			bVals = append(bVals, p.b)
		}
		h.Slices = append(h.Slices, Slice2D{Lower: b.Lower, Upper: b.Upper, Count: b.Count, Inner: BuildEquiDepth(bVals, kInner)})
		i = j
	}
	return h
}

// SelectivityRanges estimates the fraction of rows with a in [aLo, aHi] and
// b in [bLo, bHi] (NULL bounds unbounded, inclusivity per flag) using the
// joint distribution.
func (h *Hist2D) SelectivityRanges(aLo datum.D, aLoIncl bool, aHi datum.D, aHiIncl bool,
	bLo datum.D, bLoIncl bool, bHi datum.D, bHiIncl bool) float64 {
	if h.Total == 0 {
		return 0
	}
	est := 0.0
	for _, s := range h.Slices {
		frac := sliceOverlap(s, aLo, aLoIncl, aHi, aHiIncl)
		if frac <= 0 {
			continue
		}
		est += frac * s.Inner.EstimateRange(bLo, bLoIncl, bHi, bHiIncl)
	}
	return clamp01(est / h.Total)
}

// sliceOverlap returns the fraction of the slice's rows with a in range
// (uniform-spread within the slice when partially covered).
func sliceOverlap(s Slice2D, lo datum.D, loIncl bool, hi datum.D, hiIncl bool) float64 {
	b := Bucket{Lower: s.Lower, Upper: s.Upper, Count: s.Count, Distinct: math.Max(1, s.Count)}
	var h Histogram
	covered := h.bucketOverlap(b, lo, loIncl, hi, hiIncl)
	if s.Count <= 0 {
		return 0
	}
	return covered / s.Count
}
