package histogram

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datum"
)

// allPairsJoinCardinality is the reference for JoinCardinality: every bucket
// of a against every bucket of b, summed in bucket order.
func allPairsJoinCardinality(a, b *Histogram) float64 {
	if a == nil || b == nil {
		return 0
	}
	total := 0.0
	for _, ba := range a.Buckets {
		for _, bb := range b.Buckets {
			total += bucketJoin(ba, bb)
		}
	}
	return total
}

// ascendingByUpper is the ordering JoinCardinality's window start relies on.
func ascendingByUpper(h *Histogram) bool {
	for i := 1; i < len(h.Buckets); i++ {
		if datum.Compare(h.Buckets[i-1].Upper, h.Buckets[i].Upper) > 0 {
			return false
		}
	}
	return true
}

// randomHistogram draws one histogram of the kinds the engine produces:
// equi-depth and compressed builds over uniform or skewed data (compressed
// ones with singleton buckets, often inside another bucket's range), range-
// filtered copies, and incrementally maintained ones — plus empty and nil.
func randomHistogram(rng *rand.Rand) *Histogram {
	var vals []datum.D
	n, dom := 20+rng.Intn(400), 5+rng.Intn(300)
	switch rng.Intn(3) {
	case 0:
		vals = uniformInts(n, int64(rng.Intn(50)), int64(50+dom), rng)
	case 1:
		vals = zipfInts(n, dom, 1.2+rng.Float64(), rng)
	default:
		vals = make([]datum.D, n)
		for i := range vals {
			vals[i] = datum.NewFloat(rng.Float64() * float64(dom))
		}
	}
	k := 1 + rng.Intn(24)
	var h *Histogram
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return BuildEquiDepth(nil, k)
	case 2, 3:
		h = BuildEquiDepth(vals, k)
	default:
		h = BuildCompressed(vals, k, rng.Intn(k+1))
	}
	switch rng.Intn(4) {
	case 0:
		lo, hi := datum.NewInt(int64(rng.Intn(dom))), datum.NewInt(int64(dom/2+rng.Intn(dom)))
		h = h.FilterRange(lo, rng.Intn(2) == 0, hi, rng.Intn(2) == 0)
	case 1:
		inc := NewIncremental(h, 1+rng.Intn(24))
		for i := 0; i < 200; i++ {
			inc.Insert(datum.NewInt(int64(rng.Intn(2*dom)) - int64(dom/2)))
		}
	}
	return h
}

// TestJoinCardinalityWindowMatchesAllPairs: the windowed join returns the
// all-pairs sum bit for bit, and every histogram a builder, filter or
// incremental maintenance hands out ascends by Upper.
func TestJoinCardinalityWindowMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nonZero, nested := 0, 0
	for iter := 0; iter < 3000; iter++ {
		a, b := randomHistogram(rng), randomHistogram(rng)
		for _, h := range []*Histogram{a, b} {
			if h == nil {
				continue
			}
			if !ascendingByUpper(h) {
				t.Fatalf("iteration %d: histogram does not ascend by Upper:\n%s", iter, h)
			}
			for i := 1; i < len(h.Buckets); i++ {
				if datum.Compare(h.Buckets[i].Lower, h.Buckets[i-1].Lower) < 0 {
					nested++
				}
			}
		}
		got, want := JoinCardinality(a, b), allPairsJoinCardinality(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iteration %d: JoinCardinality = %v (%x), all pairs = %v (%x)\na: %s\nb: %s",
				iter, got, math.Float64bits(got), want, math.Float64bits(want), a, b)
		}
		if want > 0 {
			nonZero++
		}
	}
	if nonZero < 1000 || nested == 0 {
		t.Errorf("generator too weak: %d non-zero joins, %d buckets starting below their predecessor", nonZero, nested)
	}
}

// TestJoinCardinalityUnsortedBuckets: a bucket list in no order at all (no
// builder produces one) still gets the all-pairs answer, not a wrong one.
func TestJoinCardinalityUnsortedBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 300; iter++ {
		a := BuildCompressed(zipfInts(300, 80, 1.5, rng), 12, 4)
		b := BuildEquiDepth(uniformInts(300, 1, 80, rng), 1+rng.Intn(20))
		rng.Shuffle(len(a.Buckets), func(i, j int) { a.Buckets[i], a.Buckets[j] = a.Buckets[j], a.Buckets[i] })
		rng.Shuffle(len(b.Buckets), func(i, j int) { b.Buckets[i], b.Buckets[j] = b.Buckets[j], b.Buckets[i] })
		got, want := JoinCardinality(a, b), allPairsJoinCardinality(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iteration %d: JoinCardinality = %v, all pairs = %v\na: %s\nb: %s", iter, got, want, a, b)
		}
	}
}
