package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datum"
)

func ints(vs ...int64) []datum.D {
	out := make([]datum.D, len(vs))
	for i, v := range vs {
		out[i] = datum.NewInt(v)
	}
	return out
}

func uniformInts(n int, lo, hi int64, rng *rand.Rand) []datum.D {
	out := make([]datum.D, n)
	for i := range out {
		out[i] = datum.NewInt(lo + rng.Int63n(hi-lo+1))
	}
	return out
}

// zipfInts draws n values over [1, dom] with Zipfian skew s.
func zipfInts(n, dom int, s float64, rng *rand.Rand) []datum.D {
	z := rand.NewZipf(rng, s, 1, uint64(dom-1))
	out := make([]datum.D, n)
	for i := range out {
		out[i] = datum.NewInt(int64(z.Uint64()) + 1)
	}
	return out
}

func exactRange(values []datum.D, lo datum.D, loIncl bool, hi datum.D, hiIncl bool) float64 {
	n := 0.0
	for _, v := range values {
		if v.IsNull() {
			continue
		}
		if !lo.IsNull() {
			c := datum.Compare(v, lo)
			if c < 0 || (c == 0 && !loIncl) {
				continue
			}
		}
		if !hi.IsNull() {
			c := datum.Compare(v, hi)
			if c > 0 || (c == 0 && !hiIncl) {
				continue
			}
		}
		n++
	}
	return n
}

func TestBuildEquiDepthBasic(t *testing.T) {
	vals := ints(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	h := BuildEquiDepth(vals, 5)
	if h.Total != 10 {
		t.Fatalf("Total = %v, want 10", h.Total)
	}
	if len(h.Buckets) != 5 {
		t.Fatalf("buckets = %d, want 5", len(h.Buckets))
	}
	for _, b := range h.Buckets {
		if b.Count != 2 {
			t.Errorf("equi-depth bucket count = %v, want 2", b.Count)
		}
	}
	if h.Distinct != 10 {
		t.Errorf("Distinct = %v, want 10", h.Distinct)
	}
}

func TestBuildEquiDepthIgnoresNulls(t *testing.T) {
	vals := append(ints(1, 2, 3), datum.Null, datum.Null)
	h := BuildEquiDepth(vals, 2)
	if h.Total != 3 {
		t.Fatalf("Total = %v, want 3 (NULLs ignored)", h.Total)
	}
}

func TestBuildEquiDepthEmpty(t *testing.T) {
	h := BuildEquiDepth(nil, 4)
	if h.Total != 0 || len(h.Buckets) != 0 {
		t.Fatal("empty histogram should have no buckets")
	}
	if h.EstimateEq(datum.NewInt(1)) != 0 {
		t.Fatal("empty histogram estimates 0")
	}
}

func TestDuplicatesDontStraddle(t *testing.T) {
	// 50 copies of value 5 plus others; 5 must live in exactly one bucket.
	var vals []datum.D
	for i := 0; i < 50; i++ {
		vals = append(vals, datum.NewInt(5))
	}
	vals = append(vals, ints(1, 2, 3, 4, 6, 7, 8, 9)...)
	h := BuildEquiDepth(vals, 4)
	holding := 0
	for _, b := range h.Buckets {
		if datum.Compare(datum.NewInt(5), b.Lower) >= 0 && datum.Compare(datum.NewInt(5), b.Upper) <= 0 {
			holding++
		}
	}
	if holding != 1 {
		t.Errorf("value 5 covered by %d buckets, want 1", holding)
	}
	// Equi-depth smears the heavy value across its bucket; compressed
	// histograms isolate it exactly — the paper's motivation for them.
	hc := BuildCompressed(vals, 4, 2)
	if got := hc.EstimateEq(datum.NewInt(5)); got != 50 {
		t.Errorf("compressed EstimateEq(5) = %v, want exactly 50", got)
	}
}

func TestCompressedSingletons(t *testing.T) {
	var vals []datum.D
	for i := 0; i < 100; i++ {
		vals = append(vals, datum.NewInt(7))
	}
	for i := 0; i < 80; i++ {
		vals = append(vals, datum.NewInt(13))
	}
	rng := rand.New(rand.NewSource(3))
	vals = append(vals, uniformInts(100, 1000, 1050, rng)...) // disjoint from 7 and 13
	h := BuildCompressed(vals, 10, 4)
	var s7, s13 bool
	for _, b := range h.Buckets {
		if b.Singleton && datum.Equal(b.Lower, datum.NewInt(7)) {
			s7 = true
			if b.Count != 100 {
				t.Errorf("singleton 7 count = %v, want 100", b.Count)
			}
		}
		if b.Singleton && datum.Equal(b.Lower, datum.NewInt(13)) {
			s13 = true
		}
	}
	if !s7 || !s13 {
		t.Fatalf("expected singleton buckets for 7 and 13; got:\n%s", h)
	}
	if got := h.EstimateEq(datum.NewInt(7)); got != 100 {
		t.Errorf("EstimateEq(7) = %v, want exactly 100", got)
	}
}

func TestCompressedBeatsEquiDepthOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := zipfInts(20000, 1000, 1.5, rng)
	ed := BuildEquiDepth(vals, 20)
	cp := BuildCompressed(vals, 20, 10)
	// Compare mean relative error of equality estimates on the hottest values.
	freq := map[int64]float64{}
	for _, v := range vals {
		freq[v.Int()]++
	}
	errOf := func(h *Histogram) float64 {
		var sum float64
		var n int
		for v, f := range freq {
			if f < 50 {
				continue // only hot values
			}
			est := h.EstimateEq(datum.NewInt(v))
			sum += math.Abs(est-f) / f
			n++
		}
		return sum / float64(n)
	}
	if e1, e2 := errOf(cp), errOf(ed); e1 > e2 {
		t.Errorf("compressed error %.3f should beat equi-depth %.3f on skewed data", e1, e2)
	}
}

func TestEstimateRangeAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := uniformInts(10000, 0, 999, rng)
	h := BuildEquiDepth(vals, 50)
	for _, rg := range [][2]int64{{100, 200}, {0, 999}, {500, 501}, {900, 2000}} {
		lo, hi := datum.NewInt(rg[0]), datum.NewInt(rg[1])
		got := h.EstimateRange(lo, true, hi, true)
		want := exactRange(vals, lo, true, hi, true)
		if want > 100 && math.Abs(got-want)/want > 0.15 {
			t.Errorf("range [%d,%d]: est %.0f vs exact %.0f", rg[0], rg[1], got, want)
		}
	}
}

func TestEstimateRangeOpenEnds(t *testing.T) {
	vals := ints(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	h := BuildEquiDepth(vals, 5)
	if got := h.EstimateRange(datum.Null, false, datum.Null, false); got != 10 {
		t.Errorf("unbounded range = %v, want 10", got)
	}
	got := h.EstimateRange(datum.NewInt(5), false, datum.Null, false) // > 5
	if math.Abs(got-5) > 2 {
		t.Errorf("> 5 estimate = %v, want near 5", got)
	}
}

func TestSelectivityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := zipfInts(5000, 100, 1.2, rng)
	h := BuildCompressed(vals, 10, 5)
	for v := int64(0); v < 120; v++ {
		s := h.SelectivityEq(datum.NewInt(v))
		if s < 0 || s > 1 {
			t.Fatalf("SelectivityEq(%d) = %v out of [0,1]", v, s)
		}
	}
	for i := 0; i < 100; i++ {
		a, b := rng.Int63n(120), rng.Int63n(120)
		if a > b {
			a, b = b, a
		}
		s := h.SelectivityRange(datum.NewInt(a), true, datum.NewInt(b), true)
		if s < 0 || s > 1 {
			t.Fatalf("SelectivityRange = %v out of [0,1]", s)
		}
	}
}

// Property: bucket counts sum to total, boundaries are ordered, every input
// value is covered by some bucket.
func TestHistogramInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		n := 1 + rng.Intn(500)
		k := 1 + rng.Intn(20)
		var vals []datum.D
		if iter%2 == 0 {
			vals = uniformInts(n, -50, 50, rng)
		} else {
			vals = zipfInts(n, 40, 1.3, rng)
		}
		var h *Histogram
		if iter%3 == 0 {
			h = BuildCompressed(vals, k, k/2)
		} else {
			h = BuildEquiDepth(vals, k)
		}
		var sum float64
		for i, b := range h.Buckets {
			sum += b.Count
			if datum.Compare(b.Lower, b.Upper) > 0 {
				t.Fatalf("iter %d bucket %d: lower > upper", iter, i)
			}
			if b.Count <= 0 || b.Distinct <= 0 {
				t.Fatalf("iter %d bucket %d: nonpositive count/distinct", iter, i)
			}
		}
		if math.Abs(sum-float64(n)) > 1e-6 {
			t.Fatalf("iter %d: counts sum %.1f != n %d", iter, sum, n)
		}
		for _, v := range vals {
			covered := false
			for _, b := range h.Buckets {
				if datum.Compare(v, b.Lower) >= 0 && datum.Compare(v, b.Upper) <= 0 {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("iter %d: value %s not covered\n%s", iter, v, h)
			}
		}
	}
}

func TestFilterRangePropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := uniformInts(10000, 0, 999, rng)
	h := BuildEquiDepth(vals, 40)
	f := h.FilterRange(datum.NewInt(100), true, datum.NewInt(299), true)
	want := exactRange(vals, datum.NewInt(100), true, datum.NewInt(299), true)
	if math.Abs(f.Total-want)/want > 0.15 {
		t.Errorf("filtered total %.0f vs exact %.0f", f.Total, want)
	}
	if lo := f.Buckets[0].Lower; datum.Compare(lo, datum.NewInt(100)) < 0 {
		t.Errorf("filtered min %s below bound", lo)
	}
	if hi := f.Buckets[len(f.Buckets)-1].Upper; datum.Compare(hi, datum.NewInt(299)) > 0 {
		t.Errorf("filtered max %s above bound", hi)
	}
	// Estimates on the filtered histogram should be sane.
	got := f.EstimateRange(datum.NewInt(150), true, datum.NewInt(199), true)
	exact := exactRange(vals, datum.NewInt(150), true, datum.NewInt(199), true)
	if exact > 100 && math.Abs(got-exact)/exact > 0.3 {
		t.Errorf("post-filter range est %.0f vs exact %.0f", got, exact)
	}
}

func TestJoinCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Foreign-key-like join: R.fk uniform over [0,99], S.pk = 0..99 once.
	r := uniformInts(5000, 0, 99, rng)
	s := make([]datum.D, 100)
	for i := range s {
		s[i] = datum.NewInt(int64(i))
	}
	hr := BuildEquiDepth(r, 20)
	hs := BuildEquiDepth(s, 20)
	got := JoinCardinality(hr, hs)
	// Exact join size is 5000 (every R row matches exactly one S row).
	if math.Abs(got-5000)/5000 > 0.25 {
		t.Errorf("join cardinality %.0f, want near 5000", got)
	}
	if JoinCardinality(nil, hs) != 0 || JoinCardinality(hr, &Histogram{}) != 0 {
		t.Error("nil/empty join should be 0")
	}
}

func TestJoinCardinalityDisjoint(t *testing.T) {
	a := BuildEquiDepth(ints(1, 2, 3, 4, 5), 2)
	b := BuildEquiDepth(ints(100, 200, 300), 2)
	if got := JoinCardinality(a, b); got != 0 {
		t.Errorf("disjoint join cardinality = %v, want 0", got)
	}
}

func TestStringColumnHistogram(t *testing.T) {
	vals := []datum.D{
		datum.NewString("alpha"), datum.NewString("beta"), datum.NewString("beta"),
		datum.NewString("gamma"), datum.NewString("delta"), datum.NewString("zeta"),
	}
	h := BuildEquiDepth(vals, 3)
	if h.Total != 6 {
		t.Fatalf("Total = %v", h.Total)
	}
	if got := h.EstimateEq(datum.NewString("beta")); got <= 0 {
		t.Errorf("string eq estimate = %v, want > 0", got)
	}
	// Range over strings uses the half-bucket fallback; must stay bounded.
	got := h.EstimateRange(datum.NewString("b"), true, datum.NewString("g"), true)
	if got < 0 || got > 6 {
		t.Errorf("string range estimate %v out of bounds", got)
	}
}

func TestString(t *testing.T) {
	h := BuildEquiDepth(ints(1, 2, 3), 2)
	s := h.String()
	if s == "" {
		t.Error("String() empty")
	}
}

// Property (testing/quick): widening a range never decreases the estimate,
// and estimates never exceed the total.
func TestRangeMonotonicityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	vals := zipfInts(20000, 500, 1.2, rng)
	hists := []*Histogram{
		BuildEquiDepth(vals, 16),
		BuildCompressed(vals, 16, 8),
	}
	f := func(lo8, hi8, widen8 uint8) bool {
		lo, hi := int64(lo8), int64(lo8)+int64(hi8)
		widen := int64(widen8)
		for _, h := range hists {
			inner := h.EstimateRange(datum.NewInt(lo), true, datum.NewInt(hi), true)
			outer := h.EstimateRange(datum.NewInt(lo-widen), true, datum.NewInt(hi+widen), true)
			if inner > outer+1e-9 {
				return false
			}
			if outer > h.Total+1e-9 || inner < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: filtered histograms never report more rows than the original for
// any sub-range.
func TestFilterShrinksQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	vals := uniformInts(20000, 0, 999, rng)
	h := BuildEquiDepth(vals, 24)
	f := func(cut16 uint16, lo8, span8 uint8) bool {
		cut := int64(cut16 % 1000)
		fh := h.FilterRange(datum.Null, false, datum.NewInt(cut), true)
		lo := int64(lo8) * 4
		hi := lo + int64(span8)
		a := fh.EstimateRange(datum.NewInt(lo), true, datum.NewInt(hi), true)
		b := h.EstimateRange(datum.NewInt(lo), true, datum.NewInt(hi), true)
		return a <= b*1.05+1 // small tolerance for re-bucketing noise
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNaNColumnHistograms: over a FLOAT column that is 20 % NaN, both
// histogram kinds list their buckets in ascending datum.Compare order (NaN is
// the least number), report the true maximum, and estimate a range over the
// numbers as a finite fraction.
func TestNaNColumnHistograms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]datum.D, 5000)
	for i := range vals {
		if i%5 == 0 {
			vals[i] = datum.NewFloat(math.NaN())
		} else {
			vals[i] = datum.NewFloat(float64(rng.Intn(1000)))
		}
	}
	vals[17] = datum.NewFloat(999)
	for _, h := range []*Histogram{BuildEquiDepth(vals, 20), BuildCompressed(vals, 20, 4)} {
		for i, b := range h.Buckets {
			if datum.Compare(b.Lower, b.Upper) > 0 {
				t.Errorf("%s: bucket %d runs from %v down to %v", h.Kind, i, b.Lower, b.Upper)
			}
			if i > 0 && datum.Compare(h.Buckets[i-1].Upper, b.Upper) > 0 {
				t.Errorf("%s: bucket %d ends at %v, before bucket %d's %v", h.Kind, i, b.Upper, i-1, h.Buckets[i-1].Upper)
			}
		}
		if got := h.Buckets[len(h.Buckets)-1].Upper; !datum.Equal(got, datum.NewFloat(999)) {
			t.Errorf("%s: last upper bound = %v, want 999", h.Kind, got)
		}
		if got := h.Buckets[0].Lower; got.Kind() != datum.KindFloat || !math.IsNaN(got.Float()) {
			t.Errorf("%s: first lower bound = %v, want NaN", h.Kind, got)
		}
		sel := h.SelectivityRange(datum.NewFloat(0), true, datum.NewFloat(100), true)
		if math.IsNaN(sel) || sel <= 0 || sel >= 0.5 {
			t.Errorf("%s: SelectivityRange([0, 100]) = %v, want about 0.08", h.Kind, sel)
		}
	}
}
