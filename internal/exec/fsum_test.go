package exec

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/datum"
)

// refSum is the exact sum of vals rounded once, computed with math/big: 2200
// bits hold any sum of fewer than 2^100 doubles exactly. Infinities and NaNs
// follow IEEE addition; an exact zero is -0 only when every value was -0.
func refSum(vals []float64) float64 {
	acc := new(big.Float).SetPrec(2200)
	var pos, neg, nan bool
	negZero := true
	for _, v := range vals {
		switch {
		case math.IsNaN(v):
			nan = true
		case math.IsInf(v, 1):
			pos = true
		case math.IsInf(v, -1):
			neg = true
		default:
			acc.Add(acc, new(big.Float).SetFloat64(v))
		}
		negZero = negZero && v == 0 && math.Signbit(v)
	}
	switch {
	case nan || pos && neg:
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	case acc.Sign() == 0 && negZero:
		return math.Copysign(0, -1)
	}
	f, _ := acc.Float64()
	return f
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// splitSum adds vals into k groups of one exactSums, each value to a random
// group, then merges the groups in a random order into a fresh exactSums
// whose target group sits among others, and reads the sum back.
func splitSum(rng *rand.Rand, vals []float64, k int) float64 {
	var parts exactSums
	parts.ensure(k, k)
	for _, v := range vals {
		parts.add(int32(rng.Intn(k)), v)
	}
	var merged exactSums
	merged.ensure(3, 3)
	merged.add(0, 1e300) // neighbours in the window and in the slot
	merged.add(2, math.Inf(1))
	for _, g := range rng.Perm(k) {
		merged.merge(1, &parts, int32(g))
	}
	return merged.value(1)
}

func serialSum(vals []float64) float64 {
	var s exactSums
	s.ensure(1, 1)
	for _, v := range vals {
		s.add(0, v)
	}
	return s.value(0)
}

// randFloat draws one value of the given kind.
func randFloat(rng *rand.Rand, kind int) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch kind {
	case 0: // money-like
		return sign * float64(rng.Intn(100_000_000)) / 100
	case 1: // any finite exponent
		return sign * math.Ldexp(1+rng.Float64(), rng.Intn(2046)-1022)
	case 2: // subnormal
		return sign * math.Float64frombits(uint64(rng.Int63())&(1<<52-1))
	case 3: // signed zero
		return sign * 0
	case 4: // near MaxFloat64
		return sign * math.Float64frombits(0x7fe0000000000000|uint64(rng.Int63())&(1<<52-1))
	case 5: // one window wide
		return sign * math.Ldexp(1+rng.Float64(), rng.Intn(140)-70)
	}
	return [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
}

// TestExactSumMatchesBig: over random multisets of money-like, wide-exponent,
// subnormal, signed-zero, near-MaxFloat64, cancelling and special values, a
// serial pass and every split into partials merged in random order equal the
// math/big reference bit for bit.
func TestExactSumMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		nk := 6 // most multisets stay finite
		if rng.Intn(4) == 0 {
			nk = 7
		}
		kinds := rng.Perm(nk)[:1+rng.Intn(3)]
		n := rng.Intn(60)
		vals := make([]float64, 0, 2*n)
		for i := 0; i < n; i++ {
			vals = append(vals, randFloat(rng, kinds[rng.Intn(len(kinds))]))
			if rng.Intn(3) == 0 { // cancel it
				vals = append(vals, -vals[len(vals)-1])
			}
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		want := refSum(vals)
		if got := serialSum(vals); !sameFloat(got, want) {
			t.Fatalf("trial %d kinds %v: serial %v (%x), want %v (%x); values %v", trial, kinds, got, math.Float64bits(got), want, math.Float64bits(want), vals)
		}
		for _, k := range []int{2, 1 + rng.Intn(7)} {
			if got := splitSum(rng, vals, k); !sameFloat(got, want) {
				t.Fatalf("trial %d kinds %v, %d partials: %v (%x), want %v (%x); values %v", trial, kinds, k, got, math.Float64bits(got), want, math.Float64bits(want), vals)
			}
		}
	}
}

// TestExactSumWindowEdges: a value below the scale rescales the window, a
// value it cannot hold moves the group to the slot, and a merge between a
// window group and a slot group goes either way — all exact.
func TestExactSumWindowEdges(t *testing.T) {
	state := func(s *exactSums) int32 { return min(s.g[0].state, stateSlot) }
	var s exactSums
	s.ensure(1, 1)
	s.add(0, 1)
	s0 := s.g[0].s
	s.add(0, math.Ldexp(1, -80)) // below the scale: rescale
	if state(&s) != stateWindow || s.g[0].s >= s0 {
		t.Fatalf("after a small value: state %d scale %d (was %d)", s.g[0].state, s.g[0].s, s0)
	}
	s.add(0, math.Ldexp(1, 100)) // 180 bits above the smallest: the slot
	if state(&s) != stateSlot {
		t.Fatalf("after a wide value: state %d, want the slot", s.g[0].state)
	}
	if got, want := s.value(0), refSum([]float64{1, math.Ldexp(1, -80), math.Ldexp(1, 100)}); got != want {
		t.Fatalf("slot sum %v, want %v", got, want)
	}
	// Headroom runs out: A = 2^124 + 2^63 at s = -123 is 2 + 2^-60, and
	// adding 2 takes |A| past 2^125.
	var h exactSums
	h.ensure(1, 1)
	h.add(0, math.Ldexp(1, -60))
	h.g[0].hi = 1 << 60
	h.add(0, 2)
	if state(&h) != stateSlot || h.value(0) != 4 {
		t.Fatalf("overflowing add: state %d sum %v, want the slot and 4", h.g[0].state, h.value(0))
	}
	for _, tc := range []struct {
		name string
		a, b []float64
	}{
		{"window into slot", []float64{1, 0.5}, []float64{math.Ldexp(1, -200), math.Ldexp(1, 200)}},
		{"slot into window", []float64{math.Ldexp(1, -200), math.Ldexp(1, 200)}, []float64{1, 0.5}},
		{"windows too far apart", []float64{math.Ldexp(3, -100)}, []float64{math.Ldexp(5, 100)}},
		{"windows to rescale", []float64{math.Ldexp(3, 20)}, []float64{math.Ldexp(5, -20)}},
		{"special into window", []float64{2}, []float64{math.Inf(-1), 1}},
		{"negative zeros", []float64{math.Copysign(0, -1)}, []float64{math.Copysign(0, -1)}},
		{"negative zero and zero", []float64{math.Copysign(0, -1)}, []float64{0}},
		{"cancelled window", []float64{1e300, -1e300}, []float64{math.Copysign(0, -1)}},
		{"tie broken below the top 64 bits", []float64{1, 0x1p-60}, []float64{0x1p53}},
		{"overflow to +Inf", []float64{1e308}, []float64{1e308}},
		{"back from the edge", []float64{math.MaxFloat64, math.MaxFloat64}, []float64{-math.MaxFloat64}},
	} {
		want := refSum(append(append([]float64(nil), tc.a...), tc.b...))
		for _, swap := range []bool{false, true} {
			x, y := tc.a, tc.b
			if swap {
				x, y = y, x
			}
			var a, b exactSums
			a.ensure(1, 1)
			b.ensure(1, 1)
			for _, v := range x {
				a.add(0, v)
			}
			for _, v := range y {
				b.add(0, v)
			}
			a.merge(0, &b, 0)
			if got := a.value(0); !sameFloat(got, want) {
				t.Errorf("%s (swapped %v): %v, want %v", tc.name, swap, got, want)
			}
		}
	}
}

// TestExactSumGroupSize: the per-group state is at most 24 bytes and holds
// no pointer, so a vector of group sums is one allocation the collector does
// not scan.
func TestExactSumGroupSize(t *testing.T) {
	if n := unsafe.Sizeof(exactSum{}); n > 24 {
		t.Fatalf("exactSum is %d bytes, want at most 24", n)
	}
	typ := reflect.TypeOf(exactSum{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Int32, reflect.Uint64:
		default:
			t.Fatalf("exactSum field %s is a %v", typ.Field(i).Name, k)
		}
	}
}

// FuzzExactSum: the values are the input's float64 bit patterns; a serial
// pass and a merge of the two sides of the cut equal the math/big reference.
func FuzzExactSum(f *testing.F) {
	enc := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(0.1, 0.2, 0.3), uint8(1))
	f.Add(enc(1e308, 1e308), uint8(1))
	f.Add(enc(4.567004089022277e+307, 2.65797520472452e+307, 7.32793269513411e+307, 3.570790706803777e+307, -3.1582221052763156e+306), uint8(2))
	f.Add(enc(math.Copysign(0, -1), math.Copysign(0, -1)), uint8(1))
	f.Add(enc(5e-324, -5e-324, 1e-310, 2.5), uint8(3))
	f.Add(enc(1e16, 1, -1e16, math.Ldexp(1, -1000), math.Ldexp(1, 1000)), uint8(2))
	f.Add(enc(math.Inf(1), 1, math.Inf(-1)), uint8(0))
	f.Add(enc(math.MaxFloat64, math.Ldexp(1, 970), -math.Ldexp(1, 969)), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		want := refSum(vals)
		if got := serialSum(vals); !sameFloat(got, want) {
			t.Fatalf("serial %v, want %v", got, want)
		}
		c := min(int(cut), len(vals))
		var a, b exactSums
		a.ensure(1, 1)
		b.ensure(1, 1)
		for _, v := range vals[:c] {
			a.add(0, v)
		}
		for _, v := range vals[c:] {
			b.add(0, v)
		}
		a.merge(0, &b, 0)
		if got := a.value(0); !sameFloat(got, want) {
			t.Fatalf("merged at %d: %v, want %v", c, got, want)
		}
	})
}

// TestCompSumOrderIndependent: any partitioning and ordering of the same
// multiset of floats must round to the same bits.
func TestCompSumOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		vals := make([]float64, n)
		for i := range vals {
			// Wildly mixed magnitudes to provoke cancellation.
			vals[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
		}
		want := serialSum(vals)
		rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		if got := splitSum(rng, vals, 1+rng.Intn(8)); got != want {
			t.Fatalf("trial %d: serial=%x merged=%x (n=%d)", trial, want, got, n)
		}
	}
}

// TestCompSumExact: the sum is exact where a naive sum is not.
func TestCompSumExact(t *testing.T) {
	if got := serialSum([]float64{1e16, 1, -1e16}); got != 1 {
		t.Fatalf("1e16 + 1 - 1e16 = %v, want 1", got)
	}
	tenth := make([]float64, 10)
	naive := 0.0
	for i := range tenth {
		tenth[i] = 0.1
		naive += 0.1
	}
	if got := serialSum(tenth); got != 1.0 {
		t.Fatalf("10 * 0.1 = %v, want exactly 1.0 (naive gives %v)", got, naive)
	}
}

// TestCompSumInlineSpillBoundary: values 60 binary orders apart, each with
// 53 significant bits, span more than the 125-bit window from the third one
// on, so the group crosses
// from the window into the slot. At every length around the boundary the
// sum, and a merge of two halves that sit on either side of it, must equal
// the reference, whatever order the values arrive in. Several groups of one
// owner keep their own slots.
func TestCompSumInlineSpillBoundary(t *testing.T) {
	for n := 1; n <= 6; n++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Ldexp(1+math.Ldexp(float64(2*i+1), -52), 60*i)
		}
		want := refSum(vals)
		for _, order := range []string{"ascending", "descending"} {
			in := append([]float64(nil), vals...)
			if order == "descending" {
				for i, j := 0, len(in)-1; i < j; i, j = i+1, j-1 {
					in[i], in[j] = in[j], in[i]
				}
			}
			var c exactSums
			c.ensure(1, 1)
			for _, v := range in {
				c.add(0, v)
			}
			if inSlot := c.g[0].state >= stateSlot; inSlot != (n > 2) {
				t.Fatalf("%d values %s: in slot = %v", n, order, inSlot)
			}
			if got := c.value(0); got != want {
				t.Fatalf("%d values %s: sum %x, reference %x", n, order, got, want)
			}
			for cut := 0; cut <= n; cut++ {
				var a, b exactSums
				a.ensure(1, 1)
				b.ensure(1, 1)
				for _, v := range in[:cut] {
					a.add(0, v)
				}
				for _, v := range in[cut:] {
					b.add(0, v)
				}
				a.merge(0, &b, 0)
				if got := a.value(0); got != want {
					t.Fatalf("%d values %s cut %d: merged %x, reference %x", n, order, cut, got, want)
				}
			}
		}
	}
	var s exactSums
	s.ensure(3, 3)
	for i := 0; i < 4; i++ {
		s.add(0, math.Ldexp(1, 60*i))
		s.add(2, math.Ldexp(3, 60*i))
	}
	s.add(1, 0.5)
	if s.g[0].state < stateSlot || s.g[1].state != stateWindow || s.g[2].state < stateSlot || s.g[0].state == s.g[2].state {
		t.Fatalf("group states %d %d %d", s.g[0].state, s.g[1].state, s.g[2].state)
	}
	if a, b := s.value(0)*3, s.value(2); a != b || s.value(1) != 0.5 {
		t.Fatalf("shared owner: %v*3 != %v, or %v != 0.5", s.value(0), b, s.value(1))
	}
}

// TestCompSumSpecials: infinities and NaNs still propagate.
func TestCompSumSpecials(t *testing.T) {
	if got := serialSum([]float64{1, math.Inf(1)}); !math.IsInf(got, 1) {
		t.Fatalf("sum with +Inf = %v", got)
	}
	if got := serialSum([]float64{math.Inf(1), math.Inf(-1)}); !math.IsNaN(got) {
		t.Fatalf("+Inf + -Inf = %v, want NaN", got)
	}
	if got := serialSum([]float64{1e308, 1e308}); !math.IsInf(got, 1) {
		t.Fatalf("1e308 + 1e308 = %v, want +Inf", got)
	}
}

// TestSumAvgAccBitIdentical: the SQL accumulators built on exactSums agree
// between one serial accumulator and merged partials, bit for bit, and with
// the math/big reference.
func TestSumAvgAccBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]datum.D, 400)
	floats := make([]float64, len(vals))
	for i := range vals {
		floats[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-6))
		vals[i] = datum.NewFloat(floats[i])
	}
	want := refSum(floats)
	for _, parts := range []int{2, 3, 8} {
		serialSum, serialAvg := &sumAcc{}, &avgAcc{}
		for _, v := range vals {
			serialSum.add(v)
			serialAvg.add(v)
		}
		sums := make([]*sumAcc, parts)
		avgs := make([]*avgAcc, parts)
		for i := range sums {
			sums[i], avgs[i] = &sumAcc{}, &avgAcc{}
		}
		for i, v := range vals {
			sums[i%parts].add(v)
			avgs[i%parts].add(v)
		}
		mergedSum, mergedAvg := &sumAcc{}, &avgAcc{}
		for i := range sums {
			mergedSum.merge(sums[i])
			mergedAvg.merge(avgs[i])
		}
		if a, b := serialSum.result().Float(), mergedSum.result().Float(); a != b || a != want {
			t.Errorf("SUM differs at %d partitions: serial=%x merged=%x reference=%x", parts, a, b, want)
		}
		if a, b := serialAvg.result().Float(), mergedAvg.result().Float(); a != b || a != want/float64(len(vals)) {
			t.Errorf("AVG differs at %d partitions: serial=%x merged=%x", parts, a, b)
		}
	}
}
