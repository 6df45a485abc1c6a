package exec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datum"
)

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
		var serial compSum
		var sw wideSums
		for _, v := range vals {
			serial.add(v, &sw)
		}
		want := serial.value(sw)

		// Shuffled two-phase: random partition count, random order inside.
		perm := rng.Perm(n)
		parts := 1 + rng.Intn(8)
		partials := make([]compSum, parts)
		var pw, mw wideSums
		for i, pi := range perm {
			partials[i%parts].add(vals[pi], &pw)
		}
		var merged compSum
		for i := range partials {
			merged.merge(&partials[i], pw, &mw)
		}
		if got := merged.value(mw); got != want {
			t.Fatalf("trial %d: serial=%x merged=%x (n=%d parts=%d)", trial, want, got, n, parts)
		}
	}
}

// TestCompSumExact: the expansion is exact where a naive sum is not.
func TestCompSumExact(t *testing.T) {
	var c compSum
	var w wideSums
	c.add(1e16, &w)
	c.add(1, &w)
	c.add(-1e16, &w)
	if got := c.value(w); got != 1 {
		t.Fatalf("1e16 + 1 - 1e16 = %v, want 1", got)
	}
	var d compSum
	for i := 0; i < 10; i++ {
		d.add(0.1, &w)
	}
	naive := 0.0
	for i := 0; i < 10; i++ {
		naive += 0.1
	}
	if got := d.value(w); got != 1.0 {
		t.Fatalf("10 * 0.1 = %v, want exactly 1.0 (naive gives %v)", got, naive)
	}
}

// TestCompSumInlineSpillBoundary: powers of two 60 binary orders apart never
// overlap, so each one adds a partial — the expansion crosses from the inline
// array into the wide store exactly at partial inlinePartials+1. At every
// length around the boundary the sum, and a merge of two halves that sit on
// either side of it, must have the bits of a reference expansion kept in a
// plain slice, whatever order the values arrive in.
func TestCompSumInlineSpillBoundary(t *testing.T) {
	// refSum is the algorithm over an unbounded slice: what compSum computed
	// before partials moved inline.
	refSum := func(vals []float64) float64 {
		var c compSum
		var w wideSums
		c.wide = 1 // start wide: never touches the inline array
		w = append(w, nil)
		for _, v := range vals {
			c.add(v, &w)
		}
		return c.value(w)
	}
	for n := 1; n <= inlinePartials+3; n++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Ldexp(1+float64(i)/8, 60*i)
		}
		want := refSum(vals)
		for _, order := range []string{"ascending", "descending"} {
			in := append([]float64(nil), vals...)
			if order == "descending" {
				for i, j := 0, len(in)-1; i < j; i, j = i+1, j-1 {
					in[i], in[j] = in[j], in[i]
				}
			}
			var c compSum
			var w wideSums
			for _, v := range in {
				c.add(v, &w)
			}
			if wide := c.wide > 0; wide != (n > inlinePartials) {
				t.Fatalf("%d partials %s: wide = %v", n, order, wide)
			}
			if got := c.value(w); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d partials %s: sum %x, reference %x", n, order, got, want)
			}
			// Merge across the boundary in both directions: an inline half into
			// a wide one, a wide half into an inline one, and two inline halves
			// whose union no longer fits.
			for cut := 0; cut <= n; cut++ {
				var a, b compSum
				var aw, bw wideSums
				for _, v := range in[:cut] {
					a.add(v, &aw)
				}
				for _, v := range in[cut:] {
					b.add(v, &bw)
				}
				a.merge(&b, bw, &aw)
				if got := a.value(aw); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d partials %s cut %d: merged %x, reference %x", n, order, cut, got, want)
				}
			}
		}
	}
	// Several sums share one store: each wide sum keeps its own expansion.
	var w wideSums
	sums := make([]compSum, 3)
	for i := 0; i < inlinePartials+2; i++ {
		sums[0].add(math.Ldexp(1, 60*i), &w)
		sums[2].add(math.Ldexp(3, 60*i), &w)
	}
	sums[1].add(0.5, &w)
	if sums[0].wide == 0 || sums[1].wide != 0 || sums[2].wide == 0 || sums[0].wide == sums[2].wide {
		t.Fatalf("wide slots %d %d %d", sums[0].wide, sums[1].wide, sums[2].wide)
	}
	if a, b := sums[0].value(w)*3, sums[2].value(w); a != b || sums[1].value(w) != 0.5 {
		t.Fatalf("shared store: %v*3 != %v, or %v != 0.5", sums[0].value(w), b, sums[1].value(w))
	}
}

// TestCompSumSpecials: infinities and NaNs still propagate.
func TestCompSumSpecials(t *testing.T) {
	var c compSum
	var w wideSums
	c.add(1, &w)
	c.add(math.Inf(1), &w)
	if got := c.value(w); !math.IsInf(got, 1) {
		t.Fatalf("sum with +Inf = %v", got)
	}
	var d compSum
	d.add(math.Inf(1), &w)
	d.add(math.Inf(-1), &w)
	if got := d.value(w); !math.IsNaN(got) {
		t.Fatalf("+Inf + -Inf = %v, want NaN", got)
	}
}

// TestSumAvgAccBitIdentical: the SQL accumulators built on compSum agree
// between one serial accumulator and merged partials, bit for bit.
func TestSumAvgAccBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]datum.D, 400)
	for i := range vals {
		vals[i] = datum.NewFloat((rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-6)))
	}
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
		if a, b := serialSum.result().Float(), mergedSum.result().Float(); a != b {
			t.Errorf("SUM differs at %d partitions: serial=%x merged=%x", parts, a, b)
		}
		if a, b := serialAvg.result().Float(), mergedAvg.result().Float(); a != b {
			t.Errorf("AVG differs at %d partitions: serial=%x merged=%x", parts, a, b)
		}
	}
}
