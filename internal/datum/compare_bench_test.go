package datum

// compare_bench_test.go pins down the same-kind fast path in Compare: a
// correctness check against the generic family-resolution path over random
// datum pairs, and BenchmarkDatumCompare measuring the fast path against the
// generic baseline it replaced for the hot same-kind cases.

import (
	"cmp"
	"math/rand"
	"testing"
)

// genericCompare is the order without the same-kind fast path: always
// resolve the comparison family via Family(), then dispatch. Kept here as the
// benchmark baseline and the reference the fast path must agree with.
func genericCompare(a, b D) int {
	ra, rb := a.k.Family(), b.k.Family()
	if ra != rb {
		return cmp.Compare(ra, rb)
	}
	switch {
	case a.k == KindInt && b.k == KindFloat:
		return CompareIntFloat(a.i, b.f)
	case a.k == KindFloat && b.k == KindInt:
		return -CompareIntFloat(b.i, a.f)
	case a.k == KindFloat:
		return cmp.Compare(a.f, b.f)
	case a.k == KindString:
		return cmp.Compare(a.s, b.s)
	}
	return cmp.Compare(a.i, b.i) // NULL's i is 0
}

func randCmpDatum(rng *rand.Rand) D {
	switch rng.Intn(5) {
	case 0:
		return Null
	case 1:
		return NewBool(rng.Intn(2) == 0)
	case 2:
		return NewInt(int64(rng.Intn(20) - 10))
	case 3:
		return NewFloat(float64(rng.Intn(40))/4 - 5)
	default:
		return NewString([]string{"", "ant", "bee", "cat"}[rng.Intn(4)])
	}
}

// TestCompareFastPathMatchesGeneric: the same-kind fast path must be
// observationally identical to the generic family-resolution path.
func TestCompareFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20000; trial++ {
		a, b := randCmpDatum(rng), randCmpDatum(rng)
		if got, want := Compare(a, b), genericCompare(a, b); got != want {
			t.Fatalf("Compare(%s, %s) = %d, generic path says %d", a, b, got, want)
		}
	}
}

// comparePairs builds same-kind pairs of one kind, the case the fast path
// targets.
func comparePairs(kind Kind, n int) ([]D, []D) {
	rng := rand.New(rand.NewSource(7))
	a, b := make([]D, n), make([]D, n)
	for i := 0; i < n; i++ {
		for {
			x, y := randCmpDatum(rng), randCmpDatum(rng)
			if x.k == kind && y.k == kind {
				a[i], b[i] = x, y
				break
			}
		}
	}
	return a, b
}

func BenchmarkDatumCompare(b *testing.B) {
	const n = 1024
	for _, tc := range []struct {
		name string
		kind Kind
	}{
		{"int", KindInt},
		{"float", KindFloat},
		{"string", KindString},
	} {
		xs, ys := comparePairs(tc.kind, n)
		b.Run(tc.name+"/fast", func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += Compare(xs[i%n], ys[i%n])
			}
			_ = sink
		})
		b.Run(tc.name+"/generic", func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += genericCompare(xs[i%n], ys[i%n])
			}
			_ = sink
		})
	}
}
