package histogram

import (
	"math"
	"math/rand"

	"repro/internal/datum"
)

// Sample draws a uniform random sample of size m (without replacement) from
// values, using the provided source for reproducibility. If m >= len(values)
// the whole input is returned (copied). Reservoir sampling keeps memory
// proportional to the sample.
func Sample(values []datum.D, m int, rng *rand.Rand) []datum.D {
	out := make([]datum.D, min(m, len(values)))
	copy(out, values)
	for i := m; i < len(values); i++ {
		if j := rng.Intn(i + 1); j < m {
			out[j] = values[i]
		}
	}
	return out
}

// BuildFromSample constructs a k-bucket equi-depth histogram from a sample of
// the column and scales counts to the full table size n (§5.1.2,
// Piatetsky-Shapiro/Connell and Chaudhuri/Motwani/Narasayya). Distinct counts
// per bucket are scaled with a first-order correction because raw scaling of
// sample distincts is biased.
func BuildFromSample(sample []datum.D, n int, k int) *Histogram {
	h := BuildEquiDepth(sample, k)
	if h.Total == 0 || n <= len(sample) {
		return h
	}
	scale := float64(n) / h.Total
	h.Total = 0
	h.Distinct = 0
	for i := range h.Buckets {
		b := &h.Buckets[i]
		b.Count *= scale
		// Distinct values cannot exceed the (scaled) row count; scaling the
		// observed distincts by sqrt(scale) is the GEE-style compromise.
		b.Distinct = math.Min(b.Count, b.Distinct*math.Sqrt(scale))
		h.Total += b.Count
		h.Distinct += b.Distinct
	}
	return h
}

// DistinctScaleUp naively scales the sample's distinct count by n/m. The
// paper (§5.1.2, citing [27,50]) notes such estimators are provably
// error-prone; E11 quantifies this.
func DistinctScaleUp(sample []datum.D, n int) float64 {
	m := len(sample)
	if m == 0 {
		return 0
	}
	d := distinctCount(sample)
	return math.Min(float64(n), float64(d)*float64(n)/float64(m))
}

// DistinctGEE implements the Guaranteed-Error Estimator of
// Charikar/Chaudhuri/Motwani/Narasayya: sqrt(n/m)·f1 + Σ_{i≥2} f_i, where
// f_i is the number of values appearing exactly i times in the sample. It
// achieves the optimal worst-case ratio error of sqrt(n/m).
func DistinctGEE(sample []datum.D, n int) float64 {
	m := len(sample)
	if m == 0 {
		return 0
	}
	freq := valueFrequencies(sample)
	var f1, rest float64
	for _, f := range freq {
		if f == 1 {
			f1++
		} else {
			rest++
		}
	}
	est := math.Sqrt(float64(n)/float64(m))*f1 + rest
	return math.Min(float64(n), math.Max(est, float64(len(freq))))
}

// DistinctJackknife is the first-order jackknife estimator:
// d̂ = d / (1 - f1·(1-q)/m) approximated as d + f1·(1/q - 1) for small q,
// where q = m/n is the sampling fraction.
func DistinctJackknife(sample []datum.D, n int) float64 {
	m := len(sample)
	if m == 0 {
		return 0
	}
	freq := valueFrequencies(sample)
	d := float64(len(freq))
	var f1 float64
	for _, f := range freq {
		if f == 1 {
			f1++
		}
	}
	q := float64(m) / float64(n)
	if q >= 1 {
		return d
	}
	est := d / (1 - (1-q)*f1/float64(m))
	return math.Min(float64(n), math.Max(est, d))
}

func distinctCount(values []datum.D) int {
	return len(valueFrequencies(values))
}

// valueFrequencies returns how often each distinct non-NULL value occurs, in
// value order. Values are told apart by datum.Compare, the order the
// histograms sort by — not by hash, under which INTs past 2^53 that round to
// one float64 would count once.
func valueFrequencies(values []datum.D) []int {
	vals := sortedNonNull(values)
	var freq []int
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && datum.Equal(vals[j], vals[i]) {
			j++
		}
		freq = append(freq, j-i)
		i = j
	}
	return freq
}

// ExactDistinct counts distinct non-NULL values exactly under datum.Compare
// (ground truth for experiments).
func ExactDistinct(values []datum.D) float64 {
	return float64(distinctCount(values))
}
