package main

import (
	"math"
	"slices"
	"sort"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix64 is the splitmix64 finalizer: it spreads a row hash over all 64 bits
// so that sums of row hashes do not cancel.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fingerprint hashes a result exactly: integers and strings by value, floats
// by their bits, so one differing float bit changes it. Ordered results
// chain the row hashes in order; unordered ones add them, which compares
// rows as a bag. It allocates nothing, so checking a 15 µs statement does
// not distort the closed loop.
func fingerprint(rows [][]any, ordered bool) uint64 {
	acc := uint64(len(rows))
	for _, r := range rows {
		h := uint64(fnvOffset)
		for _, v := range r {
			switch t := v.(type) {
			case nil:
				h = (h ^ 0) * fnvPrime
			case bool:
				h = (h ^ 1) * fnvPrime
				if t {
					h = (h ^ 1) * fnvPrime
				}
			case int64:
				h = (h^2)*fnvPrime ^ uint64(t)
			case float64:
				h = (h^3)*fnvPrime ^ math.Float64bits(t)
			case string:
				h = (h ^ 4) * fnvPrime
				for i := 0; i < len(t); i++ {
					h = (h ^ uint64(t[i])) * fnvPrime
				}
			}
			h = mix64(h)
		}
		if ordered {
			acc = mix64(acc ^ h)
		} else {
			acc += h
		}
	}
	return acc
}

// percentileMs is the nearest-rank percentile of nanosecond samples, in ms.
func percentileMs(ns []uint32, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e6
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile as a share of
// the median, with quartiles as Python's statistics.quantiles(v, n=4) gives
// them. Fewer than two values have no spread.
func spread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((q(3) - q(1)) / med)
}
