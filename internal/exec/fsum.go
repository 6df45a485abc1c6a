package exec

import "math"

// compSum is an exact floating-point accumulator: it maintains the running
// sum as a list of non-overlapping partials (Shewchuk's expansion arithmetic,
// the algorithm behind CPython's math.fsum) and rounds only once, when the
// value is read. Because the retained expansion is the exact real-number sum
// of everything added, the rounded result is independent of the order values
// arrive in — summing morsel partials merged at a pipeline barrier yields the
// same bits as one serial left-to-right pass. That makes parallel SUM/AVG
// bit-identical to serial at every degree, where a plain (or even Kahan)
// running sum would drift with the partition boundaries.
type compSum struct {
	// The first partials live inline, so a []compSum of per-group sums is one
	// pointer-free allocation. Values of similar magnitude keep two or three
	// partials; an expansion that outgrows the inline array moves to its
	// owner's wideSums and stays there.
	inline [inlinePartials]float64
	n      int32 // inline partials in use
	wide   int32 // 1 + index of the expansion in the owner's wideSums; 0 while inline
	// special accumulates infinities and NaNs outside the expansion (two-sum
	// algebra is only exact for finite values).
	special    float64
	hasSpecial bool
}

const inlinePartials = 4

// wideSums stores the expansions of the compSums of one owner (an
// accumulator, or a vector of per-group accumulators) that outgrew their
// inline partials. Every method of a compSum takes the store of its owner.
type wideSums [][]float64

// partials returns the expansion: the inline prefix, capped so that an append
// past it reallocates, or the wide slice.
func (c *compSum) partials(w wideSums) []float64 {
	if c.wide > 0 {
		return w[c.wide-1]
	}
	return c.inline[:c.n:inlinePartials]
}

// add folds x into the expansion, keeping partials non-overlapping and
// ordered by increasing magnitude.
func (c *compSum) add(x float64, w *wideSums) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		c.special += x
		c.hasSpecial = true
		return
	}
	p := c.partials(*w)
	i := 0
	for _, y := range p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			p[i] = lo
			i++
		}
		x = hi
	}
	p = append(p[:i], x)
	switch {
	case c.wide > 0:
		(*w)[c.wide-1] = p
	case len(p) <= inlinePartials:
		c.n = int32(len(p)) // written in place
	default:
		*w = append(*w, p)
		c.wide = int32(len(*w))
	}
}

// merge folds another accumulator's exact state into this one. Partials are
// themselves ordinary floats, so replaying them through add preserves
// exactness.
func (c *compSum) merge(o *compSum, ow wideSums, w *wideSums) {
	for _, p := range o.partials(ow) {
		c.add(p, w)
	}
	if o.hasSpecial {
		c.special += o.special
		c.hasSpecial = true
	}
}

// value returns the correctly rounded (round-half-even) sum of the expansion.
func (c *compSum) value(w wideSums) float64 {
	if c.hasSpecial {
		return c.special
	}
	partials := c.partials(w)
	n := len(partials)
	if n == 0 {
		return 0
	}
	// Sum from largest to smallest; stop at the first partial that does not
	// fit, then nudge for a half-ulp tie so the result is the exact sum
	// rounded once (CPython fsum's rounding step).
	i := n - 1
	hi := partials[i]
	var lo float64
	for i > 0 {
		x := hi
		i--
		y := partials[i]
		hi = x + y
		yr := hi - x
		lo = y - yr
		if lo != 0 {
			break
		}
	}
	if i > 0 && ((lo < 0 && partials[i-1] < 0) || (lo > 0 && partials[i-1] > 0)) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}
