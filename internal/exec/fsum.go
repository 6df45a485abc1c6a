package exec

import (
	"math"
	"math/big"
	"math/bits"
)

// exactSums holds the float sums of a vector of groups, each exact until it is
// read and then rounded once, half-even. The result is the same bits in
// whatever order and partition the values arrive, so morsel partials merged
// at a pipeline barrier give the serial pass's bits and parallel SUM/AVG are
// bit-identical to serial at every degree, where a plain (or even Kahan)
// running sum would drift with the partition boundaries. A group is a 128-bit
// fixed-point window (Neal's small superaccumulator, cut down) until a value
// does not fit it; the group then moves to a slot with no range limit. An
// exact zero is -0 only when every value added was -0, as in an IEEE left
// fold that starts at -0.
type exactSums struct {
	g     []exactSum
	slots []*sumSlot
}

// exactSum is one group's window: A = hi:lo in two's complement, times 2^s,
// with |A| < 2^125 and s ≥ -1074, so its value is a multiple of the smallest
// subnormal. The first nonzero value sets s 11 bits below its lowest bit; a
// value with bits below s lowers s while A has the headroom.
type exactSum struct {
	lo, hi uint64
	s      int32
	state  int32 // stateNegZero, stateWindow, or stateSlot+i: moved to slots[i]
}

const (
	stateNegZero = iota // every value added was -0, or none was
	stateWindow
	stateSlot
)

// sumSlot is a group the window could not hold: the exact sum of its finite
// values in units of 2^-1074, and the sum of its infinities and NaNs, which is
// nonzero once there is one.
type sumSlot struct {
	n, t    big.Int // t is scratch
	special float64
}

func (f *exactSums) ensure(n, hint int) { f.g = growTo(f.g, n, hint) }

// add adds x to group g. The common case — a normal value at most 72 bits
// above the scale of a window holding a nonzero sum — is one 128-bit add
// (Go shifts of 64 or more give 0, so the shift needs no branch).
func (f *exactSums) add(g int32, x float64) {
	w := &f.g[g]
	b := math.Float64bits(x)
	exp := int32(b >> 52 & 0x7ff)
	if sh := uint64(exp - 1075 - w.s); uint32(exp-1) < 0x7fe && sh <= 125-53 && w.state == stateWindow && w.lo|w.hi != 0 {
		m, neg := b&(1<<52-1)|1<<52, uint64(int64(b)>>63)
		lo, c := bits.Add64(w.lo, m<<sh^neg, neg&1)
		hi, _ := bits.Add64(w.hi, (m>>(64-sh)|m<<(sh-64))^neg, c)
		if uint64(int64(hi)>>61+1) <= 1 {
			w.lo, w.hi = lo, hi
			return
		}
	}
	f.addSlow(g, x)
}

func (f *exactSums) addSlow(g int32, x float64) {
	w, b := &f.g[g], math.Float64bits(x)
	m, e, neg := b&(1<<52-1)|1<<52, int32(b>>52&0x7ff)-1075, uint64(int64(b)>>63)
	if b>>52&0x7ff == 0 {
		m, e = b&(1<<52-1), -1074
	}
	switch {
	case math.IsInf(x, 0) || math.IsNaN(x):
		f.slot(g).special += x
		return
	case x == 0:
		if neg == 0 && w.state == stateNegZero {
			w.state = stateWindow
		}
		return
	case w.state < stateSlot && w.lo|w.hi == 0:
		k := min(11, e+1074) // the first value: s 11 bits below it
		m, e = m<<k, e-k
	default:
		tz := int32(bits.TrailingZeros64(m)) // lower s no further than x needs
		m, e = m>>tz, e+tz
	}
	f.addWindow(g, exactSum{lo: m ^ neg - neg, hi: neg, s: e, state: stateWindow})
}

// addWindow adds window b to group g, moving the group to its slot when its
// window cannot hold the sum.
func (f *exactSums) addWindow(g int32, b exactSum) {
	w := &f.g[g]
	switch {
	case w.state >= stateSlot:
	case w.lo|w.hi == 0:
		*w = b
		return
	case b.lo|b.hi == 0 || w.addAt(b.lo, b.hi, b.s):
		return
	}
	s := f.slot(g)
	b.addTo(&s.n, &s.t)
}

// addAt adds the two's-complement hi:lo times 2^e to the window, lowering s to
// e first if e is below it, and reports false, having changed at most the
// scale, when the window cannot hold the result.
func (w *exactSum) addAt(lo, hi uint64, e int32) bool {
	if e < w.s {
		alo, ahi, ok := widen(w.lo, w.hi, w.s-e)
		if !ok {
			return false
		}
		w.lo, w.hi, w.s = alo, ahi, e
	}
	lo, hi, ok := widen(lo, hi, e-w.s)
	lo, c := bits.Add64(w.lo, lo, 0)
	hi, _ = bits.Add64(w.hi, hi, c)
	if !ok || uint64(int64(hi)>>61+1) > 1 {
		return false
	}
	w.lo, w.hi = lo, hi
	return true
}

// merge adds group og of o into group g.
func (f *exactSums) merge(g int32, o *exactSums, og int32) {
	switch b := o.g[og]; {
	case b.state == stateNegZero:
	case b.state >= stateSlot:
		os, s := o.slots[b.state-stateSlot], f.slot(g)
		s.n.Add(&s.n, &os.n)
		s.special += os.special
	default:
		f.addWindow(g, b)
	}
}

// slot returns group g's slot, moving the group there first.
func (f *exactSums) slot(g int32) *sumSlot {
	w := &f.g[g]
	if w.state < stateSlot {
		s := &sumSlot{}
		w.addTo(&s.n, &s.t)
		f.slots = append(f.slots, s)
		*w = exactSum{state: stateSlot + int32(len(f.slots)-1)}
	}
	return f.slots[w.state-stateSlot]
}

func (f *exactSums) value(g int32) float64 {
	w := f.g[g]
	switch {
	case w.state >= stateSlot:
		s := f.slots[w.state-stateSlot]
		if s.special != 0 {
			return s.special
		}
		var v big.Float // rounds half-even, subnormals and overflow to ±Inf included
		r, _ := v.SetMantExp(v.SetInt(&s.n), -1074).Float64()
		return r
	case w.lo|w.hi == 0 && w.state == stateNegZero:
		return math.Copysign(0, -1)
	}
	// |A| folded to 64 bits with a sticky bit converts to float64 rounded as
	// |A| itself would be, and scaling by 2^e is then exact: e ≤ 1021, as
	// s ≤ 960, and an |A| short of 53 bits, the only one that can land in
	// the subnormal range, converts exactly as s ≥ -1074.
	neg := uint64(int64(w.hi) >> 63)
	lo, c := bits.Add64(w.lo^neg, 0, neg&1)
	hi, e := w.hi^neg+c, int(w.s)
	if hi != 0 {
		k := 64 - bits.LeadingZeros64(hi)
		lo, e = lo>>k|hi<<(64-k)|min(lo<<(64-k), 1), e+k
	}
	p := math.Float64frombits(uint64(e+1023) << 52)
	if e < -1022 {
		p = math.Float64frombits(1 << (e + 1074))
	}
	return math.Float64frombits(math.Float64bits(float64(lo)*p) | neg<<63)
}

// addTo adds the window's A·2^(s+1074) to n, using t as scratch.
func (w *exactSum) addTo(n, t *big.Int) {
	sh := uint(w.s + 1074)
	n.Add(n, t.SetInt64(int64(w.hi)).Lsh(t, 64+sh))
	n.Add(n, t.SetUint64(w.lo).Lsh(t, sh))
}

// widen returns the two's-complement hi:lo times 2^k, k ≥ 0, if its magnitude
// stays below 2^125.
func widen(lo, hi uint64, k int32) (uint64, uint64, bool) {
	sign := uint64(int64(hi) >> 63)
	lz := bits.LeadingZeros64(hi ^ sign)
	if lz == 64 {
		lz += bits.LeadingZeros64(lo ^ sign)
	}
	if k > int32(lz)-3 {
		return 0, 0, false
	}
	n := uint64(k)
	return lo << n, hi<<n | lo>>(64-n) | lo<<(n-64), true
}
