package reference

import (
	"math"
	"math/big"
	"slices"

	"repro/internal/datum"
	"repro/internal/logical"
)

// The evaluator's aggregation: a group table fed one row at a time, with
// accumulators written for clarity, not speed, to the engine's result
// semantics — COUNT(*) counts rows and COUNT(x) non-NULL values; SUM, AVG,
// MIN and MAX of no non-NULL value are NULL; INT SUM adds in int64, and a
// FLOAT value turns it into a float sum carrying the integer partial; float
// sums are exact and rounded once, half-even (+Inf past MaxFloat64); AVG
// divides that sum by the count; MIN and MAX order by datum.Compare; DISTINCT
// drops values datum.Equal to one seen before.

type acc interface {
	add(v datum.D)
	result() datum.D
}

func newAcc(item logical.AggItem) acc {
	var a acc
	switch item.Fn {
	case logical.AggCount:
		a = &countAcc{star: item.Arg == nil}
	case logical.AggSum:
		a = &sumAcc{}
	case logical.AggAvg:
		a = &avgAcc{}
	case logical.AggMin:
		a = &minmaxAcc{min: true}
	default:
		a = &minmaxAcc{}
	}
	if item.Distinct {
		return &distinctAcc{inner: a, seen: map[uint64][]datum.D{}}
	}
	return a
}

type countAcc struct {
	star bool
	n    int64
}

func (a *countAcc) add(v datum.D) {
	if a.star || !v.IsNull() {
		a.n++
	}
}

func (a *countAcc) result() datum.D { return datum.NewInt(a.n) }

type sumAcc struct {
	any, float bool
	i          int64
	f          floatSum
}

func (a *sumAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	a.any = true
	if v.Kind() == datum.KindFloat && !a.float {
		a.float = true
		a.f.add(float64(a.i))
	}
	if a.float {
		a.f.add(v.Float())
	} else {
		a.i += v.Int()
	}
}

func (a *sumAcc) result() datum.D {
	switch {
	case !a.any:
		return datum.Null
	case a.float:
		return datum.NewFloat(a.f.value())
	}
	return datum.NewInt(a.i)
}

type avgAcc struct {
	n   int64
	sum floatSum
}

func (a *avgAcc) add(v datum.D) {
	if !v.IsNull() {
		a.n++
		a.sum.add(v.Float())
	}
}

func (a *avgAcc) result() datum.D {
	if a.n == 0 {
		return datum.Null
	}
	return datum.NewFloat(a.sum.value() / float64(a.n))
}

type minmaxAcc struct {
	min bool
	val datum.D // NULL until the first non-NULL value
}

func (a *minmaxAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	if c := datum.Compare(v, a.val); a.val.IsNull() || (a.min && c < 0) || (!a.min && c > 0) {
		a.val = v
	}
}

func (a *minmaxAcc) result() datum.D { return a.val }

type distinctAcc struct {
	inner acc
	seen  map[uint64][]datum.D
}

func (a *distinctAcc) add(v datum.D) {
	h := v.Hash()
	if v.IsNull() || slices.ContainsFunc(a.seen[h], func(p datum.D) bool { return datum.Equal(p, v) }) {
		return
	}
	a.seen[h] = append(a.seen[h], v)
	a.inner.add(v)
}

func (a *distinctAcc) result() datum.D { return a.inner.result() }

// floatSum is an exact sum of float64 values: the finite ones as an integer
// count of 2^-1074 (every float64 is a whole multiple of it), the infinities
// and NaNs apart. An exact zero is -0 only when every value added was -0.
type floatSum struct {
	units   big.Int
	special float64
	notNeg0 bool
}

func (s *floatSum) add(x float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		s.special += x
		return
	}
	if x != 0 || !math.Signbit(x) {
		s.notNeg0 = true
	}
	var f big.Float
	units, _ := f.SetMantExp(f.SetFloat64(x), 1074).Int(nil)
	s.units.Add(&s.units, units)
}

func (s *floatSum) value() float64 {
	switch {
	case s.special != 0: // also NaN
		return s.special
	case !s.notNeg0:
		return math.Copysign(0, -1)
	}
	var f big.Float
	v, _ := f.SetMantExp(f.SetInt(&s.units), -1074).Float64()
	return v
}

// groupTable holds the groups in first-seen order; a scalar aggregation (no
// group columns) always has exactly one group.
type groupTable struct {
	aggs   []logical.AggItem
	groups map[uint64][]*group
	order  []*group
	scalar bool
}

type group struct {
	key  datum.Row
	accs []acc
}

func newGroupTable(scalar bool, aggs []logical.AggItem) *groupTable {
	gt := &groupTable{aggs: aggs, groups: map[uint64][]*group{}, scalar: scalar}
	if scalar {
		gt.ensure(nil)
	}
	return gt
}

func (gt *groupTable) ensure(key datum.Row) *group {
	var h uint64
	for _, d := range key {
		h = h*31 + d.Hash()
	}
	for _, g := range gt.groups[h] {
		if slices.EqualFunc(g.key, key, datum.Equal) {
			return g
		}
	}
	g := &group{key: key, accs: make([]acc, len(gt.aggs))}
	for i, a := range gt.aggs {
		g.accs[i] = newAcc(a)
	}
	gt.groups[h] = append(gt.groups[h], g)
	gt.order = append(gt.order, g)
	return g
}

// add feeds one row: its key values and the aggregate arguments.
func (gt *groupTable) add(key datum.Row, args []datum.D) {
	if gt.scalar {
		key = nil
	}
	g := gt.ensure(key)
	for i, a := range g.accs {
		a.add(args[i])
	}
}

// rows emits one row per group: the key values, then the aggregates.
func (gt *groupTable) rows() []datum.Row {
	out := make([]datum.Row, len(gt.order))
	for k, g := range gt.order {
		row := slices.Clone(g.key)
		for _, a := range g.accs {
			row = append(row, a.result())
		}
		out[k] = row
	}
	return out
}
