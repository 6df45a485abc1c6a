package exec

import (
	"fmt"

	"repro/internal/datum"
	"repro/internal/logical"
)

// aggAcc accumulates one aggregate over a group.
type aggAcc interface {
	add(v datum.D)
	// merge folds another accumulator of the same concrete type into this
	// one — used by parallel aggregation to combine thread-local partials at
	// the pipeline barrier (§7.1).
	merge(o aggAcc)
	result() datum.D
}

func newAgg(item logical.AggItem) aggAcc {
	var base aggAcc
	switch item.Fn {
	case logical.AggCount:
		base = &countAcc{star: item.Arg == nil}
	case logical.AggSum:
		base = &sumAcc{}
	case logical.AggAvg:
		base = &avgAcc{}
	case logical.AggMin:
		base = &minmaxAcc{min: true}
	case logical.AggMax:
		base = &minmaxAcc{}
	default:
		panic(fmt.Sprintf("exec: unknown aggregate %v", item.Fn))
	}
	if item.Distinct {
		return &distinctAcc{inner: base, seen: map[uint64][]datum.D{}}
	}
	return base
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
func (a *countAcc) merge(o aggAcc)  { a.n += o.(*countAcc).n }
func (a *countAcc) result() datum.D { return datum.NewInt(a.n) }

// sumAcc sums ints exactly in int64; float inputs switch it to an exact
// float sum so the result is bit-identical whether rows arrive in one serial
// stream or as morsel partials merged at any parallelism degree.
type sumAcc struct {
	any     bool
	isFloat bool
	i       int64
	f       exactSums // one group
}

func (a *sumAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	a.any = true
	if v.Kind() == datum.KindFloat || a.isFloat {
		a.promote()
		a.f.add(0, v.Float())
		return
	}
	a.i += v.Int()
}

// promote switches an int-typed accumulator to the float path, carrying the
// integer partial sum into the exact sum.
func (a *sumAcc) promote() {
	if !a.isFloat {
		a.f.ensure(1, 1)
		a.f.add(0, float64(a.i))
		a.isFloat = true
	}
}

func (a *sumAcc) merge(o aggAcc) {
	b := o.(*sumAcc)
	if !b.any {
		return
	}
	a.any = true
	if b.isFloat || a.isFloat {
		a.promote()
		if b.isFloat {
			a.f.merge(0, &b.f, 0)
		} else {
			a.f.add(0, float64(b.i))
		}
		return
	}
	a.i += b.i
}

func (a *sumAcc) result() datum.D {
	if !a.any {
		return datum.Null
	}
	if a.isFloat {
		return datum.NewFloat(a.f.value(0))
	}
	return datum.NewInt(a.i)
}

// avgAcc carries an exact sum and a count; like sumAcc, the division happens
// once at result time over the order-independent exact sum, so parallel and
// serial AVG agree to the bit.
type avgAcc struct {
	n   int64
	sum exactSums // one group
}

func (a *avgAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	a.n++
	a.sum.ensure(1, 1)
	a.sum.add(0, v.Float())
}

func (a *avgAcc) merge(o aggAcc) {
	b := o.(*avgAcc)
	if b.n == 0 {
		return
	}
	a.n += b.n
	a.sum.ensure(1, 1)
	a.sum.merge(0, &b.sum, 0)
}

func (a *avgAcc) result() datum.D {
	if a.n == 0 {
		return datum.Null
	}
	return datum.NewFloat(a.sum.value(0) / float64(a.n))
}

type minmaxAcc struct {
	min bool
	any bool
	val datum.D
}

func (a *minmaxAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	if !a.any {
		a.any = true
		a.val = v
		return
	}
	c := datum.Compare(v, a.val)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.val = v
	}
}

func (a *minmaxAcc) merge(o aggAcc) {
	b := o.(*minmaxAcc)
	if b.any {
		a.add(b.val)
	}
}

func (a *minmaxAcc) result() datum.D {
	if !a.any {
		return datum.Null
	}
	return a.val
}

// distinctAcc deduplicates inputs before feeding the inner accumulator.
type distinctAcc struct {
	inner aggAcc
	seen  map[uint64][]datum.D
}

func (a *distinctAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	h := v.Hash()
	for _, prev := range a.seen[h] {
		if datum.Equal(prev, v) {
			return
		}
	}
	a.seen[h] = append(a.seen[h], v)
	a.inner.add(v)
}

func (a *distinctAcc) merge(o aggAcc) {
	// Replaying the other side's distinct values through add keeps the
	// combined deduplication exact.
	for _, vs := range o.(*distinctAcc).seen {
		for _, v := range vs {
			a.add(v)
		}
	}
}

func (a *distinctAcc) result() datum.D { return a.inner.result() }
