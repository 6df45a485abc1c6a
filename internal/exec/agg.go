package exec

import (
	"fmt"
	"slices"

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

// sumAcc sums ints exactly in int64; float inputs switch it to a compensated
// exact float sum so the result is bit-identical whether rows arrive in one
// serial stream or as morsel partials merged at any parallelism degree.
type sumAcc struct {
	any     bool
	isFloat bool
	i       int64
	f       compSum
	wide    wideSums
}

func (a *sumAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	a.any = true
	if v.Kind() == datum.KindFloat || a.isFloat {
		a.promote()
		a.f.add(v.Float(), &a.wide)
		return
	}
	a.i += v.Int()
}

// promote switches an int-typed accumulator to the float path, carrying the
// integer partial sum into the expansion.
func (a *sumAcc) promote() {
	if !a.isFloat {
		a.f.add(float64(a.i), &a.wide)
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
			a.f.merge(&b.f, b.wide, &a.wide)
		} else {
			a.f.add(float64(b.i), &a.wide)
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
		return datum.NewFloat(a.f.value(a.wide))
	}
	return datum.NewInt(a.i)
}

// avgAcc carries an exact sum and a count; like sumAcc, the division happens
// once at result time over the order-independent exact sum, so parallel and
// serial AVG agree to the bit.
type avgAcc struct {
	n    int64
	sum  compSum
	wide wideSums
}

func (a *avgAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	a.n++
	a.sum.add(v.Float(), &a.wide)
}

func (a *avgAcc) merge(o aggAcc) {
	b := o.(*avgAcc)
	a.n += b.n
	a.sum.merge(&b.sum, b.wide, &a.wide)
}

func (a *avgAcc) result() datum.D {
	if a.n == 0 {
		return datum.Null
	}
	return datum.NewFloat(a.sum.value(a.wide) / float64(a.n))
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

// groupTable accumulates groups keyed by grouping-column values — the
// reference evaluator's aggregation (EvalLogical), fed one row at a time.
type groupTable struct {
	aggs     []logical.AggItem
	groups   map[uint64][]*groupEntry
	order    []*groupEntry // insertion order for determinism
	scalar   bool          // no group cols: always exactly one group
	groupLen int
}

type groupEntry struct {
	key  datum.Row
	accs []aggAcc
}

func newGroupTable(groupLen int, aggs []logical.AggItem) *groupTable {
	gt := &groupTable{
		aggs:     aggs,
		groups:   map[uint64][]*groupEntry{},
		scalar:   groupLen == 0,
		groupLen: groupLen,
	}
	if gt.scalar {
		gt.ensure(nil, 0)
	}
	return gt
}

func (gt *groupTable) ensure(key datum.Row, hash uint64) *groupEntry {
	for _, e := range gt.groups[hash] {
		if slices.EqualFunc(e.key, key, datum.Equal) {
			return e
		}
	}
	e := &groupEntry{key: key, accs: make([]aggAcc, len(gt.aggs))}
	for i, a := range gt.aggs {
		e.accs[i] = newAgg(a)
	}
	gt.groups[hash] = append(gt.groups[hash], e)
	gt.order = append(gt.order, e)
	return e
}

// add feeds one input row: key values plus the evaluated aggregate arguments
// (one per agg; COUNT(*) entries get a non-NULL placeholder).
func (gt *groupTable) add(key datum.Row, hash uint64, argVals []datum.D) {
	if gt.scalar {
		key, hash = nil, 0 // single global group
	}
	e := gt.ensure(key, hash)
	for i := range gt.aggs {
		e.accs[i].add(argVals[i])
	}
}

// rows emits one output row per group: key columns then aggregate results.
func (gt *groupTable) rows() []datum.Row {
	out := make([]datum.Row, 0, len(gt.order))
	for _, e := range gt.order {
		row := make(datum.Row, 0, gt.groupLen+len(gt.aggs))
		row = append(row, e.key...)
		for _, acc := range e.accs {
			row = append(row, acc.result())
		}
		out = append(out, row)
	}
	return out
}
