// Typed kernels: predicate filtering over raw []int64/[]float64/[]string
// column slices writing selection vectors, and the accumulate loops of
// SUM/COUNT/MIN/MAX/AVG (key hashing is datum's, Vec.HashInto).
// Every kernel replicates the row accumulators' and the reference
// evaluator's SQL semantics exactly — three-valued comparison (a NULL operand
// is never TRUE) over datum.Compare's one total order (1 = 1.0, -0 = +0, NaN
// equal to itself and below every number), and fsum's compensated summation
// — which is what makes output with kernels on bit-identical to output with
// them off.
package exec

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/datum"
	"repro/internal/logical"
)

// --- predicate compilation ---

// Forms a compiled predicate can take.
const (
	predColConst  uint8 = iota // col op constant
	predColCol                 // col op col
	predIsNull                 // col IS NULL
	predIsNotNull              // col IS NOT NULL
	predNever                  // never TRUE (e.g. comparison against NULL)
)

// compiledPred is one kernel-executable predicate over batch columns.
type compiledPred struct {
	form uint8
	col  int // offset of the left column in the batch layout
	col2 int // offset of the right column (predColCol)
	op   logical.CmpOp
	c    datum.D // constant operand (predColConst)
}

// cols lists the batch columns the predicate reads.
func (p compiledPred) cols() []int {
	switch p.form {
	case predNever:
		return nil
	case predColCol:
		return []int{p.col, p.col2}
	}
	return []int{p.col}
}

// compilePreds splits a conjunction into kernel programs and the residual
// conjuncts that have none. Comparisons between columns and constants and
// IS [NOT] NULL compile; anything else — LIKE, arithmetic, IN lists,
// subqueries, UDFs — stays residual and is evaluated row-at-a-time over the
// kernels' survivors (a conjunction is commutative, so running the compiled
// part first never changes the result). With Ctx.Vectorize off nothing
// compiles and the whole conjunction is residual. A parameter-tagged
// constant compiles to its binding in c.params.
func (c *Ctx) compilePreds(preds []logical.Scalar, layout []logical.ColumnID) (compiled []compiledPred, residual []logical.Scalar) {
	if !c.Vectorize {
		return nil, preds
	}
	for _, p := range preds {
		if cp, ok := compilePred(p, layout, c.params); ok {
			compiled = append(compiled, cp)
		} else {
			residual = append(residual, p)
		}
	}
	return compiled, residual
}

// compilePred translates one conjunct into its kernel program, or reports
// that it has none.
func compilePred(p logical.Scalar, layout []logical.ColumnID, params []datum.D) (compiledPred, bool) {
	switch t := p.(type) {
	case *logical.Cmp:
		if t.Op == logical.CmpLike {
			return compiledPred{}, false
		}
		l, r, op := t.L, t.R, t.Op
		if _, lIsConst := l.(*logical.Const); lIsConst {
			l, r, op = r, l, op.Commute()
		}
		lc, lIsCol := l.(*logical.Col)
		if !lIsCol {
			return compiledPred{}, false
		}
		a := slices.Index(layout, lc.ID)
		switch rt := r.(type) {
		case *logical.Col:
			if b := slices.Index(layout, rt.ID); a >= 0 && b >= 0 {
				return compiledPred{form: predColCol, col: a, col2: b, op: op}, true
			}
		case *logical.Const:
			switch v := rt.Bound(params); {
			case a < 0:
			case v.IsNull():
				return compiledPred{form: predNever}, true
			default:
				return compiledPred{form: predColConst, col: a, op: op, c: v}, true
			}
		}
	case *logical.IsNull:
		col, ok := t.E.(*logical.Col)
		if !ok {
			return compiledPred{}, false
		}
		a := slices.Index(layout, col.ID)
		if a < 0 {
			return compiledPred{}, false
		}
		form := predIsNull
		if t.Negated {
			form = predIsNotNull
		}
		return compiledPred{form: form, col: a}, true
	}
	return compiledPred{}, false
}

// cmpMasks[op] has bit c+1 set where op holds for the three-way compare
// result c (-1, 0 or +1); LIKE never holds on one.
var cmpMasks = [...]uint{logical.CmpEq: 0b010, logical.CmpNe: 0b101, logical.CmpLt: 0b001,
	logical.CmpLe: 0b011, logical.CmpGt: 0b100, logical.CmpGe: 0b110, logical.CmpLike: 0}

// cmpMatches applies a comparison operator to a three-way compare result.
func cmpMatches(op logical.CmpOp, c int) bool { return cmpMasks[op]>>uint(c+1)&1 != 0 }

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// applyPred refines sel by one compiled predicate, appending survivors to
// out (which must be empty) and returning it.
func applyPred(b *Batch, p compiledPred, sel []int32, out []int32) []int32 {
	switch p.form {
	case predNever:
		return out
	case predIsNull:
		v := b.Vecs[p.col]
		for _, i := range sel {
			if v.Null(int(i)) {
				out = append(out, i)
			}
		}
		return out
	case predIsNotNull:
		v := b.Vecs[p.col]
		for _, i := range sel {
			if !v.Null(int(i)) {
				out = append(out, i)
			}
		}
		return out
	case predColConst:
		return selColConst(b.Vecs[p.col], p.op, p.c, sel, out)
	case predColCol:
		return selColCol(b.Vecs[p.col], b.Vecs[p.col2], p.op, sel, out)
	}
	return out
}

// selColConst selects rows where col op const is TRUE.
func selColConst(v *datum.Vec, op logical.CmpOp, c datum.D, sel, out []int32) []int32 {
	vk := v.Kind()
	if !v.Boxed() && vk != c.Kind() && vk.Family() == c.Kind().Family() && !numericAs(&c, vk) {
		return selIntFloatConst(v, op, c, sel, out)
	}
	if v.Boxed() {
		for _, i := range sel {
			if l := v.D(int(i)); !l.IsNull() && cmpMatches(op, datum.Compare(l, c)) {
				out = append(out, i)
			}
		}
		return out
	}
	if vk == datum.KindNull {
		return out
	}
	if vk.Family() != c.Kind().Family() {
		// Cross-family comparisons have a fixed outcome for every non-NULL
		// value (datum.Compare orders whole families), so the predicate
		// collapses to "IS NOT NULL" or "never".
		if cmpMatches(op, cmp.Compare(vk.Family(), c.Kind().Family())) {
			for _, i := range sel {
				if !v.Null(int(i)) {
					out = append(out, i)
				}
			}
		}
		return out
	}
	nulls := v.Nulls()
	switch vk {
	case datum.KindInt:
		return selOrd(v.Ints, nulls, op, c.Int(), sel, out)
	case datum.KindFloat:
		return selOrd(v.Floats, nulls, op, c.Float(), sel, out)
	case datum.KindString:
		if v.Dict != nil {
			return selDictConst(v, op, c.Str(), sel, out)
		}
		return selOrd(v.Strs, nulls, op, c.Str(), sel, out)
	case datum.KindBool:
		var ci int64
		if c.Bool() {
			ci = 1
		}
		return selOrd(v.Ints, nulls, op, ci, sel, out)
	}
	return out
}

// numericAs turns the number *c into kind k — an INT into a FLOAT, a FLOAT
// into an INT — where that keeps its place in Compare's order against every
// value of kind k, and reports whether it could: an INT within ±2^53 is
// exactly a float, a FLOAT is an INT when it is integral within ±2^53.
func numericAs(c *datum.D, k datum.Kind) bool {
	const exact = 1 << 53
	if k == datum.KindFloat {
		if i := c.Int(); -exact <= i && i <= exact {
			*c = datum.NewFloat(float64(i))
			return true
		}
	} else if f := c.Float(); f == math.Trunc(f) && math.Abs(f) <= exact {
		*c = datum.NewInt(int64(f))
		return true
	}
	return false
}

// selDictConst compares a dictionary-encoded string column against a string
// constant without decoding a single row: the constant translates to code
// space once (a binary search over the sorted dictionary), and because the
// dictionary is sorted, every comparison operator becomes the corresponding
// integer comparison over the codes. Constants absent from the dictionary
// collapse equality to no match — the typical case when a filter's value
// never occurs in a segment — and inequality bounds round to the adjacent
// code interval.
func selDictConst(v *datum.Vec, op logical.CmpOp, c string, sel, out []int32) []int32 {
	bound := v.Dict.CodeFloor(c) // |{entries < c}|: c's own code when present
	found := bound < int64(len(v.Dict.Vals)) && v.Dict.Vals[bound] == c
	switch {
	case !found && op == logical.CmpEq:
		return out
	case !found && op == logical.CmpNe:
		op, bound = logical.CmpGe, 0 // every non-NULL row: codes are >= 0
	case op == logical.CmpLe:
		// value <= c ⇔ code < |{entries <= c}|, value > c ⇔ code >= it.
		op, bound = logical.CmpLt, bound+int64(b2i(found))
	case op == logical.CmpGt:
		op, bound = logical.CmpGe, bound+int64(b2i(found))
	}
	return selOrd(v.Ints, v.Nulls(), op, bound, sel, out)
}

// selColCol selects rows where colA op colB is TRUE.
func selColCol(a, b *datum.Vec, op logical.CmpOp, sel, out []int32) []int32 {
	if ak, bk := a.Kind(), b.Kind(); !a.Boxed() && !b.Boxed() {
		an, bn := a.Nulls(), b.Nulls()
		switch {
		case ak == datum.KindNull || bk == datum.KindNull:
			return out
		case ak.Family() != bk.Family():
			if cmpMatches(op, cmp.Compare(ak.Family(), bk.Family())) {
				for _, i := range sel {
					if !a.Null(int(i)) && !b.Null(int(i)) {
						out = append(out, i)
					}
				}
			}
			return out
		case ak == datum.KindInt && bk == datum.KindFloat:
			return selIntFloat2(a.Ints, b.Floats, an, bn, op, sel, out)
		case ak == datum.KindFloat && bk == datum.KindInt:
			return selIntFloat2(b.Ints, a.Floats, bn, an, op.Commute(), sel, out)
		case a.Dict != b.Dict: // two dictionaries
		case ak == datum.KindFloat:
			return selOrd2(a.Floats, b.Floats, an, bn, op, sel, out)
		case ak == datum.KindString && a.Dict == nil:
			return selOrd2(a.Strs, b.Strs, an, bn, op, sel, out)
		default:
			// INT, BOOL, or codes of one dictionary: the sorted dictionary
			// makes code order string order.
			return selOrd2(a.Ints, b.Ints, an, bn, op, sel, out)
		}
	}
	for _, i := range sel {
		l, r := a.D(int(i)), b.D(int(i))
		if !l.IsNull() && !r.IsNull() && cmpMatches(op, datum.Compare(l, r)) {
			out = append(out, i)
		}
	}
	return out
}

// selOrd is the column-vs-constant selection kernel over an ordered element
// type. A row compares through cmp.Less, which orders floats as
// datum.Compare does (NaN equal to itself and below every number, -0 = +0),
// into a bit of op's mask: every row id is written and the output advances
// by that bit, so no row branches. A column with NULLs also clears the bit
// of its NULL rows.
func selOrd[T int64 | float64 | string](vals []T, nulls datum.Bitmap, op logical.CmpOp, c T, sel, out []int32) []int32 {
	mask, n := cmpMasks[op], 0
	out = slices.Grow(out, len(sel))[:len(sel)]
	if nulls == nil {
		for _, i := range sel {
			v := vals[i]
			out[n] = i
			n += int(mask>>(uint(1+b2i(cmp.Less(c, v))-b2i(cmp.Less(v, c)))&63)) & 1
		}
		return out[:n]
	}
	for _, i := range sel {
		v := vals[i]
		out[n] = i
		n += int(mask>>(uint(1+b2i(cmp.Less(c, v))-b2i(cmp.Less(v, c)))&63)) & 1 &^ b2i(nulls.Get(int(i)))
	}
	return out[:n]
}

// selIntFloatConst selects rows where the numeric column v op the constant c
// of the other numeric kind is TRUE, over the payloads, compared exactly
// (datum.CompareIntFloat): an INT column against a FLOAT constant, or a FLOAT
// column against an INT constant past ±2^53, commuted.
func selIntFloatConst(v *datum.Vec, op logical.CmpOp, c datum.D, sel, out []int32) []int32 {
	nulls := v.Nulls()
	if v.Kind() == datum.KindInt {
		cf := c.Float()
		for _, i := range sel {
			if !nulls.Get(int(i)) && cmpMatches(op, datum.CompareIntFloat(v.Ints[i], cf)) {
				out = append(out, i)
			}
		}
		return out
	}
	ci, op := c.Int(), op.Commute()
	for _, i := range sel {
		if !nulls.Get(int(i)) && cmpMatches(op, datum.CompareIntFloat(ci, v.Floats[i])) {
			out = append(out, i)
		}
	}
	return out
}

// selIntFloat2 selects rows where INT column a op FLOAT column b is TRUE.
func selIntFloat2(a []int64, b []float64, an, bn datum.Bitmap, op logical.CmpOp, sel, out []int32) []int32 {
	for _, i := range sel {
		if !an.Get(int(i)) && !bn.Get(int(i)) && cmpMatches(op, datum.CompareIntFloat(a[i], b[i])) {
			out = append(out, i)
		}
	}
	return out
}

// selOrd2 is the column-vs-column selection kernel.
func selOrd2[T int64 | float64 | string](a, b []T, an, bn datum.Bitmap, op logical.CmpOp, sel, out []int32) []int32 {
	for _, i := range sel {
		if an.Get(int(i)) || bn.Get(int(i)) {
			continue
		}
		var c int
		switch l, r := a[i], b[i]; {
		case l < r:
			c = -1
		case r < l:
			c = 1
		case l != r: // a NaN, equal only to a NaN and below every number
			c = cmp.Compare(l, r)
		}
		if cmpMatches(op, c) {
			out = append(out, i)
		}
	}
	return out
}

// --- aggregate accumulate kernels ---

// vecAccumulator is one aggregate's state over all groups. accumulate is
// called once per batch (one interface dispatch per batch, not per row); the
// inner loops are typed. gids maps each selected row to its group id.
type vecAccumulator interface {
	// ensure makes room for groups [0, nGroups); called once per morsel, after
	// the morsel's new groups are known. capHint is the group count the caller
	// expects in the end: an array that has to grow is allocated for exactly
	// that many while the expectation holds, so a well-estimated aggregation
	// allocates its state once and a fold reserves the merged count.
	ensure(nGroups, capHint int)
	accumulate(v *datum.Vec, sel []int32, gids []int32)
	// merge folds another worker's accumulator of the same concrete type into
	// this one at the pipeline barrier: o's group g lands in group gids[g],
	// which ensure has already made room for. Sums merge exactly
	// (exactSums.merge), so the folded result is the exact serial one.
	merge(o vecAccumulator, gids []int32)
	// emit returns the results of groups [0, nGroups) as the output column,
	// handing the state arrays over where they already are the payload; the
	// accumulator must not be used afterwards.
	emit(nGroups int) *datum.Vec
}

// growTo extends s with zero values to length n. When the backing array is
// too short the new one holds capHint elements while that still covers n —
// the caller's size is exact (the fold) or an estimate that holds so far —
// and otherwise twice the old capacity, so growth past a wrong estimate costs
// a bounded multiple of the final size. It relies on s's spare capacity
// being zero, which holds for a slice that is only ever extended (by growTo
// or append), never truncated and regrown.
func growTo[T any](s []T, n, capHint int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		if capHint < n {
			capHint = max(n, 2*cap(s))
		}
		grown := make([]T, len(s), capHint)
		copy(grown, s)
		s = grown
	}
	return s[:n]
}

// nullsWhere returns the NULL bitmap and count of the groups [0, n) that saw
// no value: seen holds false, or a zero count, for them.
func nullsWhere[T comparable](seen []T, n int) (datum.Bitmap, int) {
	var nulls datum.Bitmap
	var none T
	nn := 0
	for g, v := range seen[:n] {
		if v == none {
			if nulls == nil {
				nulls = datum.NewBitmap(n)
			}
			nulls.Set(g)
			nn++
		}
	}
	return nulls, nn
}

// newVecAccumulator picks the typed accumulator for a non-DISTINCT aggregate
// given the argument vector's runtime representation (nil arg means
// COUNT(*)). Boxed arguments and kinds the aggregate's typed loops do not
// cover — an all-NULL column among them — accumulate through the row
// accumulators (boxedVecAcc).
func newVecAccumulator(item logical.AggItem, arg *datum.Vec) vecAccumulator {
	if item.Arg == nil {
		return &countVecAcc{star: true}
	}
	if arg.Boxed() {
		// Mixed-kind columns replay the row accumulators value-wise; the
		// per-row cost only arises for data that defeated the typed fill.
		return &boxedVecAcc{item: item}
	}
	k := arg.Kind()
	switch item.Fn {
	case logical.AggCount:
		return &countVecAcc{}
	case logical.AggSum:
		switch k {
		case datum.KindInt:
			return &sumIntVecAcc{}
		case datum.KindFloat:
			return &sumFloatVecAcc{}
		}
	case logical.AggAvg:
		switch k {
		case datum.KindInt, datum.KindFloat:
			return &avgVecAcc{}
		}
	case logical.AggMin, logical.AggMax:
		min := item.Fn == logical.AggMin
		switch k {
		case datum.KindInt, datum.KindBool:
			return &minmaxVecAcc[int64]{min: min, kind: k}
		case datum.KindFloat:
			return &minmaxVecAcc[float64]{min: min, kind: k}
		case datum.KindString:
			return &minmaxVecAcc[string]{min: min, kind: k}
		}
	}
	// Combinations without a typed kernel (SUM over a string column, ...)
	// replay the row accumulators so semantics stay identical.
	return &boxedVecAcc{item: item}
}

// countVecAcc implements COUNT(*) and COUNT(col).
type countVecAcc struct {
	star bool
	n    []int64
}

func (a *countVecAcc) ensure(n, hint int) { a.n = growTo(a.n, n, hint) }

func (a *countVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	if a.star {
		for k := range sel {
			a.n[gids[k]]++
		}
		return
	}
	for k, i := range sel {
		if !v.Null(int(i)) {
			a.n[gids[k]]++
		}
	}
}

func (a *countVecAcc) merge(o vecAccumulator, gids []int32) {
	for g, n := range o.(*countVecAcc).n {
		a.n[gids[g]] += n
	}
}

func (a *countVecAcc) emit(n int) *datum.Vec {
	return datum.NewTypedVec(datum.KindInt, n, a.n[:n], nil, nil, nil, 0)
}

// sumIntVecAcc sums an INT column exactly in int64 (a typed vector cannot
// contain floats, so sumAcc's float promotion can never trigger).
type sumIntVecAcc struct {
	any  []bool
	sums []int64
}

func (a *sumIntVecAcc) ensure(n, hint int) {
	a.any, a.sums = growTo(a.any, n, hint), growTo(a.sums, n, hint)
}

func (a *sumIntVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	nulls := v.Nulls()
	for k, i := range sel {
		if nulls.Get(int(i)) {
			continue
		}
		g := gids[k]
		a.any[g] = true
		a.sums[g] += v.Ints[i]
	}
}

func (a *sumIntVecAcc) merge(o vecAccumulator, gids []int32) {
	b := o.(*sumIntVecAcc)
	for g, ok := range b.any {
		if ok {
			a.any[gids[g]] = true
			a.sums[gids[g]] += b.sums[g]
		}
	}
}

func (a *sumIntVecAcc) emit(n int) *datum.Vec {
	nulls, nn := nullsWhere(a.any, n)
	return datum.NewTypedVec(datum.KindInt, n, a.sums[:n], nil, nil, nulls, nn)
}

// sumFloatVecAcc sums a FLOAT column with the same exact sum as the row
// accumulator sumAcc — including the initial 0.0 carried in by its
// int→float promotion — so results are bit-identical.
type sumFloatVecAcc struct {
	any  []bool
	sums exactSums
}

func (a *sumFloatVecAcc) ensure(n, hint int) {
	a.any = growTo(a.any, n, hint)
	a.sums.ensure(n, hint)
}

func (a *sumFloatVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	nulls := v.Nulls()
	for k, i := range sel {
		if nulls.Get(int(i)) {
			continue
		}
		g := gids[k]
		if !a.any[g] {
			a.any[g] = true
			a.sums.add(g, 0)
		}
		a.sums.add(g, v.Floats[i])
	}
}

func (a *sumFloatVecAcc) merge(o vecAccumulator, gids []int32) {
	b := o.(*sumFloatVecAcc)
	for g, ok := range b.any {
		if ok {
			a.any[gids[g]] = true
			a.sums.merge(gids[g], &b.sums, int32(g))
		}
	}
}

func (a *sumFloatVecAcc) emit(n int) *datum.Vec {
	nulls, nn := nullsWhere(a.any, n)
	vals := make([]float64, n)
	for g := range vals {
		if a.any[g] {
			vals[g] = a.sums.value(int32(g))
		}
	}
	return datum.NewTypedVec(datum.KindFloat, n, nil, vals, nil, nulls, nn)
}

// avgVecAcc mirrors avgAcc: exact order-independent sum, one division at
// result time.
type avgVecAcc struct {
	n    []int64
	sums exactSums
}

func (a *avgVecAcc) ensure(n, hint int) {
	a.n = growTo(a.n, n, hint)
	a.sums.ensure(n, hint)
}

func (a *avgVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	if v.Kind() == datum.KindInt {
		addAvg(a, payload[int64](v), v.Nulls(), sel, gids)
	} else {
		addAvg(a, payload[float64](v), v.Nulls(), sel, gids)
	}
}

func addAvg[T int64 | float64](a *avgVecAcc, xs []T, nulls datum.Bitmap, sel []int32, gids []int32) {
	for k, i := range sel {
		if !nulls.Get(int(i)) {
			a.n[gids[k]]++
			a.sums.add(gids[k], float64(xs[i]))
		}
	}
}

func (a *avgVecAcc) merge(o vecAccumulator, gids []int32) {
	b := o.(*avgVecAcc)
	for g, n := range b.n {
		a.n[gids[g]] += n
		a.sums.merge(gids[g], &b.sums, int32(g))
	}
}

func (a *avgVecAcc) emit(n int) *datum.Vec {
	nulls, nn := nullsWhere(a.n, n)
	vals := make([]float64, n)
	for g := range vals {
		if a.n[g] != 0 {
			vals[g] = a.sums.value(int32(g)) / float64(a.n[g])
		}
	}
	return datum.NewTypedVec(datum.KindFloat, n, nil, vals, nil, nulls, nn)
}

// minmaxVecAcc tracks MIN/MAX over INT (or BOOL, stored 0/1), FLOAT or
// VARCHAR columns. A group's value is replaced on a strict cmp.Less only,
// which orders floats as datum.Compare does, so of equal values (-0 and +0)
// the first stays, as in the row accumulator. A dictionary column's
// candidates are read through the dictionary: the per-group best stays a
// string, so batches carrying different dictionaries still fold into one
// answer.
type minmaxVecAcc[T int64 | float64 | string] struct {
	min  bool
	kind datum.Kind
	any  []bool
	vals []T
}

func (a *minmaxVecAcc[T]) ensure(n, hint int) {
	a.any, a.vals = growTo(a.any, n, hint), growTo(a.vals, n, hint)
}

func (a *minmaxVecAcc[T]) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	nulls, xs, codes := v.Nulls(), payload[T](v), []int64(nil)
	if v.Dict != nil {
		xs, codes = any(v.Dict.Vals).([]T), v.Ints
	}
	for k, i := range sel {
		if nulls.Get(int(i)) {
			continue
		}
		j := int64(i)
		if codes != nil {
			j = codes[i]
		}
		g, x := gids[k], xs[j]
		if !a.any[g] {
			a.any[g], a.vals[g] = true, x
		} else if (a.min && cmp.Less(x, a.vals[g])) || (!a.min && cmp.Less(a.vals[g], x)) {
			a.vals[g] = x
		}
	}
}

func (a *minmaxVecAcc[T]) merge(o vecAccumulator, gids []int32) {
	b := o.(*minmaxVecAcc[T])
	for g, ok := range b.any {
		if d, x := gids[g], b.vals[g]; ok && (!a.any[d] || (a.min && cmp.Less(x, a.vals[d])) || (!a.min && cmp.Less(a.vals[d], x))) {
			a.any[d], a.vals[d] = true, x
		}
	}
}

func (a *minmaxVecAcc[T]) emit(n int) *datum.Vec {
	nulls, nn := nullsWhere(a.any, n)
	switch vals := any(a.vals[:n]).(type) {
	case []float64:
		return datum.NewTypedVec(a.kind, n, nil, vals, nil, nulls, nn)
	case []string:
		return datum.NewTypedVec(a.kind, n, nil, nil, vals, nulls, nn)
	}
	return datum.NewTypedVec(a.kind, n, any(a.vals[:n]).([]int64), nil, nil, nulls, nn)
}

// payload is v's typed payload: its INT (or BOOL), FLOAT or plain string
// values.
func payload[T int64 | float64 | string](v *datum.Vec) []T {
	if xs, ok := any(v.Floats).([]T); ok {
		return xs
	}
	if xs, ok := any(v.Strs).([]T); ok {
		return xs
	}
	return any(v.Ints).([]T)
}

// boxedVecAcc replays the row accumulators (agg.go) per value: the
// accumulator of DISTINCT and expression arguments, of mixed-kind (boxed)
// argument columns, and of every aggregate when kernels are off — not a fast
// path. COUNT(*)'s missing argument column reads as NULL, which it counts.
type boxedVecAcc struct {
	item logical.AggItem
	accs []aggAcc
}

func (a *boxedVecAcc) ensure(n, _ int) {
	for len(a.accs) < n {
		a.accs = append(a.accs, newAgg(a.item))
	}
}

func (a *boxedVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	for k, i := range sel {
		d := datum.Null
		if v != nil {
			d = v.D(int(i))
		}
		a.accs[gids[k]].add(d)
	}
}

func (a *boxedVecAcc) merge(o vecAccumulator, gids []int32) {
	for g, acc := range o.(*boxedVecAcc).accs {
		a.accs[gids[g]].merge(acc)
	}
}

func (a *boxedVecAcc) emit(n int) *datum.Vec {
	ds := make([]datum.D, n)
	for g := range ds {
		ds[g] = a.accs[g].result()
	}
	return datum.NewBoxedVec(ds)
}
