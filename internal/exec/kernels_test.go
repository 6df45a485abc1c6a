package exec

// kernels_test.go checks every typed kernel against a row-at-a-time reference
// built from datum.Compare / the row engine's aggregate accumulators, with the
// NULL-bitmap edge cases the batch path must survive: all-NULL columns,
// alternating NULLs, empty selection vectors, and boxed (mixed-kind) vectors.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datum"
	"repro/internal/logical"
)

// mkVec builds a vector by appending datums; AppendD retypes an all-NULL
// vector on its first value and upgrades to boxed on a kind mismatch, exactly
// like storage fills do.
func mkVec(ds ...datum.D) *datum.Vec {
	v := datum.NewVec(datum.KindNull, len(ds))
	for _, d := range ds {
		v.AppendD(d)
	}
	return v
}

// identSel returns the identity selection vector [0, n).
func identSel(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// mkBoxed forces the boxed representation.
func mkBoxed(ds ...datum.D) *datum.Vec {
	v := datum.NewAnyVec(len(ds))
	for _, d := range ds {
		v.AppendD(d)
	}
	return v
}

// nullPattern applies a NULL pattern to a dense value list: "dense" keeps all
// values, "allnull" blanks every row, "alternate" blanks odd rows.
func nullPattern(pattern string, ds []datum.D) []datum.D {
	out := append([]datum.D(nil), ds...)
	for i := range out {
		switch pattern {
		case "allnull":
			out[i] = datum.Null
		case "alternate":
			if i%2 == 1 {
				out[i] = datum.Null
			}
		}
	}
	return out
}

func intCol(n int) []datum.D {
	ds := make([]datum.D, n)
	for i := range ds {
		ds[i] = datum.NewInt(int64(i % 17))
	}
	return ds
}

func floatCol(n int) []datum.D {
	ds := make([]datum.D, n)
	for i := range ds {
		ds[i] = datum.NewFloat(float64(i%13) + 0.25)
	}
	return ds
}

// edgeInts and edgeFloats hold the values where an INT/FLOAT comparison is
// not a float comparison: INTs past 2^53 that round to a FLOAT they are not
// equal to, NaN, both zeros and FLOATs past the INT range.
var (
	edgeInts   = []int64{0, -1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, 5}
	edgeFloats = []float64{math.NaN(), math.Copysign(0, -1), 1 << 53, -(1 << 53), 1 << 63, -(1 << 63), math.Inf(1), 5.5}
)

// edgeCol cycles through edgeInts row by row, or through edgeFloats every
// len(edgeInts) rows, so that an INT and a FLOAT edge column side by side
// pair every INT with every FLOAT.
func edgeCol(n int, float bool) []datum.D {
	ds := make([]datum.D, n)
	for i := range ds {
		if float {
			ds[i] = datum.NewFloat(edgeFloats[i/len(edgeInts)%len(edgeFloats)])
		} else {
			ds[i] = datum.NewInt(edgeInts[i%len(edgeInts)])
		}
	}
	return ds
}

func strCol(n int) []datum.D {
	words := []string{"ant", "bee", "cat", "dog", "elk"}
	ds := make([]datum.D, n)
	for i := range ds {
		ds[i] = datum.NewString(words[i%len(words)])
	}
	return ds
}

var allCmpOps = []logical.CmpOp{
	logical.CmpEq, logical.CmpNe, logical.CmpLt,
	logical.CmpLe, logical.CmpGt, logical.CmpGe,
}

// refSelConst is the row-engine truth for col op const: NULL operands are
// never TRUE, everything else goes through datum.Compare.
func refSelConst(v *datum.Vec, op logical.CmpOp, c datum.D, sel []int32) []int32 {
	out := []int32{}
	for _, i := range sel {
		l := v.D(int(i))
		if l.IsNull() || c.IsNull() {
			continue
		}
		if cmpMatches(op, datum.Compare(l, c)) {
			out = append(out, i)
		}
	}
	return out
}

func refSelCol(a, b *datum.Vec, op logical.CmpOp, sel []int32) []int32 {
	out := []int32{}
	for _, i := range sel {
		l, r := a.D(int(i)), b.D(int(i))
		if l.IsNull() || r.IsNull() {
			continue
		}
		if cmpMatches(op, datum.Compare(l, r)) {
			out = append(out, i)
		}
	}
	return out
}

func selEqual(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d survivors, reference has %d\ngot %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: survivor %d = row %d, reference row %d", label, i, got[i], want[i])
		}
	}
}

func TestFilterKernelSelColConst(t *testing.T) {
	const n = 129 // crosses a bitmap word boundary
	sel := identSel(n)
	consts := []datum.D{
		datum.NewInt(5), datum.NewFloat(5.5), datum.NewFloat(5),
		datum.NewString("cat"), datum.NewBool(true),
	}
	for _, f := range edgeFloats {
		consts = append(consts, datum.NewFloat(f))
	}
	for _, i := range edgeInts {
		consts = append(consts, datum.NewInt(i))
	}
	cols := map[string][]datum.D{"int": intCol(n), "float": floatCol(n), "str": strCol(n),
		"int-edge": edgeCol(n, false), "float-edge": edgeCol(n, true)}
	for colName, dense := range cols {
		for _, pattern := range []string{"dense", "allnull", "alternate"} {
			ds := nullPattern(pattern, dense)
			for _, vec := range []*datum.Vec{mkVec(ds...), mkBoxed(ds...)} {
				repr := "typed"
				if vec.Boxed() {
					repr = "boxed"
				}
				for _, op := range allCmpOps {
					for _, c := range consts {
						label := fmt.Sprintf("%s/%s/%s op=%v const=%s", colName, pattern, repr, op, c)
						got := selColConst(vec, op, c, sel, nil)
						selEqual(t, label, got, refSelConst(vec, op, c, sel))
						// An empty selection vector stays empty.
						if out := selColConst(vec, op, c, nil, nil); len(out) != 0 {
							t.Fatalf("%s: empty sel produced %v", label, out)
						}
					}
				}
			}
		}
	}
}

// TestFilterKernelFloatColumnIntConst compares FLOAT columns, with and
// without NULLs, against INT constants no float64 holds — 2^53 ± 1 and
// beyond, ±MaxInt64, MinInt64 — which selColConst compares on its typed loop,
// commuted, and checks every survivor against datum.Compare.
func TestFilterKernelFloatColumnIntConst(t *testing.T) {
	const two53 = 1 << 53
	floats := []float64{two53 - 1, two53, two53 + 2, -two53, -(two53 + 2), 1 << 62, 1 << 63, -(1 << 63),
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 0.5}
	consts := []int64{two53 - 1, two53 + 1, -(two53 + 1), two53 + 3, 1<<62 + 1, math.MaxInt64, -math.MaxInt64, math.MinInt64}
	holds := map[logical.CmpOp]func(c int) bool{
		logical.CmpEq: func(c int) bool { return c == 0 }, logical.CmpNe: func(c int) bool { return c != 0 },
		logical.CmpLt: func(c int) bool { return c < 0 }, logical.CmpLe: func(c int) bool { return c <= 0 },
		logical.CmpGt: func(c int) bool { return c > 0 }, logical.CmpGe: func(c int) bool { return c >= 0 },
	}
	for _, withNull := range []bool{false, true} {
		ds := make([]datum.D, 0, len(floats)+1)
		for _, f := range floats {
			ds = append(ds, datum.NewFloat(f))
		}
		if withNull {
			ds = append(ds, datum.Null)
		}
		v, sel := mkVec(ds...), identSel(len(ds))
		if v.Boxed() || v.Kind() != datum.KindFloat {
			t.Fatal("fixture: want a typed FLOAT column")
		}
		for _, op := range allCmpOps {
			for _, c := range consts {
				want := []int32{}
				for i, d := range ds {
					if !d.IsNull() && holds[op](datum.Compare(d, datum.NewInt(c))) {
						want = append(want, int32(i))
					}
				}
				label := fmt.Sprintf("nulls=%v %v %d", withNull, op, c)
				selEqual(t, label, selColConst(v, op, datum.NewInt(c), sel, nil), want)
			}
		}
	}
}

func TestFilterKernelSelColCol(t *testing.T) {
	const n = 129
	sel := identSel(n)
	// Pairs cover same-kind, INT/FLOAT mixed-family-representation, and
	// cross-family (int vs string) columns, and every pair of edge values.
	rowFloats := make([]datum.D, n)
	for i := range rowFloats {
		rowFloats[i] = datum.NewFloat(edgeFloats[i%len(edgeFloats)])
	}
	pairs := [][2][]datum.D{
		{edgeCol(n, true), rowFloats},
		{intCol(n), intCol(n)},
		{floatCol(n), floatCol(n)},
		{strCol(n), strCol(n)},
		{intCol(n), floatCol(n)},
		{floatCol(n), intCol(n)},
		{intCol(n), strCol(n)},
		{edgeCol(n, false), edgeCol(n, true)},
		{edgeCol(n, true), edgeCol(n, false)},
	}
	for pi, pair := range pairs {
		for _, pa := range []string{"dense", "allnull", "alternate"} {
			for _, pb := range []string{"dense", "alternate"} {
				da, db := nullPattern(pa, pair[0]), nullPattern(pb, pair[1])
				vecs := [][2]*datum.Vec{
					{mkVec(da...), mkVec(db...)},
					{mkBoxed(da...), mkVec(db...)},
				}
				for _, vp := range vecs {
					a, b := vp[0], vp[1]
					for _, op := range allCmpOps {
						label := fmt.Sprintf("pair%d/%s-%s boxed=%v op=%v", pi, pa, pb, a.Boxed(), op)
						got := selColCol(a, b, op, sel, nil)
						selEqual(t, label, got, refSelCol(a, b, op, sel))
						if out := selColCol(a, b, op, nil, nil); len(out) != 0 {
							t.Fatalf("%s: empty sel produced %v", label, out)
						}
					}
				}
			}
		}
	}
}

// TestHashKernelMatchesBoxed: the typed hash loops must produce exactly the
// value datum.HashD produces for the reconstructed datum — that identity is
// what makes the hash tables agree with the row-based spill partitioning.
func TestHashKernelMatchesBoxed(t *testing.T) {
	const n = 129
	sel := identSel(n)
	cols := [][]datum.D{intCol(n), floatCol(n), strCol(n)}
	bools := make([]datum.D, n)
	for i := range bools {
		bools[i] = datum.NewBool(i%3 == 0)
	}
	cols = append(cols, bools)
	for ci, dense := range cols {
		for _, pattern := range []string{"dense", "allnull", "alternate"} {
			ds := nullPattern(pattern, dense)
			vec := mkVec(ds...)
			got := make([]uint64, n)
			datum.HashInit(got)
			vec.HashInto(sel, got)
			for k, i := range sel {
				want := datum.HashD(datum.HashOffset, vec.D(int(i)))
				if got[k] != want {
					t.Fatalf("col %d pattern %s row %d: typed hash %x, boxed %x", ci, pattern, i, got[k], want)
				}
			}
			// Empty selection vector: no accumulator is touched.
			empty := []uint64{}
			vec.HashInto(nil, empty)
		}
	}
	// Values that compare equal hash equal across representations: 1 and 1.0.
	iv, fv := mkVec(datum.NewInt(1)), mkVec(datum.NewFloat(1))
	hi, hf := make([]uint64, 1), make([]uint64, 1)
	datum.HashInit(hi)
	datum.HashInit(hf)
	iv.HashInto(identSel(1), hi)
	fv.HashInto(identSel(1), hf)
	if hi[0] != hf[0] {
		t.Errorf("INT 1 and FLOAT 1.0 hash differently: %x vs %x", hi[0], hf[0])
	}
}

// aggCase is one aggregate function under kernel test.
type aggCase struct {
	name string
	item logical.AggItem
}

func aggCases() []aggCase {
	arg := &logical.Col{ID: 1}
	return []aggCase{
		{"count-star", logical.AggItem{Fn: logical.AggCount}},
		{"count", logical.AggItem{Fn: logical.AggCount, Arg: arg}},
		{"sum", logical.AggItem{Fn: logical.AggSum, Arg: arg}},
		{"avg", logical.AggItem{Fn: logical.AggAvg, Arg: arg}},
		{"min", logical.AggItem{Fn: logical.AggMin, Arg: arg}},
		{"max", logical.AggItem{Fn: logical.AggMax, Arg: arg}},
	}
}

// TestVecAccumulatorsMatchRowAccumulators drives every typed accumulator and
// the row engine's aggAcc over the same values/NULL pattern/group assignment
// and requires bit-identical results (compared by exact String form).
func TestVecAccumulatorsMatchRowAccumulators(t *testing.T) {
	const n, nGroups = 129, 7
	sel := identSel(n)
	gids := make([]int32, n)
	for i := range gids {
		gids[i] = int32(i % nGroups)
	}
	cols := map[string][]datum.D{"int": intCol(n), "float": floatCol(n), "str": strCol(n)}
	for colName, dense := range cols {
		for _, pattern := range []string{"dense", "allnull", "alternate"} {
			ds := nullPattern(pattern, dense)
			for _, vec := range []*datum.Vec{mkVec(ds...), mkBoxed(ds...)} {
				repr := "typed"
				if vec.Boxed() {
					repr = "boxed"
				}
				for _, tc := range aggCases() {
					if colName == "str" && (tc.name == "sum" || tc.name == "avg") {
						continue // SUM/AVG over strings is rejected upstream
					}
					label := fmt.Sprintf("%s/%s/%s/%s", tc.name, colName, pattern, repr)
					acc := newVecAccumulator(tc.item, vec)
					if acc == nil {
						t.Fatalf("%s: no accumulator", label)
					}
					acc.ensure(nGroups, 0)
					acc.accumulate(vec, sel, gids)
					ref := make([]aggAcc, nGroups)
					for g := range ref {
						ref[g] = newAgg(tc.item)
					}
					for k, i := range sel {
						ref[gids[k]].add(vec.D(int(i)))
					}
					for g := 0; g < nGroups; g++ {
						got, want := acc.emit(nGroups).D(g), ref[g].result()
						if got.String() != want.String() {
							t.Fatalf("%s group %d: kernel %s, row engine %s", label, g, got, want)
						}
					}
					// Two workers' partials folded at the barrier: the rows
					// split at an odd position, the second worker numbering
					// its groups in reverse, merged into the first.
					left, right := newVecAccumulator(tc.item, vec), newVecAccumulator(tc.item, vec)
					left.ensure(nGroups, 0)
					right.ensure(nGroups, 0)
					const cut = 50
					rgids, remap := make([]int32, n-cut), make([]int32, nGroups)
					for k := range rgids {
						rgids[k] = nGroups - 1 - gids[cut+k]
					}
					for g := range remap {
						remap[g] = int32(nGroups - 1 - g)
					}
					left.accumulate(vec, sel[:cut], gids[:cut])
					right.accumulate(vec, sel[cut:], rgids)
					left.merge(right, remap)
					for g := 0; g < nGroups; g++ {
						if got, want := left.emit(nGroups).D(g), ref[g].result(); got.String() != want.String() {
							t.Fatalf("%s group %d: merged kernel partials %s, row engine %s", label, g, got, want)
						}
					}
					// Empty selection vector: every group stays at its
					// initial state (NULL, or 0 for COUNT).
					fresh := newVecAccumulator(tc.item, vec)
					fresh.ensure(nGroups, 0)
					fresh.accumulate(vec, nil, nil)
					for g := 0; g < nGroups; g++ {
						if got, want := fresh.emit(nGroups).D(g), newAgg(tc.item).result(); got.String() != want.String() {
							t.Fatalf("%s group %d after empty sel: kernel %s, fresh row acc %s", label, g, got, want)
						}
					}
				}
			}
		}
	}
}

// --- kernel benchmarks ---

func benchIntVec(n int) *datum.Vec {
	v := datum.NewVec(datum.KindInt, n)
	for i := 0; i < n; i++ {
		v.AppendD(datum.NewInt(int64(i % 1024)))
	}
	return v
}

// BenchmarkKernelFilter times column-vs-constant and column-vs-column
// selection over an INT column of 0..1023, against an INT constant, a
// non-integral FLOAT constant and a FLOAT column (INT/FLOAT compare exactly),
// and a 1-in-8 equality on a column of random values 0..7, as INTs and as
// dictionary codes — the shape of a filter on a low-cardinality string.
func BenchmarkKernelFilter(b *testing.B) {
	const n = 65536
	v := benchIntVec(n)
	f := datum.NewVec(datum.KindFloat, n)
	for i := 0; i < n; i++ {
		f.AppendD(datum.NewFloat(511.5))
	}
	rng := rand.New(rand.NewSource(8))
	eighths, codes := datum.NewVec(datum.KindInt, n), make([]int64, n)
	for i := range codes {
		codes[i] = int64(rng.Intn(8))
		eighths.AppendD(datum.NewInt(codes[i]))
	}
	dict := dictVec(b, codes, &datum.StrDict{Vals: []string{"apac", "central", "east", "emea", "latam", "north", "south", "west"}}, nil)
	wantEq := 0
	for _, c := range codes {
		if c == 2 {
			wantEq++
		}
	}
	sel := identSel(n)
	out := make([]int32, 0, n)
	for _, bc := range []struct {
		name string
		want int
		run  func() []int32
	}{
		{"int_const", n / 2, func() []int32 { return selColConst(v, logical.CmpLt, datum.NewInt(512), sel, out[:0]) }},
		{"int_float_const", n / 2, func() []int32 { return selColConst(v, logical.CmpLt, datum.NewFloat(511.5), sel, out[:0]) }},
		{"int_float_col", n / 2, func() []int32 { return selColCol(v, f, logical.CmpLt, sel, out[:0]) }},
		{"int_eq_random", wantEq, func() []int32 { return selColConst(eighths, logical.CmpEq, datum.NewInt(2), sel, out[:0]) }},
		{"dict_eq_random", wantEq, func() []int32 { return selColConst(dict, logical.CmpEq, datum.NewString("east"), sel, out[:0]) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				out = bc.run()
			}
			if len(out) != bc.want {
				b.Fatalf("selectivity drifted: %d of %d, want %d", len(out), n, bc.want)
			}
		})
	}
}

func BenchmarkKernelHash(b *testing.B) {
	const n = 65536
	v := benchIntVec(n)
	sel := identSel(n)
	h := make([]uint64, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		datum.HashInit(h)
		v.HashInto(sel, h)
	}
}

func BenchmarkKernelVectorizedAgg(b *testing.B) {
	const n, nGroups = 65536, 64
	v := datum.NewVec(datum.KindFloat, n)
	for i := 0; i < n; i++ {
		v.AppendD(datum.NewFloat(float64(i%997) + 0.5))
	}
	sel := identSel(n)
	gids := make([]int32, n)
	for i := range gids {
		gids[i] = int32(i % nGroups)
	}
	item := logical.AggItem{Fn: logical.AggSum, Arg: &logical.Col{ID: 1}}
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := newVecAccumulator(item, v)
		acc.ensure(nGroups, 0)
		acc.accumulate(v, sel, gids)
	}
}
