package datum

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindBool:   "BOOLEAN",
		KindInt:    "INTEGER",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int() = %d", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float() = %v", got)
	}
	if got := NewInt(3).Float(); got != 3.0 {
		t.Errorf("int widened Float() = %v", got)
	}
	if got := NewString("x").Str(); got != "x" {
		t.Errorf("Str() = %q", got)
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool() broken")
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull() broken")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("a").Int() })
	mustPanic("Float on bool", func() { NewBool(true).Float() })
	mustPanic("Str on int", func() { NewInt(1).Str() })
	mustPanic("Bool on null", func() { Null.Bool() })
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b D
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(1), NewFloat(1.0), 0},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(3), NewFloat(2.5), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("a"), 1},
		{NewString("a"), NewString("a"), 0},
		{Null, NewInt(-1 << 60), -1},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewInt(0), -1}, // bool family < numeric family
		{NewInt(1), NewString(""), -1}, // numeric family < string family
		{Null, Null, 0},
		{NewFloat(math.NaN()), NewFloat(1), -1}, // NaN is below every number
		{NewFloat(math.NaN()), NewInt(-1 << 60), -1},
		{NewFloat(math.NaN()), NewFloat(math.NaN()), 0},
		{NewFloat(math.Copysign(0, -1)), NewInt(0), 0},
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 1}, // exact, not through float64
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%s, %s) = %d, want %d (antisymmetry)", c.b, c.a, got, -c.want)
		}
	}
}

func randDatum(r *rand.Rand) D {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return NewBool(r.Intn(2) == 0)
	case 2:
		return NewInt(int64(r.Intn(20) - 10))
	case 3:
		return NewFloat(float64(r.Intn(40))/2 - 10)
	default:
		return NewString(string(rune('a' + r.Intn(5))))
	}
}

// Property: Compare is a total order (transitive via sort consistency) and
// Equal datums hash identically — NaNs of any payload, both zeros, an INT and
// its FLOAT included.
func TestCompareHashProperty(t *testing.T) {
	vals := append(keyOrderValues(), NewFloat(math.Float64frombits(0x7ff0000000000abc)), NewFloat(-math.NaN()), NewFloat(-2.5), NewInt(-3))
	for _, a := range vals {
		for _, b := range vals {
			if Equal(a, b) && a.Hash() != b.Hash() {
				t.Errorf("equal datums with different hashes: %s, %s", a, b)
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		ds := make([]D, 30)
		for i := range ds {
			ds[i] = randDatum(r)
		}
		sort.Slice(ds, func(i, j int) bool { return Compare(ds[i], ds[j]) < 0 })
		for i := 1; i < len(ds); i++ {
			if Compare(ds[i-1], ds[i]) > 0 {
				t.Fatalf("sort not consistent at %d: %s > %s", i, ds[i-1], ds[i])
			}
			if Equal(ds[i-1], ds[i]) && ds[i-1].Hash() != ds[i].Hash() {
				t.Fatalf("equal datums with different hashes: %s, %s", ds[i-1], ds[i])
			}
		}
	}
}

func TestIntFloatHashEqual(t *testing.T) {
	if NewInt(7).Hash() != NewFloat(7).Hash() {
		t.Error("7 and 7.0 must hash equal")
	}
}

func TestCompareReflexiveQuick(t *testing.T) {
	f := func(a int64, b float64, s string) bool {
		for _, d := range []D{NewInt(a), NewFloat(b), NewString(s)} {
			if Compare(d, d) != 0 || !Equal(d, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// String and Append are the one value printer of EXPLAIN text: a cached
// plan's text splices bindings in with Append.
func TestString(t *testing.T) {
	cases := map[string]D{
		"NULL":                Null,
		"true":                NewBool(true),
		"false":               NewBool(false),
		"42":                  NewInt(42),
		"-9007199254740993":   NewInt(-(1<<53 + 1)),
		"2.5":                 NewFloat(2.5),
		"0.30000000000000004": NewFloat(0.30000000000000004),
		"5e-324":              NewFloat(5e-324),
		"1e+21":               NewFloat(1e21),
		"'hi'":                NewString("hi"),
		"'it's'":              NewString("it's"),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if got := string(d.Append([]byte("x"))); got != "x"+want {
			t.Errorf("Append = %q, want %q", got, "x"+want)
		}
	}
}

func TestSize(t *testing.T) {
	if Null.Size() != 1 || NewBool(true).Size() != 1 {
		t.Error("null/bool size")
	}
	if NewInt(1).Size() != 8 || NewFloat(1).Size() != 8 {
		t.Error("numeric size")
	}
	if NewString("abc").Size() != 4 {
		t.Error("string size")
	}
}

func TestRowCloneConcat(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone aliases original")
	}
	cat := r.Concat(Row{NewBool(true)})
	if len(cat) != 3 || !cat[2].Bool() {
		t.Error("Concat wrong")
	}
	if r.Size() != 8+2 {
		t.Errorf("Row.Size = %d", r.Size())
	}
	if got := r.String(); got != "(1, 'a')" {
		t.Errorf("Row.String = %q", got)
	}
}

func TestCompareRows(t *testing.T) {
	a := Row{NewInt(1), NewInt(5)}
	b := Row{NewInt(1), NewInt(3)}
	spec := []SortSpec{{Col: 0}, {Col: 1}}
	if CompareRows(a, b, spec) != 1 {
		t.Error("a should sort after b")
	}
	desc := []SortSpec{{Col: 1, Desc: true}}
	if CompareRows(a, b, desc) != -1 {
		t.Error("desc should invert")
	}
	if CompareRows(a, a, spec) != 0 {
		t.Error("reflexive")
	}
}

// TestSizeAtMatchesDatumSize: SizeAt and DataBytes, which read the modeled
// width off the payload, agree with D.Size of the reconstructed datum in
// every representation — typed with and without NULLs, dictionary, boxed,
// all-NULL.
func TestSizeAtMatchesDatumSize(t *testing.T) {
	typed := func(ds ...D) *Vec {
		v := NewVec(KindNull, len(ds))
		for _, d := range ds {
			v.AppendD(d)
		}
		return v
	}
	vecs := map[string]*Vec{
		"int":    typed(NewInt(1), Null, NewInt(-7)),
		"float":  typed(NewFloat(0.5), NewFloat(-1), Null),
		"bool":   typed(NewBool(true), Null, NewBool(false)),
		"string": typed(NewString(""), NewString("abc"), Null),
		"dict":   dictVec(3, []int64{1, 0, 0}, &StrDict{Vals: []string{"a", "long value"}}, Bitmap{1 << 2}, 1),
		"boxed":  typed(NewInt(1), NewString("xy"), Null),
		"null":   typed(Null, Null, Null),
	}
	for name, v := range vecs {
		var want int64
		for i := 0; i < v.Len(); i++ {
			if got, w := v.SizeAt(i), v.D(i).Size(); got != w {
				t.Errorf("%s row %d: SizeAt %d, D.Size %d", name, i, got, w)
			}
			want += int64(v.D(i).Size())
		}
		if got := v.DataBytes(nil); got != want {
			t.Errorf("%s: DataBytes %d, want %d", name, got, want)
		}
		if got, w := v.DataBytes([]int32{2, 0}), int64(v.D(2).Size()+v.D(0).Size()); got != w {
			t.Errorf("%s: DataBytes over a selection %d, want %d", name, got, w)
		}
	}
	if !vecs["boxed"].Boxed() {
		t.Fatal("the mixed-kind vector is not boxed")
	}
}

// keyOrderValues is every kind of value a sort key can hold, the orders'
// corner cases included: NULL, NaN, both zeros, both infinities, an INT pair
// around 2^53 that one FLOAT equals through float64.
func keyOrderValues() []D {
	return []D{
		Null, NewBool(false), NewBool(true), NewInt(math.MinInt64), NewInt(-3), NewInt(0), NewInt(1), NewInt(1 << 53),
		NewInt(1<<53 + 1), NewInt(math.MaxInt64), NewFloat(math.NaN()), NewFloat(math.Inf(-1)), NewFloat(-2.5),
		NewFloat(math.Copysign(0, -1)), NewFloat(0), NewFloat(1), NewFloat(1 << 53), NewFloat(1e19), NewFloat(math.Inf(1)),
		NewString(""), NewString("a"), NewString("b"),
	}
}

// TestCompareKeysIsTotalOrder: Compare is antisymmetric and transitive over
// every pair and triple of key values — NaN and 2^53 = 2^53.0 = 2^53+1
// through float64 are where a comparison through float64 is not — and puts
// NULL first, NaN below every other number, -0 beside +0, and the exact
// numeric order on an INT/FLOAT pair.
func TestCompareKeysIsTotalOrder(t *testing.T) {
	vals := keyOrderValues()
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Fatalf("Compare(%v, %v) = %d, reversed %d", a, b, Compare(a, b), Compare(b, a))
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("not transitive: %v <= %v <= %v, yet %v > %v", a, b, c, a, c)
				}
			}
		}
	}
	for _, tc := range []struct {
		a, b D
		want int
	}{
		{Null, NewFloat(math.NaN()), -1},
		{NewFloat(math.NaN()), NewFloat(math.Inf(-1)), -1},
		{NewFloat(math.NaN()), NewInt(math.MinInt64), -1},
		{NewFloat(math.NaN()), NewFloat(math.NaN()), 0},
		{NewFloat(math.Copysign(0, -1)), NewFloat(0), 0},
		{NewFloat(math.Copysign(0, -1)), NewInt(0), 0},
		{NewInt(1 << 53), NewFloat(1 << 53), 0},
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 1},
		{NewInt(math.MaxInt64), NewFloat(1 << 63), -1},
		{NewFloat(math.Inf(1)), NewString(""), -1},
	} {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestKeyOrderMatchesCompareKeys: KeyOrders compares every pair of rows of
// every pair of representations — typed, NULL-bearing, dictionary-coded
// (one dictionary and two), boxed, all-NULL — as Compare does their datums,
// and reverses it when descending, and so does KeyOrder.Func.
func TestKeyOrderMatchesCompareKeys(t *testing.T) {
	fromDs := func(ds ...D) *Vec {
		v := NewVec(KindNull, len(ds))
		for _, d := range ds {
			v.AppendD(d)
		}
		return v
	}
	nan, negZero := NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1))
	dict := &StrDict{Vals: []string{"", "a", "b"}}
	other := &StrDict{Vals: []string{"a", "c"}}
	vecs := map[string]*Vec{
		"ints":        fromDs(NewInt(3), NewInt(-1), NewInt(1<<53+1), NewInt(3)),
		"int-nulls":   fromDs(NewInt(3), Null, NewInt(-1), Null),
		"floats":      fromDs(nan, negZero, NewFloat(0), NewFloat(math.Inf(-1))),
		"float-nulls": fromDs(Null, NewFloat(2.5), nan, NewFloat(1<<53)),
		"strs":        fromDs(NewString("b"), NewString(""), Null, NewString("a")),
		"dict":        dictVec(4, []int64{2, 0, 1, 0}, dict, Bitmap{1 << 3}, 1),
		"dict-same":   dictVec(3, []int64{1, 2, 0}, dict, nil, 0),
		"dict-other":  dictVec(3, []int64{1, 0, 1}, other, nil, 0),
		"bools":       fromDs(NewBool(true), NewBool(false), Null),
		"boxed":       fromDs(NewInt(1<<53), NewFloat(1<<53), nan, NewString("a"), Null),
		"all-null":    fromDs(Null, Null),
	}
	for an, a := range vecs {
		for bn, b := range vecs {
			for _, desc := range []bool{false, true} {
				k := NewKeyOrder(a, b, desc)
				for i := 0; i < a.Len(); i++ {
					for j := 0; j < b.Len(); j++ {
						want := Compare(a.D(i), b.D(j))
						if desc {
							want = -want
						}
						if got := (KeyOrders{k}).Compare(i, j); got != want {
							t.Errorf("%s[%d] vs %s[%d] desc=%v: KeyOrders.Compare %d, Compare %d", an, i, bn, j, desc, got, want)
						}
						if got := k.Func()(i, j); got != want {
							t.Errorf("%s[%d] vs %s[%d] desc=%v: Func %d, Compare %d", an, i, bn, j, desc, got, want)
						}
					}
				}
			}
		}
	}
}

// dictVec assembles a dictionary-encoded string vector from its parts: codes
// index dict.Vals, and NULL rows hold code 0 and are marked in nulls.
func dictVec(n int, codes []int64, dict *StrDict, nulls Bitmap, numNulls int) *Vec {
	return &Vec{kind: KindString, n: n, Ints: codes, Dict: dict, nulls: nulls, numNulls: numNulls}
}

// TestKeyHashSpreadsSmallIntKeys: the 1000 three-column keys (a, b, c) over
// 0..9 get 1000 distinct finalized key hashes. Folding the raw float64 bits
// of such small INTs into the FNV product, whose multiply carries a bit only
// upward, left 976.
func TestKeyHashSpreadsSmallIntKeys(t *testing.T) {
	cols := make([][]int64, 3)
	for k := 0; k < 1000; k++ {
		cols[0], cols[1], cols[2] = append(cols[0], int64(k%10)), append(cols[1], int64(k/10%10)), append(cols[2], int64(k/100))
	}
	sel := make([]int32, 1000)
	for i := range sel {
		sel[i] = int32(i)
	}
	h := make([]uint64, 1000)
	HashInit(h)
	for _, c := range cols {
		NewTypedVec(KindInt, 1000, c, nil, nil, nil, 0).HashInto(sel, h)
	}
	seen := map[uint64]bool{}
	for _, x := range h {
		seen[MixHash(x)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("%d distinct hashes for 1000 keys", len(seen))
	}
}
