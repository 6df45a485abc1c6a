package datum

import (
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
// Equal datums hash identically.
func TestCompareHashProperty(t *testing.T) {
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

func TestString(t *testing.T) {
	cases := map[string]D{
		"NULL":  Null,
		"true":  NewBool(true),
		"false": NewBool(false),
		"42":    NewInt(42),
		"2.5":   NewFloat(2.5),
		"'hi'":  NewString("hi"),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
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

func TestRowHash(t *testing.T) {
	a := Row{NewInt(1), NewString("x"), Null}
	b := Row{NewString("x"), NewInt(1), Null}
	if a.Hash([]int{0, 1, 2}) != b.Hash([]int{1, 0, 2}) {
		t.Error("hash should agree on equal column sequences (NULL = NULL)")
	}
	if a.Hash([]int{0}) == b.Hash([]int{0}) {
		t.Error("1 vs 'x' should hash apart")
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
		"dict":   NewDictVec(3, []int64{1, 0, 0}, &StrDict{Vals: []string{"a", "long value"}}, Bitmap{1 << 2}, 1),
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
