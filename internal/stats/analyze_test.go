package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/histogram"
	"repro/internal/storage"
)

// propCols are the random columns of TestAnalyzeMatchesBoxedReference:
// every kind a column vector can come back as — INT, BOOL, FLOAT, plain and
// dictionary-coded TEXT, a column of no kind, and a boxed one (an INT column
// holding FLOAT datums through numeric coercion).
var propCols = []catalog.Column{
	{Name: "i_many", Kind: datum.KindInt},
	{Name: "i_few", Kind: datum.KindInt},
	{Name: "i_one", Kind: datum.KindInt},
	{Name: "i_big", Kind: datum.KindInt},
	{Name: "b", Kind: datum.KindBool},
	{Name: "f_odd", Kind: datum.KindFloat},
	{Name: "f_many", Kind: datum.KindFloat},
	{Name: "s_few", Kind: datum.KindString},
	{Name: "s_many", Kind: datum.KindString},
	{Name: "mixed", Kind: datum.KindInt},
	{Name: "none", Kind: datum.KindNull},
}

// propValue draws a non-NULL value for column c.
func propValue(rng *rand.Rand, c int) datum.D {
	const p53, p62 = int64(1) << 53, int64(1) << 62
	switch propCols[c].Name {
	case "i_many":
		return datum.NewInt(rng.Int63n(2000) - 1000)
	case "i_few":
		return datum.NewInt(int64(rng.Intn(4)))
	case "i_one":
		return datum.NewInt(42)
	case "i_big": // neighbours past 2^53 round to one float64, and hash as one
		return datum.NewInt([]int64{p53, p53 + 1, p53 + 2, p62, p62 + 1, -p62 - 1, math.MaxInt64}[rng.Intn(7)])
	case "b":
		return datum.NewBool(rng.Intn(2) == 0)
	case "f_odd":
		return datum.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2.25}[rng.Intn(7)])
	case "f_many":
		return datum.NewFloat(float64(rng.Intn(5000)) / 8)
	case "s_few":
		return datum.NewString([]string{"ant", "bee", "cat"}[rng.Intn(3)])
	case "s_many":
		return datum.NewString(fmt.Sprintf("v%04d", rng.Intn(3000)))
	case "none":
		return datum.Null
	default: // mixed: FLOATs next to INTs, 2^53 among them
		switch rng.Intn(4) {
		case 0:
			return datum.NewFloat(float64(p53))
		case 1:
			return datum.NewInt(p53 + int64(rng.Intn(3)))
		case 2:
			return datum.NewFloat(float64(rng.Intn(20)) / 2)
		}
		return datum.NewInt(int64(rng.Intn(10)))
	}
}

// propStore builds a table of n random rows, with per-column NULL density
// drawn from {0, 20 %, 90 %, all}, in memory or flushed to directory-backed
// segments of 64 rows (TEXT then comes back dictionary-coded).
func propStore(t *testing.T, rng *rand.Rand, n int, disk bool) *storage.Table {
	t.Helper()
	def := &catalog.Table{Name: "p", Cols: propCols, Indexes: []*catalog.Index{
		{Name: "p_big_few", Cols: []int{3, 7}},
		{Name: "p_mixed_odd_b", Cols: []int{9, 5, 4}},
		{Name: "p_few", Cols: []int{1}},
	}}
	cfg := storage.StoreConfig{SegmentRows: 64}
	if disk {
		cfg.Dir = t.TempDir()
	}
	tab, err := storage.NewStoreWith(cfg).CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	nullFrac := make([]float64, len(propCols))
	for c := range nullFrac {
		nullFrac[c] = []float64{0, 0.2, 0.9, 1}[rng.Intn(4)]
	}
	rows := make([]datum.Row, n)
	for i := range rows {
		rows[i] = make(datum.Row, len(propCols))
		for c := range propCols {
			if rng.Float64() >= nullFrac[c] {
				rows[i][c] = propValue(rng, c)
			}
		}
	}
	if err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if disk {
		if err := tab.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// boxedReference is ANALYZE of one column as boxed datums: the null count,
// BuildEquiDepth over v.D(i), a naive scan for the second extremes, and the
// distinct count both by hash (the old ExactDistinct) and by datum.Compare.
type boxedReference struct {
	nulls            float64
	hist             *histogram.Histogram
	secMin, secMax   datum.D
	hashNDV, cmpNDV  float64
	dict, boxed, nul bool // the vector's representation
}

func referenceColumn(t *testing.T, tab *storage.Table, ord, k int) boxedReference {
	t.Helper()
	n := tab.RowCount()
	v := datum.NewVec(tab.Def.Cols[ord].Kind, n)
	if err := tab.FillColumnRange(nil, ord, 0, n, v); err != nil {
		t.Fatal(err)
	}
	ref := boxedReference{secMin: datum.Null, secMax: datum.Null,
		dict: v.Dict != nil, boxed: v.Boxed(), nul: v.Kind() == datum.KindNull}
	vals := make([]datum.D, n)
	var nonNull []datum.D
	hashes := map[uint64]bool{}
	for i := range vals {
		vals[i] = v.D(i)
		if vals[i].IsNull() {
			ref.nulls++
			continue
		}
		nonNull = append(nonNull, vals[i])
		hashes[vals[i].Hash()] = true
	}
	ref.hist = histogram.BuildEquiDepth(vals, k)
	ref.hashNDV = float64(len(hashes))
	sort.SliceStable(nonNull, func(i, j int) bool { return datum.Compare(nonNull[i], nonNull[j]) < 0 })
	for i := range nonNull {
		if i == 0 || !datum.Equal(nonNull[i], nonNull[i-1]) {
			ref.cmpNDV++
		}
	}
	if len(nonNull) == 0 {
		return ref
	}
	lo, hi := nonNull[0], nonNull[0]
	for _, d := range nonNull {
		if datum.Compare(d, lo) < 0 {
			lo = d
		}
		if datum.Compare(d, hi) > 0 {
			hi = d
		}
	}
	ref.secMin, ref.secMax = lo, hi
	foundLo, foundHi := false, false
	for _, d := range nonNull {
		if datum.Compare(d, lo) > 0 && (!foundLo || datum.Compare(d, ref.secMin) < 0) {
			ref.secMin, foundLo = d, true
		}
		if datum.Compare(d, hi) < 0 && (!foundHi || datum.Compare(d, ref.secMax) > 0) {
			ref.secMax, foundHi = d, true
		}
	}
	return ref
}

// referenceDistinctKeys counts distinct key combinations of rows sorted by
// datum.CompareRows.
func referenceDistinctKeys(t *testing.T, tab *storage.Table, cols []int) float64 {
	t.Helper()
	rows, err := tab.Rows(nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]datum.Row, len(rows))
	spec := make([]datum.SortSpec, len(cols))
	for x := range cols {
		spec[x] = datum.SortSpec{Col: x}
	}
	for i, r := range rows {
		for _, c := range cols {
			keys[i] = append(keys[i], r[c])
		}
	}
	sort.SliceStable(keys, func(i, j int) bool { return datum.CompareRows(keys[i], keys[j], spec) < 0 })
	d := 0.0
	for i := range keys {
		if i == 0 || datum.CompareRows(keys[i], keys[i-1], spec) != 0 {
			d++
		}
	}
	return d
}

// sameD reports whether a and b are equal under datum.Compare and, unless
// the column came back boxed, of one kind: a boxed column may hold an INT and
// a FLOAT that compare equal, and neither sort decides which of the two
// stands for their run.
func sameD(a, b datum.D, boxed bool) bool {
	return (boxed || a.Kind() == b.Kind()) && datum.Equal(a, b)
}

// TestAnalyzeMatchesBoxedReference: ANALYZE over sorted typed payloads
// produces the statistics the boxed algorithm does — bucket counts, distinct
// counts and totals bit for bit, bounds and second extremes equal and of the
// same kind, equal null counts — on random columns of every representation
// (NULL-heavy and all-NULL, one distinct value, fewer rows than buckets, NaN,
// -0/+0, ±Inf, INTs past 2^53), in memory and on flushed segments. The
// distinct count is the number of datum.Compare-distinct values, which the
// boxed hash count misses where INTs past 2^53 collide; index DistinctKeys
// match a sort of the key rows.
func TestAnalyzeMatchesBoxedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var seen struct{ dict, plainText, boxed, noKind, allNull, hashWrong int }
	for _, n := range []int{0, 1, 7, 31, 200, 700} {
		for _, disk := range []bool{false, true} {
			for _, k := range []int{32, 3} {
				tab := propStore(t, rng, n, disk)
				if err := Analyze(tab, AnalyzeOptions{Buckets: k}); err != nil {
					t.Fatal(err)
				}
				for ord, col := range propCols {
					where := fmt.Sprintf("n=%d disk=%v k=%d %s", n, disk, k, col.Name)
					got, ref := tab.Def.Stats.ColStats[ord], referenceColumn(t, tab, ord, k)
					switch {
					case ref.dict:
						seen.dict++
					case ref.boxed:
						seen.boxed++
					case ref.nul:
						seen.noKind++
					case col.Kind == datum.KindString && n > 0:
						seen.plainText++
					}
					if n > 0 && ref.nulls == float64(n) {
						seen.allNull++
					}
					if ref.hashNDV != ref.cmpNDV {
						seen.hashWrong++
					}
					checkColumn(t, where, got, ref)
				}
				for _, ix := range tab.Def.Indexes {
					// One key column counts its non-NULL values; several
					// count key combinations, NULLs included.
					want := tab.Def.Stats.ColStats[ix.Cols[0]].DistinctCount
					if len(ix.Cols) > 1 {
						want = referenceDistinctKeys(t, tab, ix.Cols)
					}
					if ix.DistinctKeys != want {
						t.Errorf("n=%d disk=%v index %s: DistinctKeys %v, want %v", n, disk, ix.Name, ix.DistinctKeys, want)
					}
				}
			}
		}
	}
	if seen.dict == 0 || seen.plainText == 0 || seen.boxed == 0 || seen.noKind == 0 || seen.allNull == 0 || seen.hashWrong == 0 {
		t.Fatalf("the random columns missed a case: %+v", seen)
	}
}

func checkColumn(t *testing.T, where string, got *catalog.ColumnStats, ref boxedReference) {
	t.Helper()
	if got.NullCount != ref.nulls {
		t.Errorf("%s: NullCount %v, want %v", where, got.NullCount, ref.nulls)
	}
	if !sameD(got.SecondMin, ref.secMin, ref.boxed) || !sameD(got.SecondMax, ref.secMax, ref.boxed) {
		t.Errorf("%s: second extremes %v, %v, want %v, %v", where, got.SecondMin, got.SecondMax, ref.secMin, ref.secMax)
	}
	if got.DistinctCount != ref.cmpNDV || got.DistinctCount != got.Hist.Distinct {
		t.Errorf("%s: DistinctCount %v (histogram %v), want %v (hash count %v)", where, got.DistinctCount, got.Hist.Distinct, ref.cmpNDV, ref.hashNDV)
	}
	h, rh := got.Hist, ref.hist
	if h.Kind != rh.Kind || h.Total != rh.Total || h.Distinct != rh.Distinct || len(h.Buckets) != len(rh.Buckets) {
		t.Fatalf("%s: histogram\n%s want\n%s", where, h, rh)
	}
	for i, b := range h.Buckets {
		rb := rh.Buckets[i]
		if b.Count != rb.Count || b.Distinct != rb.Distinct || b.Singleton != rb.Singleton ||
			!sameD(b.Lower, rb.Lower, ref.boxed) || !sameD(b.Upper, rb.Upper, ref.boxed) {
			t.Fatalf("%s: bucket %d %+v, want %+v", where, i, b, rb)
		}
	}
}

// TestAnalyzeDistinctIsExact: INTs past 2^53 that round to one float64 hash
// alike but are distinct under datum.Compare. ANALYZE's distinct count,
// histogram.ExactDistinct and a two-column index's DistinctKeys all count
// them apart, and every column's DistinctCount equals its histogram's.
func TestAnalyzeDistinctIsExact(t *testing.T) {
	const p53, p62 = int64(1) << 53, int64(1) << 62
	def := &catalog.Table{Name: "big", Cols: []catalog.Column{
		{Name: "a", Kind: datum.KindInt}, {Name: "b", Kind: datum.KindInt},
	}, Indexes: []*catalog.Index{{Name: "big_ab", Cols: []int{0, 1}}}}
	tab, err := storage.NewStore().CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	var vals []datum.D
	for _, x := range []int64{p53, p53 + 1, p62, p62 + 1} {
		vals = append(vals, datum.NewInt(x))
		if err := tab.Insert(datum.Row{datum.NewInt(x), datum.NewInt(7)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := histogram.ExactDistinct(vals); got != 4 {
		t.Errorf("ExactDistinct = %v, want 4", got)
	}
	if err := Analyze(tab, AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := def.Stats.ColStats[0].DistinctCount; got != 4 {
		t.Errorf("DistinctCount = %v, want 4", got)
	}
	if got := def.Indexes[0].DistinctKeys; got != 4 {
		t.Errorf("DistinctKeys = %v, want 4", got)
	}
	f := newFixture(t, AnalyzeOptions{Buckets: 20})
	for _, def := range append(f.cat.Tables(), def) {
		for ord, cs := range def.Stats.ColStats {
			if cs.DistinctCount != cs.Hist.Distinct {
				t.Errorf("%s column %d: DistinctCount %v, histogram distinct %v", def.Name, ord, cs.DistinctCount, cs.Hist.Distinct)
			}
		}
	}
}

// BenchmarkAnalyze times a full ANALYZE of a 100 000-row table shaped like
// the benchmark's sales fact table — seven INT and FLOAT columns, an
// eight-value TEXT column, a primary and a secondary index — held in memory
// and flushed to directory-backed segments.
func BenchmarkAnalyze(b *testing.B) {
	const n = 100_000
	regions := []string{"north", "south", "east", "west", "central", "apac", "emea", "latam"}
	rng := rand.New(rand.NewSource(1))
	rows := make([]datum.Row, n)
	for i := range rows {
		rows[i] = datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(rng.Intn(1000))),
			datum.NewInt(int64(rng.Intn(1000))), datum.NewInt(int64(i * 1000 / n)),
			datum.NewInt(int64(rng.Intn(n / 100))), datum.NewString(regions[rng.Intn(len(regions))]),
			datum.NewInt(int64(1 + rng.Intn(20))), datum.NewFloat(float64(rng.Intn(100000)) / 100)}
	}
	for _, disk := range []bool{false, true} {
		name := "mem"
		cfg := storage.StoreConfig{}
		if disk {
			name, cfg.Dir = "disk", b.TempDir()
		}
		b.Run(name, func(b *testing.B) {
			def := &catalog.Table{Name: "sales", Cols: []catalog.Column{
				{Name: "id", Kind: datum.KindInt, NotNull: true}, {Name: "k1", Kind: datum.KindInt},
				{Name: "k2", Kind: datum.KindInt}, {Name: "k3", Kind: datum.KindInt},
				{Name: "cust", Kind: datum.KindInt}, {Name: "region", Kind: datum.KindString},
				{Name: "qty", Kind: datum.KindInt}, {Name: "amount", Kind: datum.KindFloat},
			}, Indexes: []*catalog.Index{{Name: "sales_pk", Cols: []int{0}}, {Name: "sales_cust", Cols: []int{4}}}}
			tab, err := storage.NewStoreWith(cfg).CreateTable(def)
			if err != nil {
				b.Fatal(err)
			}
			if err := tab.InsertBatch(rows); err != nil {
				b.Fatal(err)
			}
			if disk {
				if err := tab.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Analyze(tab, AnalyzeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
