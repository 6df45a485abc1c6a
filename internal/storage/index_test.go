package storage

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// oracleCompare is the brute-force side of the seek tests: numbers in the
// exact order big.Float gives them, NaN below every other number, and
// datum.Compare across families and between strings.
func oracleCompare(a, b datum.D) int {
	numeric := func(d datum.D) bool { return d.Kind() == datum.KindInt || d.Kind() == datum.KindFloat }
	if !numeric(a) || !numeric(b) || (a.Kind() == datum.KindInt && b.Kind() == datum.KindInt) {
		return datum.Compare(a, b)
	}
	aNaN, bNaN := math.IsNaN(a.Float()), math.IsNaN(b.Float())
	switch {
	case aNaN || bNaN:
		return btoi(bNaN) - btoi(aNaN)
	}
	exact := func(d datum.D) *big.Float {
		if d.Kind() == datum.KindInt {
			return new(big.Float).SetInt64(d.Int())
		}
		return new(big.Float).SetFloat64(d.Float())
	}
	return exact(a).Cmp(exact(b))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cmpEntries orders two index entries by key under oracleCompare, then by
// row id.
func cmpEntries(a datum.Row, aID int, b datum.Row, bID int) int {
	for j := range a {
		if c := oracleCompare(a[j], b[j]); c != 0 {
			return c
		}
	}
	return aID - bID
}

// bruteSeek is Seek's contract evaluated row by row over rows: the ids whose
// key columns cols start with eq and — when the range applies — whose next
// key column is non-NULL and within the bounds, sorted into index order.
func bruteSeek(rows []datum.Row, cols []int, eq datum.Row, lo datum.D, loIncl bool, hi datum.D, hiIncl bool) []int {
	p := len(eq)
	ranged := p < len(cols) && (p == 0 || !lo.IsNull() || !hi.IsNull())
	var ids []int
next:
	for id, r := range rows {
		for j, d := range eq {
			if oracleCompare(r[cols[j]], d) != 0 {
				continue next
			}
		}
		if ranged {
			v := r[cols[p]]
			if v.IsNull() {
				continue
			}
			if c := oracleCompare(v, lo); !lo.IsNull() && (c < 0 || (c == 0 && !loIncl)) {
				continue
			}
			if c := oracleCompare(v, hi); !hi.IsNull() && (c > 0 || (c == 0 && !hiIncl)) {
				continue
			}
		}
		ids = append(ids, id)
	}
	key := func(id int) datum.Row {
		k := make(datum.Row, len(cols))
		for j, c := range cols {
			k[j] = rows[id][c]
		}
		return k
	}
	slices.SortFunc(ids, func(a, b int) int { return cmpEntries(key(a), a, key(b), b) })
	return ids
}

// seekCase is one table of TestSeekMatchesBruteForce: two columns a and b,
// indexed as (a), (a, b) and (b); cands are the values each column's equality
// keys and range bounds are drawn from, present and absent ones.
type seekCase struct {
	name  string
	kinds [2]datum.Kind
	n     int
	row   func(rng *rand.Rand, i int) datum.Row
	cands [2][]datum.D
	// repr is the representation the (a) index's key column must have, so
	// that every comparator of the build is exercised.
	repr string
}

func seekCases() []seekCase {
	i, f, s := datum.NewInt, datum.NewFloat, datum.NewString
	null, nan, inf := datum.Null, math.NaN(), math.Inf(1)
	orNull := func(rng *rand.Rand, d datum.D) datum.D {
		if rng.Intn(8) == 0 {
			return null
		}
		return d
	}
	pick := func(rng *rand.Rand, ds ...datum.D) datum.D { return ds[rng.Intn(len(ds))] }
	const p53 = 1 << 53
	return []seekCase{
		{name: "int", kinds: [2]datum.Kind{datum.KindInt, datum.KindInt}, n: 300, repr: "typed",
			row: func(rng *rand.Rand, _ int) datum.Row {
				return datum.Row{i(int64(rng.Intn(12))), orNull(rng, i(int64(rng.Intn(5)-2)))}
			},
			cands: [2][]datum.D{{i(-1), i(0), i(3), i(11), i(12), f(2.5)}, {i(-3), i(-2), i(0), i(2), f(-0.5)}}},
		{name: "int-nulls", kinds: [2]datum.Kind{datum.KindInt, datum.KindInt}, n: 300, repr: "typed",
			row: func(rng *rand.Rand, _ int) datum.Row {
				return datum.Row{orNull(rng, i(int64(rng.Intn(12)))), i(int64(rng.Intn(5)))}
			},
			cands: [2][]datum.D{{i(0), i(4), i(11), i(20)}, {i(0), i(2), i(5)}}},
		{name: "float", kinds: [2]datum.Kind{datum.KindFloat, datum.KindFloat}, n: 300, repr: "typed",
			row: func(rng *rand.Rand, _ int) datum.Row {
				return datum.Row{pick(rng, f(nan), f(-inf), f(inf), f(math.Copysign(0, -1)), f(0), f(1.5), f(-2.25), f(3)),
					orNull(rng, pick(rng, f(nan), f(0.5), f(-1), f(inf)))}
			},
			cands: [2][]datum.D{{f(nan), f(-inf), f(inf), f(math.Copysign(0, -1)), f(1.5), i(3), f(2)}, {f(nan), f(0.5), i(0), f(inf)}}},
		{name: "string", kinds: [2]datum.Kind{datum.KindString, datum.KindString}, n: 300, repr: "typed",
			row: func(rng *rand.Rand, _ int) datum.Row {
				return datum.Row{s(fmt.Sprintf("k%03d", rng.Intn(150))), orNull(rng, s(string(rune('a'+rng.Intn(4)))))}
			},
			cands: [2][]datum.D{{s(""), s("k000"), s("k07"), s("k100"), s("k149"), s("z")}, {s("a"), s("b"), s("bb"), s("d")}}},
		{name: "dict", kinds: [2]datum.Kind{datum.KindString, datum.KindInt}, n: 256, repr: "dict",
			row: func(rng *rand.Rand, n int) datum.Row {
				return datum.Row{s([]string{"east", "north", "south", "west"}[(n*7)%4]), i(int64(rng.Intn(6)))}
			},
			cands: [2][]datum.D{{s("east"), s("m"), s("south"), s("west"), s("zz")}, {i(0), i(3), i(5), i(9)}}},
		{name: "bool", kinds: [2]datum.Kind{datum.KindBool, datum.KindInt}, n: 300, repr: "typed",
			row: func(rng *rand.Rand, _ int) datum.Row {
				return datum.Row{datum.NewBool(rng.Intn(2) == 0), orNull(rng, i(int64(rng.Intn(4))))}
			},
			cands: [2][]datum.D{{datum.NewBool(false), datum.NewBool(true)}, {i(0), i(2), i(3)}}},
		// An INT column holding FLOATs (numeric coercion) is boxed: 1 beside
		// 1.0, and 2^53 beside 2^53+1, which float64 cannot tell apart.
		{name: "boxed", kinds: [2]datum.Kind{datum.KindInt, datum.KindInt}, n: 300, repr: "boxed",
			row: func(rng *rand.Rand, _ int) datum.Row {
				return datum.Row{orNull(rng, pick(rng, i(1), f(1), i(p53), i(p53+1), f(p53), f(0.5), i(-3), f(p53+2))),
					i(int64(rng.Intn(3)))}
			},
			cands: [2][]datum.D{{i(1), f(1), i(p53), i(p53 + 1), f(p53), f(p53 + 2), f(0.75), i(-4)}, {i(0), i(1), i(2)}}},
		// INT bounds on a FLOAT column, over sealed and tail rows: the cases of
		// the executor's former range post-filter.
		{name: "int-bounds-on-float", kinds: [2]datum.Kind{datum.KindInt, datum.KindFloat}, n: 3000, repr: "typed",
			row: func(rng *rand.Rand, n int) datum.Row {
				scale := []float64{1e-8, 1e-4, 1, 1e4, 1e8}[n%5]
				return datum.Row{orNull(rng, i(int64(rng.Intn(150)))), f(float64((n*7919)%100003) / 7 * scale)}
			},
			cands: [2][]datum.D{{i(20), i(90), i(149)}, {i(20), i(90), f(0.5), f(1e6)}}},
	}
}

// TestSeekMatchesBruteForce: Seek returns exactly the ids, in index order
// ((key, row id), which ORDER BY id over an equal key relies on), that a
// row-by-row filter of Rows() keeps — for every index of every table, every
// equality-prefix length, every pair of bounds (either end open), every
// inclusivity, over pinned segments and files, sealed rows and tail rows.
func TestSeekMatchesBruteForce(t *testing.T) {
	const segRows = 64
	for _, tc := range seekCases() {
		t.Run(tc.name, func(t *testing.T) {
			def := &catalog.Table{Name: "sk", Cols: []catalog.Column{{Name: "a", Kind: tc.kinds[0]}, {Name: "b", Kind: tc.kinds[1]}},
				Indexes: []*catalog.Index{{Name: "sk_a", Cols: []int{0}}, {Name: "sk_ab", Cols: []int{0, 1}}, {Name: "sk_b", Cols: []int{1}}}}
			rng := rand.New(rand.NewSource(22))
			want := make([]datum.Row, tc.n)
			for r := range want {
				want[r] = tc.row(rng, r)
			}
			modes(t, segRows, func(t *testing.T, s *Store) {
				tab, err := s.CreateTable(def)
				if err != nil {
					t.Fatal(err)
				}
				if err := tab.InsertBatch(want); err != nil {
					t.Fatal(err)
				}
				rows := mustRows(t, tab)
				for _, idef := range def.Indexes {
					ix, err := tab.Index(nil, idef.Name)
					if err != nil {
						t.Fatal(err)
					}
					if idef.Name == "sk_a" {
						if got := reprOf(ix.keys[0]); got != tc.repr {
							t.Fatalf("key column is %s, want %s", got, tc.repr)
						}
					}
					checkEntries(t, ix, rows)
					checkSeeks(t, ix, rows, tc.cands, rng)
				}
			})
		})
	}
}

func reprOf(v *datum.Vec) string {
	switch {
	case v.Boxed():
		return "boxed"
	case v.Dict != nil:
		return "dict"
	}
	return "typed"
}

// checkEntries requires every index entry to carry its row's key values and
// the entries to ascend strictly in (key, row id).
func checkEntries(t *testing.T, ix *IndexData, rows []datum.Row) {
	t.Helper()
	if ix.Len() != len(rows) {
		t.Fatalf("%s: %d entries for %d rows", ix.Def.Name, ix.Len(), len(rows))
	}
	var prev datum.Row
	prevID := -1
	for e := 0; e < ix.Len(); e++ {
		key, id := indexEntry(ix, e)
		for j, c := range ix.KeyCols {
			sameRows(t, []datum.Row{{key[j]}}, []datum.Row{{rows[id][c]}})
		}
		if prev != nil && cmpEntries(prev, prevID, key, id) >= 0 {
			t.Fatalf("%s: entry %d (%v, %d) does not follow (%v, %d)", ix.Def.Name, e, key, id, prev, prevID)
		}
		prev, prevID = key, id
	}
}

// checkSeeks compares Seek with bruteSeek for every prefix length and every
// bound pair, and checks that a seek's result survives the next seek.
func checkSeeks(t *testing.T, ix *IndexData, rows []datum.Row, cands [2][]datum.D, rng *rand.Rand) {
	t.Helper()
	cols := ix.KeyCols
	for p := 0; p <= len(cols); p++ {
		// Equality prefixes: taken from stored rows (NULLs included) and one
		// from the candidates, which may be absent.
		var eqs []datum.Row
		if p == 0 {
			eqs = []datum.Row{nil}
		}
		for k := 0; p > 0 && k < 4; k++ {
			eq := make(datum.Row, p)
			for j := range eq {
				if k == 0 {
					eq[j] = cands[cols[j]][rng.Intn(len(cands[cols[j]]))]
				} else {
					eq[j] = rows[rng.Intn(len(rows))][cols[j]]
				}
			}
			eqs = append(eqs, eq)
		}
		bounds := []datum.D{datum.Null}
		if p < len(cols) {
			bounds = append(bounds, cands[cols[p]]...)
		}
		for _, eq := range eqs {
			for _, lo := range bounds {
				for _, hi := range bounds {
					for incl := 0; incl < 4; incl++ {
						loIncl, hiIncl := incl&1 != 0, incl&2 != 0
						got := ix.Seek(eq, lo, loIncl, hi, hiIncl)
						want := bruteSeek(rows, cols, eq, lo, loIncl, hi, hiIncl)
						if !slices.Equal(got, want) {
							t.Fatalf("%s: Seek(%v, %v %v, %v %v) = %v, want %v", ix.Def.Name, eq, lo, loIncl, hi, hiIncl, got, want)
						}
						if cap(got) != len(got) {
							t.Fatalf("%s: seek result has spare capacity %d > %d: an append would overwrite the index", ix.Def.Name, cap(got), len(got))
						}
						kept := slices.Clone(got)
						ix.Seek(nil, datum.Null, false, datum.Null, false)
						if again := ix.Seek(eq, lo, loIncl, hi, hiIncl); !slices.Equal(got, kept) || !slices.Equal(again, kept) {
							t.Fatalf("%s: a second seek changed the first one's ids", ix.Def.Name)
						}
					}
				}
			}
		}
	}
}

// TestKeyCompareAgreesWithCompare: the index order, datum.Compare, is the
// exact oracle order on every pair — NaN and INT/FLOAT pairs past 2^53
// included.
func TestKeyCompareAgreesWithCompare(t *testing.T) {
	var vals []datum.D
	for _, c := range seekCases() {
		for _, cs := range c.cands {
			vals = append(vals, cs...)
		}
	}
	vals = append(vals, datum.Null, datum.NewInt(math.MaxInt64), datum.NewInt(math.MinInt64), datum.NewFloat(-0.5),
		datum.NewFloat(math.MaxFloat64), datum.NewFloat(-math.MaxFloat64), datum.NewFloat(1e19), datum.NewFloat(-1e19),
		datum.NewFloat(1<<63), datum.NewFloat(-(1 << 63)), datum.NewInt(math.MaxInt64-1), datum.NewInt(math.MinInt64+1),
		datum.NewInt(1<<62+1), datum.NewFloat(1<<62), datum.NewFloat(math.Inf(1)), datum.NewFloat(math.Inf(-1)), datum.NewFloat(math.NaN()))
	for _, a := range vals {
		for _, b := range vals {
			if got, want := datum.Compare(a, b), oracleCompare(a, b); got != want {
				t.Errorf("Compare(%v, %v) = %d, oracle %d", a, b, got, want)
			}
		}
	}
}

// TestIndexSeekDuringInsert: eight goroutines look the index up and seek it
// while another inserts and flushes batches. Every seek sees one consistent
// index — the one of some table size the writer passed through — and
// returns exactly that size's answer. Run under -race by make check.
func TestIndexSeekDuringInsert(t *testing.T) {
	const base, batch, batches = 2000, 500, 4
	key := func(id int) int64 { return int64(id*37) % (base + batch*batches) }
	def := &catalog.Table{Name: "cc", Cols: []catalog.Column{{Name: "id", Kind: datum.KindInt}, {Name: "k", Kind: datum.KindInt}},
		Indexes: []*catalog.Index{{Name: "cc_k", Cols: []int{1}}}}
	lo, hi := datum.NewInt(1000), datum.NewInt(2600)
	// want[n] is the range's answer over the first n rows.
	want := map[int][]int{}
	var all []datum.Row
	for n := base; n <= base+batch*batches; n += batch {
		for id := len(all); id < n; id++ {
			all = append(all, datum.Row{datum.NewInt(int64(id)), datum.NewInt(key(id))})
		}
		want[n] = bruteSeek(all, []int{1}, nil, lo, true, hi, false)
	}
	modes(t, 256, func(t *testing.T, s *Store) {
		tab, err := s.CreateTable(def)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.InsertBatch(all[:base]); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for stop := false; !stop; {
					select {
					case <-done:
						stop = true // one more round over the final table
					default:
					}
					ix, err := tab.Index(nil, "cc_k")
					if err != nil {
						t.Error(err)
						return
					}
					got := ix.Seek(nil, lo, true, hi, false)
					if w, ok := want[ix.Len()]; !ok || !slices.Equal(got, w) {
						t.Errorf("index of %d entries: seek returned %d ids, want %d", ix.Len(), len(got), len(w))
						return
					}
				}
			}()
		}
		for b := 0; b < batches; b++ {
			n := base + b*batch
			if err := tab.InsertBatch(all[n : n+batch]); err != nil {
				t.Error(err)
				break
			}
			if err := tab.Flush(); err != nil {
				t.Error(err)
				break
			}
		}
		close(done)
		wg.Wait()
	})
}

// benchTable loads n rows of one INT key column (key(i) for row i) and one
// string column (str(i)) into a pinned table of segRows-row segments.
func benchTable(b *testing.B, n, segRows int, key func(int) int64, str func(int) string) *Table {
	b.Helper()
	def := &catalog.Table{Name: "bx", Cols: []catalog.Column{{Name: "k", Kind: datum.KindInt}, {Name: "s", Kind: datum.KindString}},
		Indexes: []*catalog.Index{{Name: "bx_k", Cols: []int{0}}, {Name: "bx_s", Cols: []int{1}}}}
	tab, err := NewStoreWith(StoreConfig{SegmentRows: segRows}).CreateTable(def)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]datum.Row, n)
	for i := range rows {
		rows[i] = datum.Row{datum.NewInt(key(i)), datum.NewString(str(i))}
	}
	if err := tab.InsertBatch(rows); err != nil {
		b.Fatal(err)
	}
	return tab
}

var seekSink []int

// BenchmarkIndexSeek times one Seek on a 20 000-entry INT index: a point
// lookup at a random key, and a 100-key range at the start, the middle and the
// end of the index. The result is a subslice: 0 allocs/op.
func BenchmarkIndexSeek(b *testing.B) {
	const n = 20000
	tab := benchTable(b, n, DefaultSegmentRows, func(i int) int64 { return int64(i) }, func(int) string { return "" })
	ix, err := tab.Index(nil, "bx_k")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("point", func(b *testing.B) {
		keys := make([]datum.Row, 1024)
		rng := rand.New(rand.NewSource(1))
		for i := range keys {
			keys[i] = datum.Row{datum.NewInt(int64(rng.Intn(n)))}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seekSink = ix.Seek(keys[i%len(keys)], datum.Null, false, datum.Null, false)
		}
	})
	for _, at := range []struct {
		name string
		lo   int64
	}{{"range-start", 0}, {"range-middle", n / 2}, {"range-end", n - 100}} {
		b.Run(at.name, func(b *testing.B) {
			lo, hi := datum.NewInt(at.lo), datum.NewInt(at.lo+100)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seekSink = ix.Seek(nil, lo, true, hi, false)
			}
			if len(seekSink) != 100 {
				b.Fatalf("%d ids, want 100", len(seekSink))
			}
		})
	}
}

// BenchmarkIndexBuild times building an index over 100 000 rows in 1000-row
// pinned segments: INT keys loaded ascending (the already-sorted check, no
// sort and no gather) or shuffled, and string keys ascending (each segment
// holds one or two values, so the segments' dictionaries differ and the key
// column is plain strings) or shuffled over 64 values (every segment holds
// all 64, one shared dictionary: the sort compares codes).
func BenchmarkIndexBuild(b *testing.B) {
	const n = 100000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	word := func(i int) string { return fmt.Sprintf("value-%02d", i) }
	for _, tc := range []struct {
		name, index string
		key         func(int) int64
		str         func(int) string
	}{
		{"int/ascending", "bx_k", func(i int) int64 { return int64(i) }, word},
		{"int/shuffled", "bx_k", func(i int) int64 { return int64(perm[i]) }, word},
		{"string/ascending", "bx_s", func(i int) int64 { return 0 }, func(i int) string { return word(i * 64 / n) }},
		{"string/shuffled", "bx_s", func(i int) int64 { return 0 }, func(i int) string { return word(perm[i] % 64) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tab := benchTable(b, n, 1000, tc.key, tc.str)
			var def *catalog.Index
			for _, d := range tab.Def.Indexes {
				if d.Name == tc.index {
					def = d
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.mu.Lock()
				ix, err := tab.buildIndexLocked(nil, def)
				tab.mu.Unlock()
				if err != nil || ix.Len() != n {
					b.Fatalf("%v, %d entries", err, ix.Len())
				}
			}
		})
	}
}

// indexEntry returns the i-th key of ix, as a fresh row, and its row id in
// index order.
func indexEntry(ix *IndexData, i int) (datum.Row, int) {
	key := make(datum.Row, len(ix.keys))
	for j, v := range ix.keys {
		key[j] = v.D(i)
	}
	return key, ix.rowIDs[i]
}
