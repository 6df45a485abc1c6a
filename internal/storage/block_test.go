package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// encodeVec encodes v as one column block the way a seal does, returning the
// block and the representation chosen.
func encodeVec(v *datum.Vec, compress bool) ([]byte, byte) {
	var buf bytes.Buffer
	cm := colMeta{kind: v.Kind()}
	cm.nullCount, cm.hasZone, cm.min, cm.max, cm.sketch = zoneOf(v)
	encodeColumn(&buf, v, &cm, compress)
	return buf.Bytes(), cm.repr
}

// BenchmarkDecodeBlock decodes 4096-row blocks whole and by 1024-row range
// into a reused vector: plain INT blocks whose varints take 1, 2 and 3 bytes,
// a dictionary block, a run-length block, a FLOAT block and a plain STRING
// block.
func BenchmarkDecodeBlock(b *testing.B) {
	const rows = 4096
	rng := rand.New(rand.NewSource(1))
	gen := func(kind datum.Kind, d func(i int) datum.D) *datum.Vec {
		v := datum.NewVec(kind, rows)
		for i := 0; i < rows; i++ {
			v.AppendD(d(i))
		}
		return v
	}
	ints := func(bound int64) *datum.Vec {
		return gen(datum.KindInt, func(int) datum.D { return datum.NewInt(rng.Int63n(bound)) })
	}
	cases := []struct {
		name string
		v    *datum.Vec
		repr byte
	}{
		{"int1", ints(60), reprTyped},
		{"int2", ints(8000), reprTyped},
		{"int3", ints(1 << 19), reprTyped},
		{"dict", gen(datum.KindString, func(int) datum.D { return datum.NewString(fmt.Sprintf("v%02d", rng.Intn(50))) }), reprDict},
		{"rle", gen(datum.KindInt, func(i int) datum.D { return datum.NewInt(int64(i / 64)) }), reprRLE},
		{"float", gen(datum.KindFloat, func(int) datum.D { return datum.NewFloat(rng.Float64()) }), reprTyped},
		{"str", gen(datum.KindString, func(int) datum.D { return datum.NewString(fmt.Sprintf("s%06d", rng.Intn(1e6))) }), reprTyped},
	}
	for _, tc := range cases {
		raw, repr := encodeVec(tc.v, true)
		if repr != tc.repr {
			b.Fatalf("%s: representation %d, want %d", tc.name, repr, tc.repr)
		}
		b.Run(tc.name+"/whole", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := decodeBlock(raw, rows, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/range1024", func(b *testing.B) {
			blk, err := parseBlock(raw, rows, nil)
			if err != nil {
				b.Fatal(err)
			}
			v := datum.NewVec(tc.v.Kind(), 1024)
			for i := 0; i < b.N; i++ {
				lo := i % 4 * 1024
				v.Reset(tc.v.Kind())
				if err := blk.read(v, rowSet{lo: lo, hi: lo + 1024}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sameVec requires two vectors to hold the same representation — boxed or
// not, kind, dictionary — and the same datums, floats by bits.
func sameVec(t *testing.T, what string, got, want *datum.Vec) {
	t.Helper()
	if got.Len() != want.Len() || got.Boxed() != want.Boxed() || got.Kind() != want.Kind() || got.Dict != want.Dict {
		t.Fatalf("%s: len %d boxed %v kind %v dict %p, want len %d boxed %v kind %v dict %p", what,
			got.Len(), got.Boxed(), got.Kind(), got.Dict, want.Len(), want.Boxed(), want.Kind(), want.Dict)
	}
	sameRows(t, vecRows(got), vecRows(want))
}

// blockSources returns one column of every block representation a segment
// can hold, by name, with whether it is sealed compressed.
func blockSources(rng *rand.Rand, n int) map[string]struct {
	v        *datum.Vec
	compress bool
	repr     byte
} {
	type src = struct {
		v        *datum.Vec
		compress bool
		repr     byte
	}
	vec := func(kind datum.Kind, nullEvery int, d func(i int) datum.D) *datum.Vec {
		v := datum.NewVec(kind, n)
		for i := 0; i < n; i++ {
			if nullEvery > 0 && rng.Intn(nullEvery) == 0 {
				v.AppendNull()
			} else {
				v.AppendD(d(i))
			}
		}
		return v
	}
	anInt := func(int) datum.D { return datum.NewInt(rng.Int63n(1<<20) - 1<<19>>uint(rng.Intn(20))) }
	aFloat := func(int) datum.D {
		return datum.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, rng.NormFloat64()}[rng.Intn(5)])
	}
	aStr := func(int) datum.D { return datum.NewString(fmt.Sprintf("s%d", rng.Intn(1000))) }
	few := func(int) datum.D { return datum.NewString([]string{"ant", "bee", "cat"}[rng.Intn(3)]) }
	runs := func(d func(int) datum.D) func(int) datum.D {
		var cur datum.D
		return func(i int) datum.D {
			if i%40 == 0 {
				cur = d(i)
			}
			return cur
		}
	}
	boxed := datum.NewAnyVec(n)
	for i := 0; i < n; i++ {
		boxed.AppendD([]datum.D{datum.Null, anInt(i), aFloat(i), aStr(i)}[rng.Intn(4)])
	}
	nullRuns := datum.NewVec(datum.KindInt, n)
	for i := 0; i < n; i++ {
		if i/50%3 == 1 {
			nullRuns.AppendNull()
		} else {
			nullRuns.AppendD(datum.NewInt(int64(i / 50)))
		}
	}
	allNull := datum.NewVec(datum.KindNull, n)
	for i := 0; i < n; i++ {
		allNull.AppendNull()
	}
	return map[string]src{
		"int":          {vec(datum.KindInt, 0, anInt), false, reprTyped},
		"int-nulls":    {vec(datum.KindInt, 5, anInt), false, reprTyped},
		"bool":         {vec(datum.KindBool, 0, func(int) datum.D { return datum.NewBool(rng.Intn(2) == 0) }), false, reprTyped},
		"bool-nulls":   {vec(datum.KindBool, 5, func(int) datum.D { return datum.NewBool(rng.Intn(2) == 0) }), false, reprTyped},
		"float":        {vec(datum.KindFloat, 0, aFloat), false, reprTyped},
		"float-nulls":  {vec(datum.KindFloat, 5, aFloat), false, reprTyped},
		"string":       {vec(datum.KindString, 0, aStr), false, reprTyped},
		"string-nulls": {vec(datum.KindString, 5, aStr), false, reprTyped},
		"int-all-null": {vec(datum.KindInt, 1, anInt), false, reprTyped},
		"all-null":     {allNull, false, reprTyped},
		"dict":         {vec(datum.KindString, 0, few), true, reprDict},
		"dict-nulls":   {vec(datum.KindString, 5, few), true, reprDict},
		"rle-int":      {nullRuns, true, reprRLE},
		"rle-float":    {vec(datum.KindFloat, 0, runs(aFloat)), true, reprRLE},
		"rle-string":   {vec(datum.KindString, 0, runs(aStr)), true, reprRLE},
		"boxed":        {boxed, false, reprBoxed},
	}
}

// TestBlockReadMatchesDecoded is the property behind the block cache's
// encoded form: for every block representation, random row ranges and id
// lists, and every kind of target vector, decoding only the rows asked for
// into the target equals decoding the whole block and appending from it with
// AppendRange or AppendGather — representation included. One parsed block
// serves every read, in random order.
func TestBlockReadMatchesDecoded(t *testing.T) {
	const n = 700
	rng := rand.New(rand.NewSource(3))
	var dicts dictSet
	// otherDict is a dictionary no source block uses.
	other, _ := encodeVec(func() *datum.Vec {
		v := datum.NewVec(datum.KindString, n)
		for i := 0; i < n; i++ {
			v.AppendD(datum.NewString([]string{"yak", "zebu"}[i%2]))
		}
		return v
	}(), true)
	otherVec, err := decodeBlock(other, n, &dicts)
	if err != nil || otherVec.Dict == nil {
		t.Fatalf("other dictionary: %v", err)
	}
	for name, src := range blockSources(rng, n) {
		raw, repr := encodeVec(src.v, src.compress)
		if repr != src.repr {
			t.Fatalf("%s: representation %d, want %d", name, repr, src.repr)
		}
		whole, err := decodeBlock(raw, n, &dicts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameRows(t, vecRows(whole), vecRows(src.v))
		blk, err := parseBlock(raw, n, &dicts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		other := datum.KindInt
		if whole.Kind() == datum.KindInt {
			other = datum.KindFloat
		}
		targets := map[string]func() *datum.Vec{
			"empty": func() *datum.Vec { return datum.NewVec(whole.Kind(), 0) },
			"prefilled": func() *datum.Vec {
				v := datum.NewVec(whole.Kind(), 0)
				for i := 0; i < 3; i++ {
					v.AppendD(whole.D(n - 1 - i))
				}
				return v
			},
			"same-dict": func() *datum.Vec {
				v := datum.NewVec(whole.Kind(), 0)
				v.AppendRange(whole, 0, 2)
				return v
			},
			"other-dict": func() *datum.Vec {
				v := datum.NewVec(datum.KindString, 0)
				v.AppendRange(otherVec, 0, 2)
				return v
			},
			"boxed": func() *datum.Vec {
				v := datum.NewAnyVec(0)
				v.AppendD(datum.NewInt(7))
				return v
			},
			"kind-mismatched": func() *datum.Vec {
				v := datum.NewVec(other, 0)
				v.AppendD(datum.NewInt(9))
				v.AppendNull()
				return v
			},
			"all-null": func() *datum.Vec {
				v := datum.NewVec(datum.KindNull, 0)
				v.AppendNull()
				return v
			},
		}
		for trial := 0; trial < 60; trial++ {
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			var ids []int
			for i := rng.Intn(5); i < n; i += 1 + rng.Intn(1+rng.Intn(60)) {
				ids = append(ids, 1000+i)
			}
			switch trial % 3 {
			case 0:
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			case 1: // repeats: a cursor one row past the id must step back
				ids = append(ids[:len(ids):len(ids)], ids...)
				slices.Sort(ids)
			}
			for tname, target := range targets {
				what := fmt.Sprintf("%s into %s, rows [%d,%d)", name, tname, lo, hi)
				want, got := target(), target()
				want.AppendRange(whole, lo, hi)
				if err := blk.read(got, rowSet{lo: lo, hi: hi}); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameVec(t, what, got, want)
				what = fmt.Sprintf("%s into %s, %d ids", name, tname, len(ids))
				want, got = target(), target()
				datum.AppendGather(want, whole, ids, 1000)
				if err := blk.read(got, rowSet{lo: 1000, ids: ids}); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameVec(t, what, got, want)
			}
		}
	}
}

// scanAll fills every column of tab over all its rows, by morsel, and
// returns what the reads counted.
func scanAll(t *testing.T, tab *Table) ReadStats {
	t.Helper()
	sc := &ScanCtx{}
	n := tab.RowCount()
	for ord, col := range tab.Def.Cols {
		for lo := 0; lo < n; lo += 1024 {
			if err := tab.FillColumnRange(sc, ord, lo, min(lo+1024, n), datum.NewVec(col.Kind, 1024)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sc.ReadStats
}

// cacheForms counts the entries of the store's block cache held encoded and
// decoded, failing if one holds both forms or neither.
func cacheForms(t *testing.T, s *Store) (enc, dec int) {
	t.Helper()
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for el := s.cache.lru.Front(); el != nil; el = el.Next() {
		b := el.Value.(*cacheEntry).blk
		if encoded := b.body != nil || b.runs != nil; encoded == (b.vec != nil) {
			t.Fatalf("cache entry %+v holds both forms or neither", el.Value.(*cacheEntry).key)
		}
		if b.vec == nil {
			enc++
		} else {
			dec++
		}
	}
	return enc, dec
}

// twoIntCols loads a table of two small-valued INT columns, 3 segments of
// 1024 rows, whose blocks encode at about a byte per row and decode to 8.
func twoIntCols(t *testing.T, cacheBytes int64) *Table {
	t.Helper()
	s := NewStoreWith(StoreConfig{Dir: t.TempDir(), SegmentRows: 1024, CacheBytes: cacheBytes})
	tab, err := s.CreateTable(&catalog.Table{Name: "ti", Cols: []catalog.Column{
		{Name: "a", Kind: datum.KindInt}, {Name: "b", Kind: datum.KindInt}}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]datum.Row, 3*1024)
	for i := range rows {
		rows[i] = datum.Row{datum.NewInt(int64(i % 50)), datum.NewInt(int64(i * 7 % 60))}
	}
	if err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestCacheHoldsEncodedUnderTightBudget: with a budget below one decoded
// column but above the table's encoded bytes, every block is cached encoded
// and a second full scan reads nothing from the files. A cache of decoded
// columns could hold no two of them at this budget.
func TestCacheHoldsEncodedUnderTightBudget(t *testing.T) {
	const decodedCol = 8 * 1024
	budget := int64(decodedCol - 512)
	tab := twoIntCols(t, budget)
	if enc := tab.seg.sealedBytes; enc >= budget {
		t.Fatalf("table encodes to %d bytes, not below the %d-byte budget", enc, budget)
	}
	first := scanAll(t, tab)
	if first.BytesRead == 0 || first.BlockHits+first.BlocksPlain+first.BlocksRLE+first.BlocksDict != 2*3*1 {
		t.Fatalf("first scan: %+v, want 6 column reads, all misses", first)
	}
	second := scanAll(t, tab)
	if second.BytesRead != 0 || second.BlockHits != 6 {
		t.Fatalf("second scan: %+v, want 6 hits and no bytes read", second)
	}
	if enc, dec := cacheForms(t, tab.store); enc != 6 || dec != 0 {
		t.Fatalf("cache holds %d encoded and %d decoded blocks, want 6 encoded", enc, dec)
	}
}

// TestCacheHoldsDecodedWhenItFits: under the default budget every block a
// scan reads fits decoded, a repeated scan is served from those decoded
// columns, and no entry holds bytes.
func TestCacheHoldsDecodedWhenItFits(t *testing.T) {
	tab := twoIntCols(t, 0)
	scanAll(t, tab)
	if second := scanAll(t, tab); second.BytesRead != 0 || second.BlockHits != 6 {
		t.Fatalf("second scan: %+v, want 6 hits and no bytes read", second)
	}
	if enc, dec := cacheForms(t, tab.store); enc != 0 || dec != 6 {
		t.Fatalf("cache holds %d encoded and %d decoded blocks, want 6 decoded", enc, dec)
	}
}
