package exec

// groupmemo_test.go checks the aggregation's group lookup — the group memo in
// front of the hash table, and the table behind it — against a Go map keyed
// by datum.Compare's equality classes, written here. Every shape scans a
// table whose segments are one morsel each, so each morsel's key vectors
// have the representation the shape gives them: dense, negative and extreme
// INTs, BOOLs, codes of one and of two dictionaries, plain strings after
// codes, FLOATs after INTs, NULLs, bounds that widen, a span past the memo's
// cap and three columns whose spans multiply past it. Each runs serially, on
// two workers and under a spilling budget; the groups must come out in the
// oracle's order with its counts and sums, HashOps must count every row, and
// the bytes the memo held must be what the shape allows.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// classKey names the datum.Compare class of d: 1 and 1.0, -0 and +0, and
// every NaN share one; an INT past 2^53 stays apart from the FLOAT it rounds
// to.
func classKey(d datum.D) string {
	switch d.Kind() {
	case datum.KindNull:
		return "null"
	case datum.KindBool:
		return fmt.Sprint("bool ", d.Bool())
	case datum.KindInt:
		return "num " + strconv.FormatInt(d.Int(), 10)
	case datum.KindFloat:
		switch f := d.Float(); {
		case f != f:
			return "nan"
		case f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64:
			return "num " + strconv.FormatInt(int64(f), 10)
		default:
			return "num " + strconv.FormatFloat(f, 'g', -1, 64)
		}
	}
	return "str " + d.Str()
}

// memoShape is one table T(k0, ..., v) grouped on its key columns, one per
// kind: row(m, i) draws the keys of row i of morsel m; tail rows follow the
// sealed morsels unsealed, so they scan as plain vectors.
type memoShape struct {
	name   string
	kinds  []datum.Kind
	est    float64 // the optimizer's group estimate
	morsel int     // sealed morsels
	tail   int
	row    func(m, i int) datum.Row
	memo   bool // some morsel qualifies for the memo
}

func memoShapes(rng *rand.Rand) []memoShape {
	ints := func(f func(m int) int64) func(m, i int) datum.Row {
		return func(m, _ int) datum.Row { return datum.Row{datum.NewInt(f(m))} }
	}
	words := func(from, n int) datum.D { return datum.NewString(fmt.Sprintf("w%02d", from+rng.Intn(n))) }
	intKind, strKind := []datum.Kind{datum.KindInt}, []datum.Kind{datum.KindString}
	return []memoShape{
		{name: "dense", kinds: intKind, est: 200, morsel: 6, memo: true,
			row: ints(func(int) int64 { return int64(rng.Intn(200)) })},
		{name: "negative", kinds: intKind, est: 100, morsel: 5, memo: true,
			row: ints(func(int) int64 { return -1000 + int64(rng.Intn(100)) })},
		{name: "near-max", kinds: intKind, est: 300, morsel: 5, memo: true,
			row: ints(func(int) int64 { return math.MaxInt64 - int64(rng.Intn(300)) })},
		{name: "near-min", kinds: intKind, est: 300, morsel: 5, memo: true,
			row: ints(func(int) int64 { return math.MinInt64 + int64(rng.Intn(300)) })},
		{name: "extremes", kinds: intKind, est: 600, morsel: 6, memo: true, // the union's span overflows int64
			row: ints(func(m int) int64 {
				if m%3 == 1 {
					return math.MaxInt64 - int64(rng.Intn(300))
				}
				return math.MinInt64 + int64(rng.Intn(300))
			})},
		{name: "bool", kinds: []datum.Kind{datum.KindBool, datum.KindInt}, est: 20, morsel: 4, memo: true,
			row: func(int, int) datum.Row {
				return datum.Row{datum.NewBool(rng.Intn(2) == 0), datum.NewInt(int64(rng.Intn(10)))}
			}},
		{name: "one-dictionary", kinds: strKind, est: 12, morsel: 5, memo: true,
			row: func(int, int) datum.Row { return datum.Row{words(0, 12)} }},
		{name: "two-dictionaries", kinds: strKind, est: 18, morsel: 6, memo: true,
			row: func(m, _ int) datum.Row { return datum.Row{words(6*(m%2), 12)} }},
		{name: "strings-after-dictionary", kinds: []datum.Kind{datum.KindString, datum.KindInt}, est: 60, morsel: 4, tail: 700, memo: true,
			row: func(int, int) datum.Row { return datum.Row{words(0, 12), datum.NewInt(int64(rng.Intn(5)))} }},
		{name: "float-after-int", kinds: intKind, est: 100, morsel: 5, memo: true,
			row: func(m, _ int) datum.Row {
				if m < 4 {
					return datum.Row{datum.NewInt(int64(rng.Intn(50)))}
				}
				f := []float64{float64(rng.Intn(100)) / 2, math.Copysign(0, -1), math.NaN()}[rng.Intn(3)]
				return datum.Row{datum.NewFloat(f)}
			}},
		{name: "null-keys", kinds: intKind, est: 50, morsel: 5, memo: true,
			row: func(m, _ int) datum.Row {
				if m%2 == 1 && rng.Intn(10) == 0 {
					return datum.Row{datum.Null}
				}
				return datum.Row{datum.NewInt(int64(rng.Intn(50)))}
			}},
		{name: "widening", kinds: intKind, est: 300, morsel: 8, memo: true,
			row: ints(func(m int) int64 { return int64(rng.Intn(30*(m+1)) - 10*m) })},
		{name: "past-cap", kinds: intKind, est: 10, morsel: 6, memo: true, // the cap is memoFloor slots
			row: ints(func(m int) int64 {
				if m == 2 || m == 3 {
					return int64(rng.Intn(5000))
				}
				return int64(rng.Intn(100))
			})},
		{name: "three-keys", kinds: []datum.Kind{datum.KindInt, datum.KindInt, datum.KindInt}, est: 1000, morsel: 6, memo: true,
			row: func(int, int) datum.Row {
				return datum.Row{datum.NewInt(int64(rng.Intn(10))), datum.NewInt(int64(rng.Intn(10))), datum.NewInt(int64(rng.Intn(10)))}
			}},
		{name: "three-keys-overflow", kinds: []datum.Kind{datum.KindInt, datum.KindInt, datum.KindInt}, est: 1 << 20, morsel: 4,
			row: func(int, int) datum.Row { // each span fits the cap, their product does not
				at := func() datum.D { return datum.NewInt(int64(rng.Intn(2)) << 21) }
				return datum.Row{at(), at(), at()}
			}},
	}
}

// memoOracle groups the rows of morsels, taken in order, by class: per group
// its first key values and its row count and INT sum.
type memoOracle struct {
	index map[string]int
	keys  []datum.Row
	count []int64
	sum   []int64
}

func newMemoOracle() *memoOracle { return &memoOracle{index: map[string]int{}} }

// group returns key's group, created on first sight.
func (o *memoOracle) group(key datum.Row) int {
	var id string
	for _, d := range key {
		id += classKey(d) + "\x00"
	}
	g, ok := o.index[id]
	if !ok {
		g = len(o.keys)
		o.index[id] = g
		o.keys, o.count, o.sum = append(o.keys, key), append(o.count, 0), append(o.sum, 0)
	}
	return g
}

func (o *memoOracle) add(key datum.Row, v int64) {
	g := o.group(key)
	o.count[g]++
	o.sum[g] += v
}

// fold adds another oracle's groups after this one's, as the aggregation's
// fold does with a second worker's table.
func (o *memoOracle) fold(p *memoOracle) {
	for g, key := range p.keys {
		h := o.group(key)
		o.count[h] += p.count[g]
		o.sum[h] += p.sum[g]
	}
}

func (o *memoOracle) rows() *Result {
	res := &Result{}
	for g, key := range o.keys {
		res.Rows = append(res.Rows, append(append(datum.Row{}, key...), datum.NewInt(o.count[g]), datum.NewInt(o.sum[g])))
	}
	return res
}

// tableBytes is what a group table of o's groups charges: the per-entry
// overhead, the two aggregates and the keys' bytes.
func (o *memoOracle) tableBytes() (n int64) {
	for _, key := range o.keys {
		n += entryOverhead + 48*2
		for _, d := range key {
			n += int64(d.Size())
		}
	}
	return n
}

func TestGroupTableMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for si, sh := range memoShapes(rng) {
		store := storage.NewStoreWith(storage.StoreConfig{SegmentRows: MorselSize})
		def := &catalog.Table{Name: fmt.Sprintf("t%d", si)}
		for k, kind := range sh.kinds {
			def.Cols = append(def.Cols, catalog.Column{Name: fmt.Sprintf("k%d", k), Kind: kind})
		}
		def.Cols = append(def.Cols, catalog.Column{Name: "v", Kind: datum.KindInt})
		tab, err := store.CreateTable(def)
		if err != nil {
			t.Fatal(err)
		}
		// The morsels' rows, and the oracles: serial, and per worker of two.
		var rows []datum.Row
		serial, workers := newMemoOracle(), []*memoOracle{newMemoOracle(), newMemoOracle()}
		for m := 0; m <= sh.morsel; m++ {
			n := MorselSize
			if m == sh.morsel {
				n = sh.tail
			}
			for i := 0; i < n; i++ {
				r := sh.row(m, i)
				v := int64(rng.Intn(100))
				serial.add(r, v)
				workers[m%2].add(r, v)
				rows = append(rows, append(r, datum.NewInt(v)))
			}
		}
		if err := tab.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		folded := newMemoOracle()
		folded.fold(workers[0])
		folded.fold(workers[1])

		md := logical.NewMetadata()
		cols := md.AddTable(def, def.Name)
		ords := make([]int, len(cols))
		for i := range ords {
			ords[i] = i
		}
		nk := len(sh.kinds)
		plan := &physical.HashGroupBy{Props: physical.Props{Rows: sh.est},
			Input:     &physical.TableScan{Table: def, Binding: def.Name, Cols: cols, ColOrds: ords},
			GroupCols: cols[:nk],
			Aggs: []logical.AggItem{
				{ID: 100, Fn: logical.AggCount},
				{ID: 101, Fn: logical.AggSum, Arg: &logical.Col{ID: cols[nk]}},
			},
		}
		for _, run := range []struct {
			name    string
			workers int
			budget  int64
		}{{"serial", 1, 0}, {"two-workers", 2, 0}, {"spilled", 2, 4 << 10}} {
			label := fmt.Sprintf("%s %s", sh.name, run.name)
			want, tables := serial, []*memoOracle{serial}
			if run.workers == 2 && run.budget == 0 {
				want, tables = folded, workers
			}
			c := NewCtx(store, md)
			c.Parallelism, c.Mem, c.TempDir = run.workers, NewMemAccount(run.budget), t.TempDir()
			c.EnableAnalyze()
			res, err := Run(plan, c)
			c.Close()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// A table of 64 groups or more outgrows the 4 KiB budget.
			if spilled := c.Counters.Spills > 0; spilled != (run.budget > 0) && len(serial.keys) >= 64 {
				t.Fatalf("%s: %d spill files", label, c.Counters.Spills)
			}
			got, exp := hexRowsInOrder(res), hexRowsInOrder(want.rows())
			if len(got) != len(exp) {
				t.Fatalf("%s: %d groups, oracle %d", label, len(got), len(exp))
			}
			for i := range exp {
				if got[i] != exp[i] {
					t.Fatalf("%s: group %d = %s, oracle %s", label, i, got[i], exp[i])
				}
			}
			if c.Counters.HashOps != int64(len(rows)) {
				t.Fatalf("%s: HashOps %d, want one per row, %d", label, c.Counters.HashOps, len(rows))
			}
			if run.budget > 0 {
				continue
			}
			// What the node held past its groups is the memo's: some bytes
			// where a morsel qualified, none where none did, and never more
			// than its cap per worker.
			memo := c.Metrics.Node(plan).PeakMemBytes
			for _, o := range tables {
				memo -= o.tableBytes()
			}
			hint := min(int(sh.est), (len(rows)+run.workers-1)/run.workers)
			limit := int64(4 * max(4*hint, memoFloor))
			if (memo > 0) != sh.memo || memo < 0 || memo > int64(run.workers)*limit {
				t.Fatalf("%s: the memo held %d bytes, want some %v, at most %d", label, memo, sh.memo, int64(run.workers)*limit)
			}
		}
	}
}
