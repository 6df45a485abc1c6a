package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// The kernel operators' micro-benchmarks (`make exec-bench`): one plan run
// per iteration on one worker, over a 100 000-row fact table, reporting
// ns/row of input next to -benchmem's allocs/op. Each plan includes its input
// scans — an unfiltered scan is a bulk copy and small beside the operator
// above it; the filtered scans are the operator under test.

const benchFactRows = 100000

// benchFixture is a fact table F(g, a, b, c, sel, s, x) and a 1000-row
// dimension D(k, v). g takes `groups` values and is the single grouping (and
// join) key; (a, b, c) = (g mod 20, g/20 mod 50, g/1000) is the same
// grouping spread over three columns. sel is uniform over 0..99 for
// selectivity predicates, s a low-cardinality string that seals
// dictionary-encoded.
type benchFixture struct {
	store        *storage.Store
	md           *logical.Metadata
	fc, dc       []logical.ColumnID
	fScan, dScan *physical.TableScan
}

func newBenchFixture(b *testing.B, store *storage.Store, groups int) *benchFixture {
	b.Helper()
	fact := &catalog.Table{Name: "F", Cols: []catalog.Column{
		{Name: "g", Kind: datum.KindInt},
		{Name: "a", Kind: datum.KindInt}, {Name: "b", Kind: datum.KindInt}, {Name: "c", Kind: datum.KindInt},
		{Name: "sel", Kind: datum.KindInt}, {Name: "s", Kind: datum.KindString}, {Name: "x", Kind: datum.KindFloat},
	}}
	dim := &catalog.Table{Name: "D", Cols: []catalog.Column{{Name: "k", Kind: datum.KindInt}, {Name: "v", Kind: datum.KindInt}}}
	load := func(def *catalog.Table, n int, row func(i int) datum.Row) {
		tab, err := store.CreateTable(def)
		if err != nil {
			b.Fatal(err)
		}
		rows := make([]datum.Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		if err := tab.InsertBatch(rows); err != nil {
			b.Fatal(err)
		}
		if err := tab.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	load(fact, benchFactRows, func(i int) datum.Row {
		h := (i * 7919) % benchFactRows // scatter, so no column follows the row order
		g := h % groups
		return datum.Row{
			datum.NewInt(int64(g)),
			datum.NewInt(int64(g % 20)), datum.NewInt(int64(g / 20 % 50)), datum.NewInt(int64(g / 1000)),
			datum.NewInt(int64(h % 100)), datum.NewString(fmt.Sprintf("region-%d", h%8)), datum.NewFloat(float64(h%977) / 4),
		}
	})
	load(dim, 1000, func(i int) datum.Row { return datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i * 3))} })
	md := logical.NewMetadata()
	f := &benchFixture{store: store, md: md}
	f.fc, f.dc = md.AddTable(fact, "f"), md.AddTable(dim, "d")
	f.fScan = &physical.TableScan{Table: fact, Binding: "f", Cols: f.fc, ColOrds: []int{0, 1, 2, 3, 4, 5, 6}}
	f.dScan = &physical.TableScan{Table: dim, Binding: "d", Cols: f.dc, ColOrds: []int{0, 1}}
	return f
}

// run times plan: wantRows guards against a plan that silently does less.
func (f *benchFixture) run(b *testing.B, plan physical.Plan, wantRows int) {
	b.Helper()
	c := NewCtx(f.store, f.md)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, rows, err := c.run(plan)
		if err != nil {
			b.Fatal(err)
		}
		n := len(rows)
		if batch != nil {
			n = batch.NumRows()
		}
		if n != wantRows {
			b.Fatalf("%d rows, want %d", n, wantRows)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchFactRows, "ns/row")
}

func BenchmarkKernelGroupBy(b *testing.B) {
	for _, groups := range []int{8, 1000, 20000} {
		f := newBenchFixture(b, storage.NewStore(), groups)
		aggs := []logical.AggItem{
			{ID: 100, Fn: logical.AggCount},
			{ID: 101, Fn: logical.AggSum, Arg: &logical.Col{ID: f.fc[6]}},
		}
		for _, keys := range [][]logical.ColumnID{f.fc[0:1], f.fc[1:4]} {
			b.Run(fmt.Sprintf("groups=%d/keys=%d", groups, len(keys)), func(b *testing.B) {
				plan := &physical.HashGroupBy{Props: physical.Props{Rows: float64(groups)}, Input: f.fScan, GroupCols: keys, Aggs: aggs}
				f.run(b, plan, groups)
			})
		}
	}
}

func BenchmarkKernelHashJoinProbe(b *testing.B) {
	f := newBenchFixture(b, storage.NewStore(), 1000)
	plan := &physical.HashJoin{Kind: logical.InnerJoin, Left: f.fScan, Right: f.dScan,
		LeftKeys: f.fc[0:1], RightKeys: f.dc[0:1]}
	f.run(b, plan, benchFactRows)
}

// BenchmarkFilteredScan is late materialization: the predicate reads one
// column, the survivors' other six are gathered by id.
func BenchmarkFilteredScan(b *testing.B) {
	for _, backing := range []string{"pinned", "files"} {
		cfg := storage.StoreConfig{}
		if backing == "files" {
			cfg.Dir = b.TempDir()
		}
		f := newBenchFixture(b, storage.NewStoreWith(cfg), 1000)
		for _, pct := range []int64{10, 85} {
			b.Run(fmt.Sprintf("%s/selectivity=%d%%", backing, pct), func(b *testing.B) {
				scan := *f.fScan
				scan.Filter = []logical.Scalar{&logical.Cmp{Op: logical.CmpLt, L: &logical.Col{ID: f.fc[4]}, R: &logical.Const{Val: datum.NewInt(pct)}}}
				f.run(b, &scan, benchFactRows*int(pct)/100)
			})
		}
	}
}
