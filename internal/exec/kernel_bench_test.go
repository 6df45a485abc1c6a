package exec

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// The executor's micro-benchmarks (`make exec-bench`): one plan run per
// iteration on one worker, over a 100 000-row fact table, reporting ns/row of
// input next to -benchmem's B/op and allocs/op. BenchmarkKernel* time one
// operator above its input scans, BenchmarkFilteredScan the scan itself, and
// BenchmarkPipeline* whole pipelines — scan to aggregate, through up to three
// probes — over pinned and file-backed segments.

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

func newBenchFixture(b testing.TB, store *storage.Store, groups int) *benchFixture {
	b.Helper()
	fact := &catalog.Table{Name: "F", Cols: []catalog.Column{
		{Name: "g", Kind: datum.KindInt},
		{Name: "a", Kind: datum.KindInt}, {Name: "b", Kind: datum.KindInt}, {Name: "c", Kind: datum.KindInt},
		{Name: "sel", Kind: datum.KindInt}, {Name: "s", Kind: datum.KindString}, {Name: "x", Kind: datum.KindFloat},
	}}
	dim := benchDim("D")
	loadBenchTable(b, store, fact, benchFactRows, func(i int) datum.Row {
		h := (i * 7919) % benchFactRows // scatter, so no column follows the row order
		g := h % groups
		return datum.Row{
			datum.NewInt(int64(g)),
			datum.NewInt(int64(g % 20)), datum.NewInt(int64(g / 20 % 50)), datum.NewInt(int64(g / 1000)),
			datum.NewInt(int64(h % 100)), datum.NewString(fmt.Sprintf("region-%d", h%8)), datum.NewFloat(float64(h%977) / 4),
		}
	})
	loadBenchTable(b, store, dim, 1000, func(i int) datum.Row { return datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i * 3))} })
	md := logical.NewMetadata()
	f := &benchFixture{store: store, md: md}
	f.fc, f.dc = md.AddTable(fact, "f"), md.AddTable(dim, "d")
	f.fScan = &physical.TableScan{Table: fact, Binding: "f", Cols: f.fc, ColOrds: []int{0, 1, 2, 3, 4, 5, 6}}
	f.dScan = &physical.TableScan{Table: dim, Binding: "d", Cols: f.dc, ColOrds: []int{0, 1}}
	return f
}

// benchDim is a dimension table D(k, v).
func benchDim(name string) *catalog.Table {
	return &catalog.Table{Name: name, Cols: []catalog.Column{{Name: "k", Kind: datum.KindInt}, {Name: "v", Kind: datum.KindInt}}}
}

// loadBenchTable creates def in store with the rows row(0..n-1) and seals
// them.
func loadBenchTable(b testing.TB, store *storage.Store, def *catalog.Table, n int, row func(i int) datum.Row) {
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

// run times plan: wantRows guards against a plan that silently does less.
func (f *benchFixture) run(b *testing.B, plan physical.Plan, wantRows int) {
	b.Helper()
	c := NewCtx(f.store, f.md)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := c.run(plan)
		if err != nil {
			b.Fatal(err)
		}
		if n := batch.NumRows(); n != wantRows {
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

// BenchmarkKernelSum times FLOAT SUM hash aggregation, the exact sum's add,
// over money-like values (cents up to 10^4) and over values spread across
// 40 binary orders (about 10^-6 to 10^6), at 1, 1000 and 20 000 groups.
func BenchmarkKernelSum(b *testing.B) {
	data := []struct {
		name string
		x    func(h int) float64
	}{
		{"money", func(h int) float64 { return float64(h%1_000_000) / 100 }},
		{"wide", func(h int) float64 { return math.Ldexp(1+float64(h%997)/997, h%41-20) }},
	}
	for _, d := range data {
		for _, groups := range []int{1, 1000, 20000} {
			b.Run(fmt.Sprintf("%s/groups=%d", d.name, groups), func(b *testing.B) {
				def := &catalog.Table{Name: "S", Cols: []catalog.Column{{Name: "g", Kind: datum.KindInt}, {Name: "x", Kind: datum.KindFloat}}}
				store := storage.NewStore()
				tab, err := store.CreateTable(def)
				if err != nil {
					b.Fatal(err)
				}
				rows := make([]datum.Row, benchFactRows)
				for i := range rows {
					h := (i * 7919) % benchFactRows
					rows[i] = datum.Row{datum.NewInt(int64(h % groups)), datum.NewFloat(d.x(h))}
				}
				if err := tab.InsertBatch(rows); err != nil {
					b.Fatal(err)
				}
				if err := tab.Flush(); err != nil {
					b.Fatal(err)
				}
				md := logical.NewMetadata()
				cols := md.AddTable(def, "s")
				plan := &physical.HashGroupBy{Props: physical.Props{Rows: float64(groups)},
					Input:     &physical.TableScan{Table: def, Binding: "s", Cols: cols, ColOrds: []int{0, 1}},
					GroupCols: cols[:1], Aggs: []logical.AggItem{{ID: 100, Fn: logical.AggSum, Arg: &logical.Col{ID: cols[1]}}}}
				(&benchFixture{store: store, md: md}).run(b, plan, groups)
			})
		}
	}
}

// BenchmarkKernelHashJoinProbe probes a dimension with the fact table's
// 1000-value column g. The dimension's keys are 0..999 (dense-unique: the
// direct map), those and one more at 2^40 (sparse: hash chains), or 0..999
// twice (duplicate: hash chains, two matches per probe). collect gathers and
// collects every column of the join output; count puts a COUNT(*) above the
// join, which reads no column of it, so it times the probe itself.
func BenchmarkKernelHashJoinProbe(b *testing.B) {
	f := newBenchFixture(b, storage.NewStore(), 1000)
	for _, bc := range []struct {
		name        string
		rows, match int // build rows, matches per probe
		key         func(i int) int64
	}{
		{"dense-unique", 1000, 1, func(i int) int64 { return int64(i) }},
		{"sparse", 1001, 1, func(i int) int64 { return int64(i) + int64(i/1000)<<40 }},
		{"duplicate", 2000, 2, func(i int) int64 { return int64(i % 1000) }},
	} {
		dim := benchDim("D_" + bc.name)
		loadBenchTable(b, f.store, dim, bc.rows, func(i int) datum.Row { return datum.Row{datum.NewInt(bc.key(i)), datum.NewInt(int64(i))} })
		dc := f.md.AddTable(dim, "d_"+bc.name)
		plan := &physical.HashJoin{Kind: logical.InnerJoin, Left: f.fScan, LeftKeys: f.fc[0:1], RightKeys: dc[0:1],
			Right: &physical.TableScan{Table: dim, Binding: "d_" + bc.name, Cols: dc, ColOrds: []int{0, 1}}}
		b.Run(bc.name+"/collect", func(b *testing.B) { f.run(b, plan, benchFactRows*bc.match) })
		count := &physical.HashGroupBy{Props: physical.Props{Rows: 1}, Input: plan, Aggs: []logical.AggItem{{ID: 100, Fn: logical.AggCount}}}
		b.Run(bc.name+"/count", func(b *testing.B) { f.run(b, count, 1) })
	}
}

// BenchmarkFilteredScan collects a filtered scan: the predicate reads one
// column, the other six are loaded for the morsels that have survivors.
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

// pipelinePlans are the analytic shapes as single pipelines (plus the builds
// of the star's three dimensions): a filtered scalar aggregate, a filtered
// 1000-group aggregation, and a three-dimension star join — the dimension
// table under three bindings, on a 1000-, a 100- and a 20-value key — grouped
// on two dimension attributes.
func pipelinePlans(f *benchFixture) map[string]physical.Plan {
	col := func(id logical.ColumnID) logical.Scalar { return &logical.Col{ID: id} }
	lt := func(id logical.ColumnID, v int64) []logical.Scalar {
		return []logical.Scalar{&logical.Cmp{Op: logical.CmpLt, L: col(id), R: &logical.Const{Val: datum.NewInt(v)}}}
	}
	aggs := []logical.AggItem{{ID: 100, Fn: logical.AggCount}, {ID: 101, Fn: logical.AggSum, Arg: col(f.fc[6])}}
	filtered := *f.fScan
	filtered.Filter = lt(f.fc[4], 50)
	var star physical.Plan = &filtered
	var attrs []logical.ColumnID
	for i, key := range []logical.ColumnID{f.fc[0], f.fc[4], f.fc[1]} {
		dc := f.md.AddTable(f.dScan.Table, fmt.Sprintf("d%d", i+1))
		dim := &physical.TableScan{Table: f.dScan.Table, Binding: fmt.Sprintf("d%d", i+1), Cols: dc, ColOrds: []int{0, 1}}
		star = &physical.HashJoin{Kind: logical.InnerJoin, Left: star, Right: dim, LeftKeys: []logical.ColumnID{key}, RightKeys: dc[:1]}
		attrs = append(attrs, dc[1])
	}
	return map[string]physical.Plan{
		"FilterAgg":   &physical.HashGroupBy{Props: physical.Props{Rows: 1}, Input: &filtered, Aggs: aggs},
		"GroupBy1000": &physical.HashGroupBy{Props: physical.Props{Rows: 1000}, Input: &filtered, GroupCols: f.fc[0:1], Aggs: aggs},
		"Star3Dim":    &physical.HashGroupBy{Props: physical.Props{Rows: 500}, Input: star, GroupCols: attrs[:2], Aggs: aggs},
	}
}

// The filter keeps the 500 of the 1000 groups whose rows have sel < 50.
var pipelineRows = map[string]int{"FilterAgg": 1, "GroupBy1000": 500, "Star3Dim": 500}

func BenchmarkPipeline(b *testing.B) {
	for _, backing := range []string{"pinned", "files"} {
		cfg := storage.StoreConfig{}
		if backing == "files" {
			cfg.Dir = b.TempDir()
		}
		f := newBenchFixture(b, storage.NewStoreWith(cfg), 1000)
		for name, plan := range pipelinePlans(f) {
			b.Run(name+"/"+backing, func(b *testing.B) { f.run(b, plan, pipelineRows[name]) })
		}
	}
}

// BenchmarkOrdered times the order-related operators through Run, result
// rows included, on one worker: a top 10 and a 5000-row sort of filtered fact
// rows, a merge join of 5000 sorted fact rows with the sorted dimension, a
// nested-loop join of the dimension with itself (a million pairs, 334 out),
// and a nested-loop semi join of the dimension with the fact table's group
// column, whose every key matches within the first few hundred fact rows.
func BenchmarkOrdered(b *testing.B) {
	f := newBenchFixture(b, storage.NewStore(), 1000)
	col := func(id logical.ColumnID) logical.Scalar { return &logical.Col{ID: id} }
	sel := func(pct int64) *physical.TableScan {
		s := *f.fScan
		s.Filter = []logical.Scalar{&logical.Cmp{Op: logical.CmpLt, L: col(f.fc[4]), R: &logical.Const{Val: datum.NewInt(pct)}}}
		return &s
	}
	d2 := f.md.AddTable(f.dScan.Table, "d2")
	dim2 := &physical.TableScan{Table: f.dScan.Table, Binding: "d2", Cols: d2, ColOrds: []int{0, 1}}
	plans := []struct {
		name string
		plan physical.Plan
		rows int
	}{
		{"TopN", &physical.LimitOp{N: 10, Input: &physical.Sort{Input: sel(50), By: logical.Ordering{{Col: f.fc[6], Desc: true}, {Col: f.fc[0]}}}}, 10},
		{"Sort", &physical.Sort{Input: sel(5), By: logical.Ordering{{Col: f.fc[5]}, {Col: f.fc[6]}}}, 5000},
		{"MergeJoin", &physical.MergeJoin{Kind: logical.InnerJoin, LeftKeys: f.fc[:1], RightKeys: f.dc[:1],
			Left:  &physical.Sort{Input: sel(5), By: logical.Ordering{{Col: f.fc[0]}}},
			Right: &physical.Sort{Input: f.dScan, By: logical.Ordering{{Col: f.dc[0]}}}}, 5000},
		{"NLJoin", &physical.NLJoin{Kind: logical.InnerJoin, Left: f.dScan, Right: dim2,
			On: []logical.Scalar{&logical.Cmp{Op: logical.CmpEq, L: col(f.dc[0]), R: col(d2[1])}}}, 334},
		{"NLSemiJoin", &physical.NLJoin{Kind: logical.SemiJoin, Left: f.dScan, Right: &physical.TableScan{Table: f.fScan.Table, Binding: "f", Cols: f.fc[:1], ColOrds: []int{0}},
			On: []logical.Scalar{&logical.Cmp{Op: logical.CmpEq, L: col(f.dc[0]), R: col(f.fc[0])}}}, 1000},
	}
	for _, p := range plans {
		b.Run(p.name, func(b *testing.B) {
			c := NewCtx(f.store, f.md)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(p.plan, c)
				if err != nil || len(res.Rows) != p.rows {
					b.Fatalf("%d rows, err %v; want %d rows", len(res.Rows), err, p.rows)
				}
			}
		})
	}
}

// BenchmarkSpill times the operators that spill, on one worker under a 1 MiB
// budget: a grace hash join whose build side is the fact table (5000 rows
// out) and a 20 000-group aggregation. Spill files go to the benchmark's
// temporary directory.
func BenchmarkSpill(b *testing.B) {
	f := newBenchFixture(b, storage.NewStore(), 20000)
	aggs := []logical.AggItem{{ID: 100, Fn: logical.AggCount}, {ID: 101, Fn: logical.AggSum, Arg: &logical.Col{ID: f.fc[6]}}}
	plans := []struct {
		name string
		plan physical.Plan
		rows int
	}{
		{"GraceJoin", &physical.HashJoin{Kind: logical.InnerJoin, Left: f.dScan, Right: f.fScan, LeftKeys: f.dc[:1], RightKeys: f.fc[:1]}, 5000},
		{"GroupBy20000", &physical.HashGroupBy{Props: physical.Props{Rows: 20000}, Input: f.fScan, GroupCols: f.fc[:1], Aggs: aggs}, 20000},
	}
	for _, p := range plans {
		b.Run(p.name, func(b *testing.B) {
			c := NewCtx(f.store, f.md)
			c.TempDir = b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Mem, c.Counters = NewMemAccount(1<<20), Counters{}
				batch, err := c.run(p.plan)
				if err != nil {
					b.Fatal(err)
				}
				if batch.NumRows() != p.rows || c.Counters.Spills == 0 {
					b.Fatalf("%d rows, %d spills; want %d rows and a spill", batch.NumRows(), c.Counters.Spills, p.rows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchFactRows, "ns/row")
		})
	}
}

// TestPipelineAllocCeiling pins what a pipeline allocates per run: its
// workers' morsel scratch, the build and group tables and the result — not
// the intermediate results. Measured on one worker over 100 000 pinned rows:
// the star join 398 KiB (17.5 MiB at the parent commit, which materialized
// the scan's and every join's output), the filtered scalar aggregate 40 KiB
// (3.5 MiB); the ceilings are 1.5x that.
func TestPipelineAllocCeiling(t *testing.T) {
	f := newBenchFixture(t, storage.NewStore(), 1000)
	plans := pipelinePlans(f)
	for name, ceiling := range map[string]uint64{"Star3Dim": 600 << 10, "FilterAgg": 60 << 10} {
		c := NewCtx(f.store, f.md)
		best := ^uint64(0)
		for run := 0; run < 4; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b, err := c.run(plans[name])
			runtime.ReadMemStats(&after)
			if err != nil || b.NumRows() != pipelineRows[name] {
				t.Fatalf("%s: %d rows, err %v; want %d rows", name, b.NumRows(), err, pipelineRows[name])
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d KiB allocated per run, ceiling %d KiB", name, best>>10, ceiling>>10)
		if best > ceiling {
			t.Errorf("%s allocates %d bytes per run, ceiling %d", name, best, ceiling)
		}
	}
}

// TestShortPipelineAllocs pins what a pipeline under one morsel costs — every
// OLTP statement's: scratch is sized for the rows the source has, not for a
// full morsel, and a one-stage pipeline is a handful of allocations. A 50-row
// table grouped on a 5-value key, on one worker: 4.4 KiB in 45 allocations a
// run (16.4 KiB in 56 with MorselSize-sized hash and group-id scratch); the
// ceilings are 1.2x that.
func TestShortPipelineAllocs(t *testing.T) {
	def := &catalog.Table{Name: "S", Cols: []catalog.Column{{Name: "k", Kind: datum.KindInt}, {Name: "v", Kind: datum.KindFloat}}}
	store := storage.NewStore()
	tab, err := store.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]datum.Row, 50)
	for i := range rows {
		rows[i] = datum.Row{datum.NewInt(int64(i % 5)), datum.NewFloat(float64(i))}
	}
	if err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	md := logical.NewMetadata()
	cols := md.AddTable(def, "s")
	plan := &physical.HashGroupBy{
		Props:     physical.Props{Rows: 5},
		Input:     &physical.TableScan{Table: def, Binding: "s", Cols: cols, ColOrds: []int{0, 1}},
		GroupCols: cols[:1],
		Aggs:      []logical.AggItem{{ID: 100, Fn: logical.AggCount}, {ID: 101, Fn: logical.AggSum, Arg: &logical.Col{ID: cols[1]}}},
	}
	c := NewCtx(store, md)
	run := func() {
		if b, err := c.run(plan); err != nil || b.NumRows() != 5 {
			t.Fatalf("%d rows, err %v; want 5 rows", b.NumRows(), err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, testing.AllocsPerRun(20, run)
	t.Logf("%d bytes, %.0f allocations per run", bytes, allocs)
	if bytes > 5500 || allocs > 54 {
		t.Errorf("a 50-row aggregation allocates %d bytes in %.0f allocations per run; ceilings 5500 and 54", bytes, allocs)
	}
}
