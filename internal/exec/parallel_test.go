package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// parFixture holds two tables big enough to cross the minParallelRows
// threshold, with small key domains (duplicates) and ~10% NULL keys so every
// join/group edge case is exercised.
type parFixture struct {
	store        *storage.Store
	md           *logical.Metadata
	r, s         *catalog.Table
	rCols, sCols []logical.ColumnID
	rScan, sScan *physical.TableScan
}

func newParFixture(t testing.TB, nR, nS int, seed int64) *parFixture {
	t.Helper()
	return newParFixtureOn(t, storage.NewStore(), nR, nS, seed)
}

// newParFixtureOn builds the fixture's tables in the given store, which may
// be disk-backed.
func newParFixtureOn(t testing.TB, store *storage.Store, nR, nS int, seed int64) *parFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := &catalog.Table{Name: "R", Cols: []catalog.Column{
		{Name: "k", Kind: datum.KindInt},
		{Name: "v", Kind: datum.KindInt},
		{Name: "f", Kind: datum.KindFloat},
	}}
	s := &catalog.Table{Name: "S", Cols: []catalog.Column{
		{Name: "k", Kind: datum.KindInt},
		{Name: "w", Kind: datum.KindInt},
	}}
	rt, err := store.CreateTable(r)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	mkKey := func() datum.D {
		if rng.Intn(10) == 0 {
			return datum.Null
		}
		return datum.NewInt(int64(rng.Intn(40)))
	}
	rRows := make([]datum.Row, nR)
	for i := range rRows {
		rRows[i] = datum.Row{mkKey(), datum.NewInt(int64(i)), datum.NewFloat(float64(rng.Intn(1000)) / 4)}
	}
	if err := rt.InsertBatch(rRows); err != nil {
		t.Fatal(err)
	}
	sRows := make([]datum.Row, nS)
	for i := range sRows {
		sRows[i] = datum.Row{mkKey(), datum.NewInt(int64(i + 1_000_000))}
	}
	if err := st.InsertBatch(sRows); err != nil {
		t.Fatal(err)
	}
	md := logical.NewMetadata()
	rCols := md.AddTable(r, "r")
	sCols := md.AddTable(s, "s")
	return &parFixture{
		store: store, md: md, r: r, s: s, rCols: rCols, sCols: sCols,
		rScan: &physical.TableScan{Table: r, Binding: "r", Cols: rCols, ColOrds: []int{0, 1, 2}},
		sScan: &physical.TableScan{Table: s, Binding: "s", Cols: sCols, ColOrds: []int{0, 1}},
	}
}

// ctx returns an execution context at the given degree; parallel contexts own
// a pool released at test cleanup.
func (f *parFixture) ctx(t testing.TB, degree int) *Ctx {
	c := NewCtx(f.store, f.md)
	if degree > 1 {
		c.Parallelism = degree
		t.Cleanup(c.Close)
	}
	return c
}

// runBoth executes plan serially and at the given degrees, requiring the
// parallel runs to reproduce the serial rows — exactly when exact is set,
// as a multiset otherwise.
func runBoth(t *testing.T, f *parFixture, plan physical.Plan, exact bool, degrees ...int) (*Ctx, *Result) {
	t.Helper()
	serialCtx := f.ctx(t, 1)
	want, err := Run(plan, serialCtx)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, d := range degrees {
		pc := f.ctx(t, d)
		got, err := Run(plan, pc)
		if err != nil {
			t.Fatalf("degree %d: %v", d, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("degree %d: %d rows, serial %d", d, len(got.Rows), len(want.Rows))
		}
		if exact {
			for i := range want.Rows {
				if want.Rows[i].String() != got.Rows[i].String() {
					t.Fatalf("degree %d: row %d = %s, serial %s", d, i, got.Rows[i], want.Rows[i])
				}
			}
		} else if strings.Join(rowStrings(got), ";") != strings.Join(rowStrings(want), ";") {
			t.Fatalf("degree %d: multiset differs from serial", d)
		}
	}
	return serialCtx, want
}

func TestParallelScanFilterProjectMatchesSerial(t *testing.T) {
	f := newParFixture(t, 6000, 0, 1)
	k, v := f.rCols[0], f.rCols[1]
	plan := &physical.Project{
		Input: &physical.Filter{
			Input: f.rScan,
			Preds: []logical.Scalar{&logical.Cmp{Op: logical.CmpLt, L: &logical.Col{ID: k}, R: &logical.Const{Val: datum.NewInt(30)}}},
		},
		Items: []logical.ProjectItem{
			{ID: v, Expr: &logical.Col{ID: v}},
			{ID: k, Expr: &logical.Arith{Op: logical.ArithAdd, L: &logical.Col{ID: k}, R: &logical.Const{Val: datum.NewInt(7)}}},
		},
	}
	sc, _ := runBoth(t, f, plan, true, 2, 4, 8)

	// Counter parity: the same rows are processed regardless of degree.
	pc := f.ctx(t, 4)
	if _, err := Run(plan, pc); err != nil {
		t.Fatal(err)
	}
	if pc.Counters.RowsProcessed != sc.Counters.RowsProcessed {
		t.Errorf("RowsProcessed: parallel %d, serial %d", pc.Counters.RowsProcessed, sc.Counters.RowsProcessed)
	}
}

// Filters pushed into the scan node itself run inside the scan's morsel body.
func TestParallelTableScanWithPushedFilter(t *testing.T) {
	f := newParFixture(t, 5000, 0, 2)
	v := f.rCols[1]
	scan := &physical.TableScan{
		Table: f.r, Binding: "r", Cols: f.rCols, ColOrds: []int{0, 1, 2},
		Filter: []logical.Scalar{&logical.Cmp{Op: logical.CmpGe, L: &logical.Col{ID: v}, R: &logical.Const{Val: datum.NewInt(1000)}}},
	}
	runBoth(t, f, scan, true, 4)
}

// joinKeyFixture is two sealed tables for the kernel join's key and gather
// paths. Every 512-row segment of a table holds the table's whole string
// domain, so a scan keeps one dictionary per table — and the two tables'
// domains only overlap, so probe and build side speak different code spaces.
// ki is dense (its hashes collide in the low bits), m is an INT column
// holding FLOAT datums (a boxed vector), f and w carry NULLs.
func newJoinKeyFixture(t testing.TB) (f *parFixture, p, b []logical.ColumnID) {
	t.Helper()
	store := storage.NewStoreWith(storage.StoreConfig{SegmentRows: 512})
	pDef := &catalog.Table{Name: "P", Cols: []catalog.Column{
		{Name: "ks", Kind: datum.KindString}, {Name: "ki", Kind: datum.KindInt},
		{Name: "m", Kind: datum.KindInt}, {Name: "f", Kind: datum.KindFloat},
	}}
	bDef := &catalog.Table{Name: "B", Cols: []catalog.Column{
		{Name: "ks", Kind: datum.KindString}, {Name: "ki", Kind: datum.KindInt}, {Name: "w", Kind: datum.KindInt},
	}}
	load := func(def *catalog.Table, n int, row func(i int) datum.Row) {
		tab, err := store.CreateTable(def)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]datum.Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		if err := tab.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	load(pDef, 6144, func(i int) datum.Row {
		r := datum.Row{datum.NewString(fmt.Sprintf("k%02d", i%64)), datum.NewInt(int64(i % 3000)), datum.NewInt(int64(i)), datum.Null}
		if i%64 == 63 {
			r[0] = datum.Null
		}
		if i%3 == 0 {
			r[2] = datum.NewFloat(float64(i) + 0.5)
		}
		if i%7 != 0 {
			r[3] = datum.NewFloat(float64(i%1000) / 8)
		}
		return r
	})
	load(bDef, 2560, func(i int) datum.Row {
		r := datum.Row{datum.NewString(fmt.Sprintf("k%02d", 32+i%64)), datum.NewInt(int64(i % 2000)), datum.Null}
		if i%64 == 0 {
			r[0] = datum.Null
		}
		if i%5 != 0 {
			r[2] = datum.NewInt(int64(i))
		}
		return r
	})
	md := logical.NewMetadata()
	p, b = md.AddTable(pDef, "p"), md.AddTable(bDef, "b")
	return &parFixture{
		store: store, md: md, r: pDef, s: bDef, rCols: p, sCols: b,
		rScan: &physical.TableScan{Table: pDef, Binding: "p", Cols: p, ColOrds: []int{0, 1, 2, 3}},
		sScan: &physical.TableScan{Table: bDef, Binding: "b", Cols: b, ColOrds: []int{0, 1, 2}},
	}, p, b
}

// TestParallelHashJoinMatchesSerial: every join kind against the row join
// (Vectorize off, one worker) — the same rows in the same order at every
// degree, the same HashOps, RowsProcessed and peak memory. Without an extra
// predicate the kernel join claims the node, so this is vecHashJoin on
// several workers. The R/S inputs run as bare scans (dense batches, every key
// value on both sides) and filtered to overlapping key ranges that keep the
// NULL keys (selection vectors, unmatched rows on both sides); the P/B inputs
// bring dense integer keys, string keys under two dictionaries and a
// two-column key, with boxed and NULL-bearing columns to gather.
func TestParallelHashJoinMatchesSerial(t *testing.T) {
	rs := newParFixture(t, 4000, 2500, 3)
	rk, sk := rs.rCols[0:1], rs.sCols[0:1]
	keyRange := func(in physical.Plan, k logical.ColumnID, op logical.CmpOp, bound int64) physical.Plan {
		return &physical.Filter{Input: in, Preds: []logical.Scalar{&logical.Or{
			L: &logical.Cmp{Op: op, L: &logical.Col{ID: k}, R: &logical.Const{Val: datum.NewInt(bound)}},
			R: &logical.IsNull{E: &logical.Col{ID: k}},
		}}}
	}
	pb, p, b := newJoinKeyFixture(t)
	// The dictionary row is only that if both scans stay encoded, apart.
	pBatch, err := pb.ctx(t, 1).run(pb.rScan)
	if err != nil {
		t.Fatal(err)
	}
	bBatch, err := pb.ctx(t, 1).run(pb.sScan)
	if err != nil {
		t.Fatal(err)
	}
	if pd, bd := pBatch.Vecs[0].Dict, bBatch.Vecs[0].Dict; pd == nil || bd == nil || pd == bd {
		t.Fatalf("fixture: probe dictionary %p, build dictionary %p — want two distinct ones", pd, bd)
	}
	if !pBatch.Vecs[2].Boxed() || !pBatch.Vecs[3].HasNulls() || !bBatch.Vecs[2].HasNulls() {
		t.Fatal("fixture: want a boxed and two NULL-bearing gather sources")
	}
	for _, in := range []struct {
		name                string
		f                   *parFixture
		left, right         physical.Plan
		leftKeys, rightKeys []logical.ColumnID
	}{
		{"scans", rs, rs.rScan, rs.sScan, rk, sk},
		{"key-ranges", rs, keyRange(rs.rScan, rk[0], logical.CmpLt, 30), keyRange(rs.sScan, sk[0], logical.CmpGe, 10), rk, sk},
		{"dense-int", pb, pb.rScan, pb.sScan, p[1:2], b[1:2]},
		{"two-dictionaries", pb, pb.rScan, pb.sScan, p[0:1], b[0:1]},
		{"two-keys", pb, pb.rScan, pb.sScan, p[0:2], b[0:2]},
	} {
		for _, kind := range []logical.JoinKind{
			logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin,
			logical.SemiJoin, logical.AntiJoin,
		} {
			plan := &physical.HashJoin{Kind: kind, Left: in.left, Right: in.right, LeftKeys: in.leftKeys, RightKeys: in.rightKeys}
			kernelsOff := in.f.ctx(t, 1)
			kernelsOff.Vectorize, kernelsOff.Mem = false, NewMemAccount(0)
			res, err := Run(plan, kernelsOff)
			if err != nil {
				t.Fatalf("%s %v kernels off: %v", in.name, kind, err)
			}
			want := hexRowsInOrder(res)
			if len(want) == 0 {
				t.Fatalf("%s %v: degenerate fixture, no rows", in.name, kind)
			}
			for _, degree := range []int{1, 2, 4, 8} {
				c := in.f.ctx(t, degree)
				c.Mem = NewMemAccount(0)
				c.EnableAnalyze()
				res, err := Run(plan, c)
				if err != nil {
					t.Fatalf("%s %v degree %d: %v", in.name, kind, degree, err)
				}
				if !c.Metrics.Node(plan).Vectorized {
					t.Fatalf("%s %v degree %d: the kernel join did not claim the node", in.name, kind, degree)
				}
				got := hexRowsInOrder(res)
				if len(got) != len(want) {
					t.Fatalf("%s %v degree %d: %d rows, kernels off %d", in.name, kind, degree, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %v degree %d: row %d = %s, kernels off %s", in.name, kind, degree, i, got[i], want[i])
					}
				}
				if c.Counters.HashOps != kernelsOff.Counters.HashOps || c.Counters.RowsProcessed != kernelsOff.Counters.RowsProcessed || c.Mem.Peak() != kernelsOff.Mem.Peak() {
					t.Errorf("%s %v degree %d: HashOps %d RowsProcessed %d peak %d, kernels off %d %d %d", in.name, kind, degree,
						c.Counters.HashOps, c.Counters.RowsProcessed, c.Mem.Peak(),
						kernelsOff.Counters.HashOps, kernelsOff.Counters.RowsProcessed, kernelsOff.Mem.Peak())
				}
			}
		}
	}
}

func TestParallelHashJoinExtraPredicate(t *testing.T) {
	f := newParFixture(t, 4000, 2500, 4)
	rk, rv, sk, sw := f.rCols[0], f.rCols[1], f.sCols[0], f.sCols[1]
	plan := &physical.HashJoin{
		Kind: logical.InnerJoin, Left: f.rScan, Right: f.sScan,
		LeftKeys: []logical.ColumnID{rk}, RightKeys: []logical.ColumnID{sk},
		ExtraOn: []logical.Scalar{&logical.Cmp{
			Op: logical.CmpLt,
			L:  &logical.Arith{Op: logical.ArithAdd, L: &logical.Col{ID: rv}, R: &logical.Const{Val: datum.NewInt(1_000_000)}},
			R:  &logical.Col{ID: sw},
		}},
	}
	runBoth(t, f, plan, true, 4)
}

func TestParallelNLJoinMatchesSerial(t *testing.T) {
	f := newParFixture(t, 3000, 40, 5)
	rk, sk := f.rCols[0], f.sCols[0]
	on := []logical.Scalar{&logical.Cmp{Op: logical.CmpEq, L: &logical.Col{ID: rk}, R: &logical.Col{ID: sk}}}
	for _, kind := range []logical.JoinKind{logical.InnerJoin, logical.FullOuterJoin, logical.AntiJoin} {
		plan := &physical.NLJoin{Kind: kind, Left: f.rScan, Right: f.sScan, On: on}
		runBoth(t, f, plan, true, 4)
	}
}

func TestParallelHashAggMatchesSerial(t *testing.T) {
	f := newParFixture(t, 6000, 0, 6)
	k, v, fl := f.rCols[0], f.rCols[1], f.rCols[2]
	aggs := []logical.AggItem{
		{ID: 100, Fn: logical.AggCount},
		{ID: 101, Fn: logical.AggSum, Arg: &logical.Col{ID: v}},
		{ID: 102, Fn: logical.AggAvg, Arg: &logical.Col{ID: fl}},
		{ID: 103, Fn: logical.AggMin, Arg: &logical.Col{ID: v}},
		{ID: 104, Fn: logical.AggMax, Arg: &logical.Col{ID: fl}},
		{ID: 105, Fn: logical.AggCount, Arg: &logical.Col{ID: fl}, Distinct: true},
	}
	plan := &physical.HashGroupBy{Input: f.rScan, GroupCols: []logical.ColumnID{k}, Aggs: aggs}
	// Group emission order is engine-specific: compare as multisets.
	sc, want := runBoth(t, f, plan, false, 2, 4, 8)
	if len(want.Rows) != 41 { // 40 key values + NULL group
		t.Fatalf("groups = %d, want 41", len(want.Rows))
	}
	pc := f.ctx(t, 4)
	if _, err := Run(plan, pc); err != nil {
		t.Fatal(err)
	}
	if pc.Counters.HashOps != sc.Counters.HashOps || pc.Counters.RowsProcessed != sc.Counters.RowsProcessed {
		t.Errorf("counters: parallel %+v, serial %+v", pc.Counters, sc.Counters)
	}
}

// Scalar aggregation (no group columns) must produce its single row at any
// degree, including the empty-input global group.
func TestParallelScalarAggMatchesSerial(t *testing.T) {
	f := newParFixture(t, 4000, 0, 7)
	v := f.rCols[1]
	aggs := []logical.AggItem{
		{ID: 100, Fn: logical.AggCount},
		{ID: 101, Fn: logical.AggSum, Arg: &logical.Col{ID: v}},
	}
	plan := &physical.HashGroupBy{Input: f.rScan, Aggs: aggs}
	runBoth(t, f, plan, true, 4)
}

// valuesOf is a plan leaf producing the given rows.
func valuesOf(cols []logical.ColumnID, rows []datum.Row) *physical.ValuesOp {
	v := &physical.ValuesOp{Cols: cols}
	for _, r := range rows {
		sr := make([]logical.Scalar, len(r))
		for i, d := range r {
			sr[i] = &logical.Const{Val: d}
		}
		v.Rows = append(v.Rows, sr)
	}
	return v
}

// hexRows renders rows with floats in exact hexadecimal form, sorted.
func hexRows(res *Result) []string {
	out := hexRowsInOrder(res)
	sort.Strings(out)
	return out
}

// hexRowsInOrder is hexRows in result order.
func hexRowsInOrder(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, d := range r {
			cells[j] = d.String()
			if d.Kind() == datum.KindFloat {
				cells[j] = strconv.FormatFloat(d.Float(), 'x', -1, 64)
			}
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}

// TestParallelKernelGroupByMatchesRowMode: no aggregate is DISTINCT, so the
// kernel aggregation claims the node and every typed accumulator's merge is
// exercised against the row accumulators. Group g covers rows [700g, 700g+700),
// so most groups are first seen by a worker other than 0; group 5 has only
// NULL arguments, group 3 only NULL strings, z is NULL everywhere, m mixes
// kinds (the boxed accumulator), and f spans sixteen orders of magnitude so
// a sum that is not exact would differ between partitionings.
func TestParallelKernelGroupByMatchesRowMode(t *testing.T) {
	cols := []logical.ColumnID{1, 2, 3, 4, 5, 6}
	g, v, fl, str, z, m := cols[0], cols[1], cols[2], cols[3], cols[4], cols[5]
	var rows []datum.Row
	for i := 0; i < 5000; i++ {
		grp := i / 700
		r := datum.Row{datum.NewInt(int64(grp)), datum.NewInt(int64(i)), datum.Null, datum.Null, datum.Null, datum.NewInt(int64(i % 13))}
		if i%97 == 0 {
			r[0] = datum.Null
		}
		if grp != 5 && i%11 != 0 {
			scale := []float64{1e-8, 1e-4, 1, 1e4, 1e8}[i%5]
			r[2] = datum.NewFloat(float64((i*7919)%100003) / 7 * scale)
		}
		if grp == 5 {
			r[1] = datum.Null
		}
		if grp != 3 && grp != 5 {
			r[3] = datum.NewString(fmt.Sprintf("s%03d", (i*7919)%1000))
		}
		if i%2 == 1 {
			r[5] = datum.NewString(fmt.Sprintf("m%d", i%7))
		}
		rows = append(rows, r)
	}
	arg := func(id logical.ColumnID) logical.Scalar { return &logical.Col{ID: id} }
	aggs := []logical.AggItem{
		{ID: 100, Fn: logical.AggCount},
		{ID: 101, Fn: logical.AggCount, Arg: arg(fl)},
		{ID: 102, Fn: logical.AggSum, Arg: arg(fl)},
		{ID: 103, Fn: logical.AggAvg, Arg: arg(fl)},
		{ID: 104, Fn: logical.AggSum, Arg: arg(v)},
		{ID: 105, Fn: logical.AggAvg, Arg: arg(v)},
		{ID: 106, Fn: logical.AggMin, Arg: arg(v)},
		{ID: 107, Fn: logical.AggMax, Arg: arg(fl)},
		{ID: 108, Fn: logical.AggMin, Arg: arg(str)},
		{ID: 109, Fn: logical.AggMax, Arg: arg(str)},
		{ID: 110, Fn: logical.AggSum, Arg: arg(z)},
		{ID: 111, Fn: logical.AggMin, Arg: arg(z)},
		{ID: 112, Fn: logical.AggMin, Arg: arg(m)},
		{ID: 113, Fn: logical.AggMax, Arg: arg(m)},
		{ID: 114, Fn: logical.AggCount, Arg: arg(m)},
	}
	// The hash-table rows. Small non-negative integers hash to FNV products
	// that differ only in their top bits, so dense keys all collide in a
	// bucket index taken from the low bits; 70 000 distinct keys with no
	// estimate grow the table from its minimum through a dozen resizes; the
	// boxed key column holds NULL, NaN, both zeros (one group), 1 beside 1.0
	// (one group), and around 2^53 an INT pair that hashes alike, of which
	// only 2^53 equals the FLOAT 2^53 — nine classes of datum.Compare; three
	// keys exercise the multi-column comparator with a NULL-bearing string.
	kc := []logical.ColumnID{1, 2, 3, 4}
	sums := []logical.AggItem{
		{ID: 100, Fn: logical.AggCount},
		{ID: 101, Fn: logical.AggSum, Arg: arg(kc[1])},
		{ID: 102, Fn: logical.AggSum, Arg: arg(kc[2])},
	}
	keyed := func(n int, key func(i int) datum.D) []datum.Row {
		out := make([]datum.Row, n)
		for i := range out {
			out[i] = datum.Row{key(i), datum.NewInt(int64(i % 17)), datum.NewFloat(float64(i%1000) / 8), datum.Null}
		}
		return out
	}
	odd := []datum.D{
		datum.Null, datum.NewFloat(math.NaN()), datum.NewFloat(0), datum.NewFloat(math.Copysign(0, -1)),
		datum.NewInt(1), datum.NewFloat(1), datum.NewInt(2), datum.NewFloat(2.5),
		datum.NewInt(1 << 53), datum.NewInt(1<<53 + 1), datum.NewFloat(1 << 53), datum.NewString("s"),
	}
	threeKeys := keyed(6000, func(i int) datum.D { return datum.NewInt(int64(i % 50)) })
	for i, r := range threeKeys {
		r[1] = datum.NewInt(int64(i % 7))
		if i%5 != 0 {
			r[3] = datum.NewString(fmt.Sprintf("r%d", i%3))
		}
	}
	groupBy := func(rows []datum.Row, keys ...logical.ColumnID) physical.Plan {
		return &physical.HashGroupBy{Input: valuesOf(kc, rows), GroupCols: keys, Aggs: sums}
	}
	cases := []struct {
		name   string
		plan   physical.Plan
		groups int
	}{
		{"grouped", &physical.HashGroupBy{Input: valuesOf(cols, rows), GroupCols: []logical.ColumnID{g}, Aggs: aggs}, 9},
		{"scalar", &physical.HashGroupBy{Input: valuesOf(cols, rows), Aggs: aggs}, 1},
		{"scalar-empty", &physical.HashGroupBy{Input: valuesOf(cols, nil), Aggs: aggs}, 1},
		{"dense-int-keys", groupBy(keyed(6000, func(i int) datum.D { return datum.NewInt(int64(i % 3000)) }), kc[0]), 3000},
		{"resizes", groupBy(keyed(70000, func(i int) datum.D { return datum.NewInt(int64(i)) }), kc[0]), 70000},
		{"boxed-odd-keys", groupBy(keyed(6000, func(i int) datum.D { return odd[(i*7)%len(odd)] }), kc[0]), 9},
		{"three-keys", groupBy(threeKeys, kc[0], kc[1], kc[3]), 910},
	}
	for _, tc := range cases {
		for _, degree := range []int{1, 2, 4, 8} {
			// Kernels off at the same degree is the reference: both settings
			// assign morsel m to worker m mod degree and fold the workers'
			// tables in worker order, so even the group order must agree.
			kernelsOff := NewCtx(nil, nil)
			kernelsOff.Vectorize, kernelsOff.Parallelism, kernelsOff.Mem = false, degree, NewMemAccount(0)
			res, err := Run(tc.plan, kernelsOff)
			kernelsOff.Close()
			if err != nil {
				t.Fatalf("%s kernels off degree %d: %v", tc.name, degree, err)
			}
			want := hexRowsInOrder(res)
			if len(want) != tc.groups {
				t.Fatalf("%s: %d groups, want %d", tc.name, len(want), tc.groups)
			}
			c := NewCtx(nil, nil)
			c.Parallelism, c.Mem = degree, NewMemAccount(0)
			c.EnableAnalyze()
			res, err = Run(tc.plan, c)
			c.Close()
			if err != nil {
				t.Fatalf("%s degree %d: %v", tc.name, degree, err)
			}
			if !c.Metrics.Node(tc.plan).Vectorized {
				t.Fatalf("%s degree %d: the kernel aggregation did not claim the node", tc.name, degree)
			}
			got := hexRowsInOrder(res)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s degree %d: row %d = %s, kernels off %s", tc.name, degree, i, got[i], want[i])
				}
			}
			if c.Counters.RowsProcessed != kernelsOff.Counters.RowsProcessed || c.Counters.HashOps != kernelsOff.Counters.HashOps {
				t.Errorf("%s degree %d: RowsProcessed %d HashOps %d, kernels off %d %d", tc.name, degree,
					c.Counters.RowsProcessed, c.Counters.HashOps, kernelsOff.Counters.RowsProcessed, kernelsOff.Counters.HashOps)
			}
			if c.Mem.Peak() != kernelsOff.Mem.Peak() {
				t.Errorf("%s degree %d: peak memory %d bytes, kernels off %d", tc.name, degree, c.Mem.Peak(), kernelsOff.Mem.Peak())
			}
		}
	}
}

func TestParallelSortIsStable(t *testing.T) {
	// Key domain of 40 over 6000 rows → long runs of ties; stability demands
	// ties keep their input (insertion) order, which v encodes.
	f := newParFixture(t, 6000, 0, 8)
	k := f.rCols[0]
	plan := &physical.Sort{Input: f.rScan, By: logical.Ordering{{Col: k, Desc: true}}}
	runBoth(t, f, plan, true, 2, 4, 8)
}

// A predicate that panics in a worker must surface as an error, not kill the
// process.
func TestParallelWorkerPanicBecomesError(t *testing.T) {
	f := newParFixture(t, 5000, 0, 13)
	k := f.rCols[0]
	boom := &logical.UDPRef{
		Name: "boom", Args: []logical.Scalar{&logical.Col{ID: k}},
		PerTupleCost: 1, Selectivity: 0.5,
		EvalFn: func([]datum.D) bool { panic("kaboom") },
	}
	plan := &physical.Filter{Input: f.rScan, Preds: []logical.Scalar{boom}}
	pc := f.ctx(t, 4)
	if _, err := Run(plan, pc); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want panic-derived error, got %v", err)
	}
}

func TestSortResultMissingColumnError(t *testing.T) {
	f := newParFixture(t, 10, 0, 14)
	c := f.ctx(t, 1)
	_, err := Run(&physical.Sort{Input: f.rScan, By: logical.Ordering{{Col: 9999}}}, c)
	if err == nil || !strings.Contains(err.Error(), "ORDER BY column") {
		t.Fatalf("want missing-column error, got %v", err)
	}
}

// The pool is shared across queries of one context and survives reuse.
func TestPoolReuseAcrossRuns(t *testing.T) {
	f := newParFixture(t, 4000, 2500, 15)
	pc := f.ctx(t, 4)
	rk, sk := f.rCols[0], f.sCols[0]
	plan := &physical.HashJoin{
		Kind: logical.InnerJoin, Left: f.rScan, Right: f.sScan,
		LeftKeys: []logical.ColumnID{rk}, RightKeys: []logical.ColumnID{sk},
	}
	var n int
	for i := 0; i < 3; i++ {
		res, err := Run(plan, pc)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			n = len(res.Rows)
		} else if len(res.Rows) != n {
			t.Fatalf("run %d: %d rows, first run %d", i, len(res.Rows), n)
		}
	}
}

// TestParallelPlanStaysColumnar guards the property that makes parallel plans
// pay: between scan and result nothing is boxed into rows, copied or
// materialized between two stages, so what a run
// allocates is per-worker morsel scratch and group tables — at Parallelism 2
// about twice that of Parallelism 1, and at either degree less than the three
// columns of input it reads would occupy.
func TestParallelPlanStaysColumnar(t *testing.T) {
	f := newParFixture(t, 20000, 40, 16)
	rk, rf, sk, sw := f.rCols[0], f.rCols[2], f.sCols[0], f.sCols[1]
	plan := &physical.HashGroupBy{
		Input: &physical.HashJoin{
			Kind:     logical.InnerJoin,
			Left:     f.rScan,
			Right:    f.sScan,
			LeftKeys: []logical.ColumnID{rk}, RightKeys: []logical.ColumnID{sk},
		},
		GroupCols: []logical.ColumnID{rk},
		Aggs: []logical.AggItem{
			{ID: 100, Fn: logical.AggCount},
			{ID: 101, Fn: logical.AggSum, Arg: &logical.Col{ID: rf}},
			{ID: 102, Fn: logical.AggMax, Arg: &logical.Col{ID: sw}},
		},
	}
	allocated := func(degree int) uint64 {
		c := f.ctx(t, degree)
		best := ^uint64(0)
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(plan, c)
			runtime.ReadMemStats(&after)
			if err != nil || len(res.Rows) == 0 {
				t.Fatalf("degree %d: %d rows, err %v", degree, len(res.Rows), err)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	one, two := allocated(1), allocated(2)
	const inputBytes = 20000 * 3 * 8
	t.Logf("TotalAlloc per run: Parallelism 1 %d bytes, Parallelism 2 %d bytes (%.2fx); input columns %d bytes", one, two, float64(two)/float64(one), inputBytes)
	if two > inputBytes || float64(two) > 2.25*float64(one) {
		t.Fatalf("Parallelism 2 allocates %d bytes a run: more than the %d of the input it reads, or than 2.25x the %d of Parallelism 1", two, inputBytes, one)
	}
}

// TestKernelOperatorAllocCeiling pins what the kernel operators allocate on
// top of their input scans: index lists per morsel, state arrays and output
// vectors per column — a count bounded by columns × morsels and independent
// of how many groups or rows pass through. A change that goes back to a map
// bucket, a key row or a boxed datum per group, or to growing a slice per
// element, lands orders of magnitude above. Measured on one worker, over
// 100 000 input rows: the 20 000-group three-key group-by 159 allocations
// (58 928 at the parent commit), the 100 000 × 1000 probe 314 (1 311 at the
// parent commit); the ceiling is 6 columns × 98 morsels = 588.
func TestKernelOperatorAllocCeiling(t *testing.T) {
	store := storage.NewStore()
	fact := &catalog.Table{Name: "F", Cols: []catalog.Column{
		{Name: "a", Kind: datum.KindInt}, {Name: "b", Kind: datum.KindInt}, {Name: "c", Kind: datum.KindInt},
		{Name: "x", Kind: datum.KindFloat},
	}}
	dim := &catalog.Table{Name: "D", Cols: []catalog.Column{{Name: "k", Kind: datum.KindInt}, {Name: "v", Kind: datum.KindInt}}}
	load := func(def *catalog.Table, n int, row func(i int) datum.Row) {
		tab, err := store.CreateTable(def)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]datum.Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		if err := tab.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	const factRows, dimRows, groups = 100000, 1000, 20000
	load(fact, factRows, func(i int) datum.Row {
		g := i % groups // (a, b, c) = (g mod 20, g/20 mod 50, g/1000): 20 000 distinct triples
		return datum.Row{datum.NewInt(int64(g % 20)), datum.NewInt(int64(g / 20 % 50)), datum.NewInt(int64(g / 1000)), datum.NewFloat(float64(i%977) / 4)}
	})
	load(dim, dimRows, func(i int) datum.Row { return datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i * 3))} })
	md := logical.NewMetadata()
	fc, dc := md.AddTable(fact, "f"), md.AddTable(dim, "d")
	fScan := &physical.TableScan{Table: fact, Binding: "f", Cols: fc, ColOrds: []int{0, 1, 2, 3}}
	dScan := &physical.TableScan{Table: dim, Binding: "d", Cols: dc, ColOrds: []int{0, 1}}
	allocs := func(plan physical.Plan, wantRows int) float64 {
		c := NewCtx(store, md)
		return testing.AllocsPerRun(5, func() {
			res, err := Run(plan, c)
			if err != nil || len(res.Rows) != wantRows {
				t.Fatalf("%d rows, err %v; want %d rows", len(res.Rows), err, wantRows)
			}
		})
	}
	for _, tc := range []struct {
		name    string
		plan    physical.Plan
		inputs  []physical.Plan
		columns int // key, state and output columns the operator handles
		morsels int
	}{
		{
			name: "20000-group three-key group-by",
			plan: &physical.HashGroupBy{Props: physical.Props{Rows: groups}, Input: fScan, GroupCols: fc[:3], Aggs: []logical.AggItem{
				{ID: 100, Fn: logical.AggCount},
				{ID: 101, Fn: logical.AggSum, Arg: &logical.Col{ID: fc[3]}},
				{ID: 102, Fn: logical.AggMin, Arg: &logical.Col{ID: fc[0]}},
			}},
			inputs:  []physical.Plan{fScan},
			columns: 6, morsels: numMorsels(factRows),
		},
		{
			name: "100000 x 1000 probe",
			plan: &physical.HashJoin{Kind: logical.InnerJoin, Left: fScan, Right: dScan,
				LeftKeys: []logical.ColumnID{fc[2]}, RightKeys: []logical.ColumnID{dc[0]}},
			inputs:  []physical.Plan{fScan, dScan},
			columns: 6, morsels: numMorsels(factRows),
		},
	} {
		// Result conversion to rows is the caller's, not the operator's: count
		// the plan under a COUNT(*) that reads no column.
		counted := func(p physical.Plan) physical.Plan {
			return &physical.HashGroupBy{Input: p, Aggs: []logical.AggItem{{ID: 900, Fn: logical.AggCount}}}
		}
		total := allocs(counted(tc.plan), 1)
		var inputs float64
		for _, in := range tc.inputs {
			inputs += allocs(counted(in), 1)
		}
		got, ceiling := total-inputs, float64(tc.columns*tc.morsels)
		t.Logf("%s: %.0f allocations above its inputs (%.0f - %.0f), ceiling %.0f", tc.name, got, total, inputs, ceiling)
		if got > ceiling {
			t.Errorf("%s allocates %.0f times above its inputs, ceiling %.0f (columns %d x morsels %d)", tc.name, got, ceiling, tc.columns, tc.morsels)
		}
	}
}

// TestPipelineReportsWorkerRows: under EXPLAIN ANALYZE of a parallel run
// every stage of a pipeline reports how many rows each worker processed in
// it, so morsel skew is visible; a serial run reports none.
func TestPipelineReportsWorkerRows(t *testing.T) {
	f := newPipeFixture(t)
	k1 := f.col("sales", "k1")
	scan := f.scan("sales", nil, "k1", "amount")
	plan := &physical.HashGroupBy{Input: scan, GroupCols: []logical.ColumnID{k1}, Aggs: []logical.AggItem{aggOf(1000, logical.AggCount, 0)}}
	for _, workers := range []int{1, 2} {
		c := NewCtx(f.store, f.md)
		c.Parallelism = workers
		c.EnableAnalyze()
		if _, err := Run(plan, c); err != nil {
			t.Fatal(err)
		}
		parts := c.Metrics.Node(scan).WorkerRows
		if workers == 1 {
			if parts != nil {
				t.Errorf("serial run: scan worker_rows %v", parts)
			}
			continue
		}
		var sum int64
		for _, n := range parts {
			sum += n
		}
		if len(parts) != workers || sum != pipeSalesRows || slices.Contains(parts, 0) {
			t.Errorf("scan worker_rows %v: want %d workers' rows, %d in all", parts, workers, pipeSalesRows)
		}
	}
}
