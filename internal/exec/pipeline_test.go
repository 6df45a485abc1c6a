package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/reference"
	"repro/internal/sql"
	"repro/internal/storage"
)

// pipeFixture is the analytic schema at test size: a fact table sales (five
// sealed segments of 1024 rows and an 880-row tail, k3 clustered so zone maps
// prune), three 100-row dimensions, and a probe/build pair P/B with NULL keys,
// an all-NULL column, duplicate build keys and floats spanning sixteen orders
// of magnitude. P keeps a row tail beside its sealed segments.
type pipeFixture struct {
	cat   *catalog.Catalog
	store *storage.Store
	md    *logical.Metadata
	tabs  map[string]*catalog.Table
	cols  map[string][]logical.ColumnID
}

const (
	pipeSalesRows = 6000
	pipeDimRows   = 100
)

func newPipeFixture(t testing.TB) *pipeFixture {
	t.Helper()
	f := &pipeFixture{
		cat: catalog.New(), store: storage.NewStoreWith(storage.StoreConfig{SegmentRows: 1024}),
		md: logical.NewMetadata(), tabs: map[string]*catalog.Table{}, cols: map[string][]logical.ColumnID{},
	}
	rng := rand.New(rand.NewSource(20))
	regions := []string{"north", "south", "east", "west", "central"}
	intCol := func(name string) catalog.Column { return catalog.Column{Name: name, Kind: datum.KindInt} }
	add := func(def *catalog.Table, flush bool, n int, row func(i int) datum.Row) {
		if err := f.cat.AddTable(def); err != nil {
			t.Fatal(err)
		}
		tab, err := f.store.CreateTable(def)
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
		if flush {
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		f.tabs[def.Name] = def
		f.cols[def.Name] = f.md.AddTable(def, def.Name)
	}
	add(&catalog.Table{Name: "sales", Cols: []catalog.Column{
		{Name: "id", Kind: datum.KindInt, NotNull: true}, intCol("k1"), intCol("k2"), intCol("k3"), intCol("cust"),
		{Name: "region", Kind: datum.KindString}, intCol("qty"), {Name: "amount", Kind: datum.KindFloat},
	}, Indexes: []*catalog.Index{
		{Name: "sales_pkey", Cols: []int{0}, Unique: true, Clustered: true},
		{Name: "sales_cust", Cols: []int{4}},
		{Name: "sales_cust_qty", Cols: []int{4, 6}},
	}}, true, pipeSalesRows, func(i int) datum.Row {
		// amount is a multiple of 1/4, so sums of partial sums (the eager
		// aggregates of the star plans) are exact like the direct sum.
		return datum.Row{
			datum.NewInt(int64(i)), datum.NewInt(int64(rng.Intn(pipeDimRows))), datum.NewInt(int64(rng.Intn(pipeDimRows))),
			datum.NewInt(int64(i * pipeDimRows / pipeSalesRows)), datum.NewInt(int64(rng.Intn(60))),
			datum.NewString(regions[rng.Intn(len(regions))]), datum.NewInt(int64(1 + rng.Intn(20))),
			datum.NewFloat(float64(rng.Intn(100000)) / 4),
		}
	})
	for d := 1; d <= 3; d++ {
		name := fmt.Sprintf("dim%d", d)
		add(&catalog.Table{Name: name, Cols: []catalog.Column{
			{Name: "k", Kind: datum.KindInt, NotNull: true}, {Name: "attr", Kind: datum.KindString}, intCol("filt"),
		}, Indexes: []*catalog.Index{{Name: name + "_pkey", Cols: []int{0}, Unique: true, Clustered: true}}},
			false, pipeDimRows, func(i int) datum.Row {
				return datum.Row{datum.NewInt(int64(i)), datum.NewString(fmt.Sprintf("d%d_%02d", d, i%20)), datum.NewInt(int64(rng.Intn(10)))}
			})
	}
	add(&catalog.Table{Name: "P", Cols: []catalog.Column{intCol("k"), intCol("nk"), intCol("v"), {Name: "f", Kind: datum.KindFloat}}},
		false, 3000, func(i int) datum.Row {
			k := datum.NewInt(int64(rng.Intn(150)))
			if rng.Intn(10) == 0 {
				k = datum.Null
			}
			scale := []float64{1e-8, 1e-4, 1, 1e4, 1e8}[i%5]
			return datum.Row{k, datum.Null, datum.NewInt(int64(i)), datum.NewFloat(float64((i*7919)%100003) / 7 * scale)}
		})
	add(&catalog.Table{Name: "B", Cols: []catalog.Column{intCol("k"), intCol("nk"), intCol("w")}},
		false, 270, func(i int) datum.Row {
			k := datum.NewInt(int64(i % 130)) // every key twice: a 1:N probe
			if i >= 260 {
				k = datum.Null
			}
			return datum.Row{k, datum.Null, datum.NewInt(int64(i * 3))}
		})
	// M.v is an INT column holding FLOAT strays in its third segment only: the
	// vectors of most morsels are typed, those of a few boxed.
	add(&catalog.Table{Name: "M", Cols: []catalog.Column{intCol("g"), intCol("v")}}, false, 4500, func(i int) datum.Row {
		v := datum.NewInt(int64(i % 97))
		if i >= 2100 && i < 2900 && i%3 == 0 {
			v = datum.NewFloat(float64(i%97) + 0.5)
		}
		return datum.Row{datum.NewInt(int64(i % 7)), v}
	})
	// O orders the values a sort key can hold: NULL, NaN, both zeros, both
	// infinities, and in n INTs around 2^53 beside a FLOAT equal to one of them
	// (FLOAT strays box n in the morsels that hold one).
	odd := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2, 1e300}
	add(&catalog.Table{Name: "O", Cols: []catalog.Column{{Name: "id", Kind: datum.KindInt, NotNull: true}, {Name: "x", Kind: datum.KindFloat}, intCol("n")},
		Indexes: []*catalog.Index{{Name: "o_x", Cols: []int{1}}}}, false, 3000, func(i int) datum.Row {
		x, n := datum.NewFloat(odd[(i*7)%len(odd)]), datum.NewInt(1<<53+int64(i%3))
		if i%11 == 0 {
			x = datum.Null
		}
		if i%500 == 7 {
			n = datum.NewFloat(1 << 53)
		}
		return datum.Row{datum.NewInt(int64(i)), x, n}
	})
	return f
}

func (f *pipeFixture) col(table, name string) logical.ColumnID {
	for i, c := range f.tabs[table].Cols {
		if c.Name == name {
			return f.cols[table][i]
		}
	}
	panic("no column " + table + "." + name)
}

// scan returns a table scan of the named columns under the given filter.
func (f *pipeFixture) scan(table string, filter []logical.Scalar, names ...string) *physical.TableScan {
	s := &physical.TableScan{Table: f.tabs[table], Binding: table, Filter: filter}
	for _, n := range names {
		for i, c := range f.tabs[table].Cols {
			if c.Name == n {
				s.Cols, s.ColOrds = append(s.Cols, f.cols[table][i]), append(s.ColOrds, i)
			}
		}
	}
	return s
}

func (f *pipeFixture) index(table, name string) *catalog.Index {
	for _, ix := range f.tabs[table].Indexes {
		if ix.Name == name {
			return ix
		}
	}
	panic("no index " + name)
}

func cmpConst(op logical.CmpOp, col logical.ColumnID, v any) logical.Scalar {
	var d datum.D
	switch x := v.(type) {
	case int:
		d = datum.NewInt(int64(x))
	case float64:
		d = datum.NewFloat(x)
	case string:
		d = datum.NewString(x)
	}
	return &logical.Cmp{Op: op, L: &logical.Col{ID: col}, R: &logical.Const{Val: d}}
}

func aggOf(id int, fn logical.AggFn, arg logical.ColumnID) logical.AggItem {
	it := logical.AggItem{ID: logical.ColumnID(id), Fn: fn}
	if arg != 0 {
		it.Arg = &logical.Col{ID: arg}
	}
	return it
}

// pipeCase is one statement shape: the hand-built physical plan, the SQL the
// reference evaluator answers it from (select list in the plan's output layout),
// and whether the row sequence is part of the answer.
type pipeCase struct {
	name    string
	plan    physical.Plan
	sql     string
	ordered bool
}

func pipeCases(f *pipeFixture) []pipeCase {
	s := func(n string) logical.ColumnID { return f.col("sales", n) }
	grp := func(in physical.Plan, keys []logical.ColumnID, aggs ...logical.AggItem) *physical.HashGroupBy {
		return &physical.HashGroupBy{Input: in, GroupCols: keys, Aggs: aggs}
	}
	keys := func(ids ...logical.ColumnID) []logical.ColumnID { return ids }
	join := func(kind logical.JoinKind, l, r physical.Plan, lk, rk logical.ColumnID) *physical.HashJoin {
		return &physical.HashJoin{Kind: kind, Left: l, Right: r, LeftKeys: keys(lk), RightKeys: keys(rk)}
	}
	k2ne := cmpConst(logical.CmpNe, s("k2"), 17)
	count, sumAmount := aggOf(1000, logical.AggCount, 0), aggOf(1001, logical.AggSum, s("amount"))

	// star_3dim, as the optimizer plans it: two joins, an eager aggregate,
	// the third join, the final aggregate.
	d := func(n int, col string) logical.ColumnID { return f.col(fmt.Sprintf("dim%d", n), col) }
	dimScan := func(n int, filter []logical.Scalar) physical.Plan {
		return f.scan(fmt.Sprintf("dim%d", n), filter, "k", "filt")
	}
	fact := f.scan("sales", []logical.Scalar{cmpConst(logical.CmpNe, s("cust"), 7)}, "k1", "k2", "k3", "cust", "amount")
	j1 := join(logical.InnerJoin, fact, dimScan(1, []logical.Scalar{cmpConst(logical.CmpLt, d(1, "filt"), 3)}), s("k1"), d(1, "k"))
	j2 := join(logical.InnerJoin, j1, dimScan(2, nil), s("k2"), d(2, "k"))
	eager := grp(j2, keys(d(1, "filt"), d(2, "filt"), s("k3")), aggOf(1010, logical.AggSum, s("amount")))
	j3 := join(logical.InnerJoin, eager, dimScan(3, nil), s("k3"), d(3, "k"))
	star3 := grp(j3, keys(d(1, "filt"), d(2, "filt"), d(3, "filt")), aggOf(1011, logical.AggSum, 1010))

	// star_1dim: eager aggregate on the join key, then an index nested-loop
	// join into the filtered dimension.
	eager1 := grp(f.scan("sales", []logical.Scalar{k2ne}, "k1", "k2", "amount"), keys(s("k1")), aggOf(1020, logical.AggSum, s("amount")))
	inl := &physical.INLJoin{Kind: logical.InnerJoin, Left: eager1, Table: f.tabs["dim1"], Index: f.index("dim1", "dim1_pkey"),
		Binding: "dim1", Cols: keys(d(1, "k"), d(1, "attr"), d(1, "filt")), ColOrds: []int{0, 1, 2}, LeftKeys: keys(s("k1")),
		ExtraOn: []logical.Scalar{cmpConst(logical.CmpLt, d(1, "filt"), 5)}}
	star1 := grp(inl, keys(d(1, "attr")), aggOf(1021, logical.AggSum, 1020))

	p, b := func(n string) logical.ColumnID { return f.col("P", n) }, func(n string) logical.ColumnID { return f.col("B", n) }
	pScan, bScan := f.scan("P", nil, "k", "nk", "v", "f"), f.scan("B", nil, "k", "nk", "w")
	never := []logical.Scalar{cmpConst(logical.CmpLt, s("qty"), 0)}
	// A predicate no kernel compiles (arithmetic), between a join and the
	// aggregate above it.
	vPlusW := &logical.Cmp{Op: logical.CmpGt, L: &logical.Arith{Op: logical.ArithAdd, L: &logical.Col{ID: p("v")}, R: &logical.Col{ID: b("w")}}, R: &logical.Const{Val: datum.NewInt(1500)}}
	residual := &physical.Filter{Input: join(logical.InnerJoin, pScan, bScan, p("k"), b("k")), Preds: []logical.Scalar{vPlusW}}
	// A join predicate beside the key: one conjunct with a kernel, one
	// without. Every key has two build rows, and for many probe rows only the
	// second passes, so a semi or anti join's first match is not its first
	// candidate.
	extraJoin := func(kind logical.JoinKind) *physical.HashJoin {
		j := join(kind, pScan, bScan, p("k"), b("k"))
		j.ExtraOn = []logical.Scalar{&logical.Cmp{Op: logical.CmpLt, L: &logical.Col{ID: b("w")}, R: &logical.Col{ID: p("v")}}, vPlusW}
		return j
	}
	const extraOn = `P.k = B.k AND B.w < P.v AND P.v + B.w > 1500`
	distinct := func(id int, fn logical.AggFn, arg logical.ColumnID) logical.AggItem {
		it := aggOf(id, fn, arg)
		it.Distinct = true
		return it
	}
	// The other joins over P and B: nested-loop joins whose ON has a kernel
	// (P.k = B.k, B.w < P.v) and a residual conjunct, an index join into dim1,
	// merge joins over sorted inputs.
	pk := &logical.Cmp{Op: logical.CmpEq, L: &logical.Col{ID: p("k")}, R: &logical.Col{ID: b("k")}}
	wLtV := &logical.Cmp{Op: logical.CmpLt, L: &logical.Col{ID: b("w")}, R: &logical.Col{ID: p("v")}}
	nl := func(kind logical.JoinKind, on ...logical.Scalar) *physical.NLJoin {
		return &physical.NLJoin{Kind: kind, Left: pScan, Right: bScan, On: on}
	}
	inlDim1 := func(kind logical.JoinKind) *physical.INLJoin {
		return &physical.INLJoin{Kind: kind, Left: f.scan("sales", []logical.Scalar{k2ne}, "id", "k1", "k2"), Table: f.tabs["dim1"],
			Index: f.index("dim1", "dim1_pkey"), Binding: "dim1", Cols: keys(d(1, "k"), d(1, "attr"), d(1, "filt")), ColOrds: []int{0, 1, 2},
			LeftKeys: keys(s("k1")), ExtraOn: []logical.Scalar{cmpConst(logical.CmpLt, d(1, "filt"), 5)}}
	}
	merge := func(kind logical.JoinKind) *physical.MergeJoin {
		return &physical.MergeJoin{Kind: kind, LeftKeys: keys(p("k")), RightKeys: keys(b("k")), ExtraOn: []logical.Scalar{wLtV, vPlusW},
			Left:  &physical.Sort{Input: pScan, By: logical.Ordering{{Col: p("k")}}},
			Right: &physical.Sort{Input: bScan, By: logical.Ordering{{Col: b("k")}}}}
	}
	o := func(n string) logical.ColumnID { return f.col("O", n) }
	oScan := f.scan("O", nil, "id", "x", "n")
	amountTimesQty := logical.AggItem{ID: 1061, Fn: logical.AggSum, Arg: &logical.Arith{Op: logical.ArithMul, L: &logical.Col{ID: s("amount")}, R: &logical.Col{ID: s("qty")}}}
	// Stream aggregation over an index scan, whose posting list is in key
	// order: the groups come out in that order.
	stream := &physical.StreamGroupBy{GroupCols: keys(s("cust")), Aggs: []logical.AggItem{count, sumAmount},
		Input: &physical.IndexScan{Table: f.tabs["sales"], Index: f.index("sales", "sales_cust"), Binding: "sales",
			Cols: keys(s("cust"), s("amount")), ColOrds: []int{4, 7}, Lo: datum.NewInt(10), LoIncl: true, Hi: datum.NewInt(40)}}

	// Hash joins over sorted inputs under one morsel: the probe side is a top
	// 600 of P, whose selection is the sort's permutation, and the FULL OUTER
	// join's build side is sorted too. The output follows the sorted orders,
	// spilled or not.
	top600 := &physical.LimitOp{N: 600, Input: &physical.Sort{Input: pScan, By: logical.Ordering{{Col: p("v"), Desc: true}}}}
	bByW := &physical.Sort{Input: bScan, By: logical.Ordering{{Col: b("w"), Desc: true}}}
	// Merge joins of O with itself on n, whose INT 2^53 equals the FLOAT 2^53
	// and whose INT 2^53+1, which rounds to that FLOAT, equals neither.
	o2 := f.md.AddTable(f.tabs["O"], "O2")
	oIn := func(cols []logical.ColumnID, filter ...logical.Scalar) *physical.Sort {
		return &physical.Sort{By: logical.Ordering{{Col: cols[2]}},
			Input: &physical.TableScan{Table: f.tabs["O"], Binding: "O", Cols: cols, ColOrds: []int{0, 1, 2}, Filter: filter}}
	}
	oMerge := func(kind logical.JoinKind, right ...logical.Scalar) *physical.MergeJoin {
		return &physical.MergeJoin{Kind: kind, LeftKeys: keys(o("n")), RightKeys: keys(o2[2]),
			Left: oIn(f.cols["O"], cmpConst(logical.CmpLt, o("id"), 40)), Right: oIn(o2, append(right, cmpConst(logical.CmpLt, o2[0], 600))...)}
	}
	// The laws one order makes hold over O's odd keys, each stated as a plan
	// and the statement the reference evaluator answers it from: MIN and MAX are
	// the first row of the ascending and descending sort, and the hash,
	// nested-loop and merge joins of O with O2 on x (and on n) are one bag,
	// whose size is the sum over the key's groups of left count × right count.
	extreme := func(fn logical.AggFn, col string) *physical.HashGroupBy {
		return grp(oScan, nil, aggOf(1080, fn, o(col)))
	}
	oLeft := f.scan("O", []logical.Scalar{cmpConst(logical.CmpLt, o("id"), 40)}, "id", "x", "n")
	oRight := &physical.TableScan{Table: f.tabs["O"], Binding: "O", Cols: o2, ColOrds: []int{0, 1, 2}, Filter: []logical.Scalar{cmpConst(logical.CmpLt, o2[0], 600)}}
	oEq := func(col int) logical.Scalar {
		return &logical.Cmp{Op: logical.CmpEq, L: &logical.Col{ID: f.cols["O"][col]}, R: &logical.Col{ID: o2[col]}}
	}
	oHash := func(col int) *physical.HashJoin {
		return join(logical.InnerJoin, oLeft, oRight, f.cols["O"][col], o2[col])
	}
	oBy := func(in physical.Plan, col logical.ColumnID) *physical.Sort {
		return &physical.Sort{Input: in, By: logical.Ordering{{Col: col}}}
	}
	const oLR = `SELECT L.id, L.x, L.n, R.id, R.x, R.n FROM (SELECT id, x, n FROM O WHERE id < 40) L JOIN (SELECT id, x, n FROM O WHERE id < 600) R`
	const oJoinX, oJoinN = oLR + ` ON L.x = R.x`, oLR + ` ON L.n = R.n`
	const oGroupProduct = `SELECT SUM(l.c * r.c) FROM (SELECT x, COUNT(*) AS c FROM O WHERE id < 40 GROUP BY x) l JOIN (SELECT x, COUNT(*) AS c FROM O WHERE id < 600 GROUP BY x) r ON l.x = r.x`

	return []pipeCase{
		{name: "filter_agg", plan: grp(f.scan("sales", []logical.Scalar{cmpConst(logical.CmpGt, s("qty"), 10), k2ne}, "k2", "qty", "amount"), nil, count, sumAmount),
			sql: `SELECT COUNT(*), SUM(amount) FROM sales WHERE qty > 10 AND k2 <> 17`},
		{name: "string_filter", plan: grp(f.scan("sales", []logical.Scalar{cmpConst(logical.CmpEq, s("region"), "east")}, "region", "qty"), nil, count, aggOf(1002, logical.AggSum, s("qty"))),
			sql: `SELECT COUNT(*), SUM(qty) FROM sales WHERE region = 'east'`},
		{name: "groupby_low_ndv", plan: grp(f.scan("sales", []logical.Scalar{cmpConst(logical.CmpLe, s("qty"), 16), k2ne}, "k2", "region", "qty", "amount"), keys(s("region")), count, sumAmount),
			sql: `SELECT region, COUNT(*), SUM(amount) FROM sales WHERE qty <= 16 AND k2 <> 17 GROUP BY region`},
		{name: "groupby_1000", plan: grp(f.scan("sales", []logical.Scalar{cmpConst(logical.CmpGt, s("qty"), 3), k2ne}, "k1", "k2", "qty", "amount"), keys(s("k1")), count, sumAmount),
			sql: `SELECT k1, COUNT(*), SUM(amount) FROM sales WHERE qty > 3 AND k2 <> 17 GROUP BY k1`},
		{name: "pk_range", plan: grp(&physical.IndexScan{Table: f.tabs["sales"], Index: f.index("sales", "sales_pkey"), Binding: "sales",
			Cols: keys(s("id"), s("amount")), ColOrds: []int{0, 7}, Lo: datum.NewInt(1500), LoIncl: true, Hi: datum.NewInt(4100)}, nil, count, sumAmount),
			sql: `SELECT COUNT(*), SUM(amount) FROM sales WHERE id >= 1500 AND id < 4100`},
		{name: "index_lookup", ordered: true, plan: &physical.Sort{By: logical.Ordering{{Col: s("id")}}, Input: &physical.IndexScan{Table: f.tabs["sales"], Index: f.index("sales", "sales_cust"),
			Binding: "sales", Cols: keys(s("id"), s("amount")), ColOrds: []int{0, 7}, EqKey: datum.Row{datum.NewInt(7)}}},
			sql: `SELECT id, amount FROM sales WHERE cust = 7 ORDER BY id`},
		{name: "index_eq_range", plan: grp(&physical.IndexScan{Table: f.tabs["sales"], Index: f.index("sales", "sales_cust_qty"), Binding: "sales",
			Cols: keys(s("id"), s("amount")), ColOrds: []int{0, 7}, EqKey: datum.Row{datum.NewInt(7)}, Lo: datum.NewInt(5), Hi: datum.NewInt(15), HiIncl: true}, nil, count, sumAmount),
			sql: `SELECT COUNT(*), SUM(amount) FROM sales WHERE cust = 7 AND qty > 5 AND qty <= 15`},
		{name: "star_1dim", plan: star1,
			sql: `SELECT d.attr, SUM(s.amount) FROM sales s JOIN dim1 d ON s.k1 = d.k WHERE d.filt < 5 AND s.k2 <> 17 GROUP BY d.attr`},
		{name: "star_3dim", plan: star3,
			sql: `SELECT d1.filt, d2.filt, d3.filt, SUM(s.amount) FROM sales s JOIN dim1 d1 ON s.k1 = d1.k JOIN dim2 d2 ON s.k2 = d2.k JOIN dim3 d3 ON s.k3 = d3.k WHERE d1.filt < 3 AND s.cust <> 7 GROUP BY d1.filt, d2.filt, d3.filt`},
		{name: "topn", ordered: true, plan: &physical.LimitOp{N: 10, Input: &physical.Sort{By: logical.Ordering{{Col: s("amount"), Desc: true}, {Col: s("id")}},
			Input: &physical.Project{Input: f.scan("sales", []logical.Scalar{cmpConst(logical.CmpEq, s("qty"), 7)}, "id", "qty", "amount"),
				Items: []logical.ProjectItem{{ID: s("id"), Expr: &logical.Col{ID: s("id")}}, {ID: s("amount"), Expr: &logical.Col{ID: s("amount")}}}}}},
			sql: `SELECT id, amount FROM sales WHERE qty = 7 ORDER BY amount DESC, id LIMIT 10`},
		{name: "having", plan: &physical.Filter{Preds: []logical.Scalar{cmpConst(logical.CmpGt, 1001, 750000.0)},
			Input: grp(f.scan("sales", nil, "k2", "amount"), keys(s("k2")), sumAmount)},
			sql: `SELECT k2, SUM(amount) FROM sales GROUP BY k2 HAVING SUM(amount) > 750000`},
		{name: "clustered_range_agg", plan: grp(f.scan("sales", []logical.Scalar{cmpConst(logical.CmpGe, s("k3"), 20), cmpConst(logical.CmpLt, s("k3"), 30)}, "k3", "qty", "amount"), nil,
			aggOf(1003, logical.AggMin, s("amount")), aggOf(1004, logical.AggMax, s("amount")), aggOf(1005, logical.AggAvg, s("qty"))),
			sql: `SELECT MIN(amount), MAX(amount), AVG(qty) FROM sales WHERE k3 >= 20 AND k3 < 30`},
		{name: "groupby_two_keys", plan: grp(f.scan("sales", []logical.Scalar{cmpConst(logical.CmpLt, s("amount"), 3000.5), k2ne}, "k2", "region", "qty", "amount"), keys(s("region"), s("qty")), count),
			sql: `SELECT region, qty, COUNT(*) FROM sales WHERE amount < 3000.5 AND k2 <> 17 GROUP BY region, qty`},

		{name: "left_outer", plan: join(logical.LeftOuterJoin, pScan, bScan, p("k"), b("k")),
			sql: `SELECT P.k, P.nk, P.v, P.f, B.k, B.nk, B.w FROM P LEFT OUTER JOIN B ON P.k = B.k`},
		{name: "full_outer_agg", plan: grp(join(logical.FullOuterJoin, pScan, bScan, p("k"), b("k")), keys(b("k")), count, aggOf(1030, logical.AggSum, p("f")), aggOf(1031, logical.AggMax, b("w"))),
			sql: `SELECT B.k, COUNT(*), SUM(P.f), MAX(B.w) FROM P FULL OUTER JOIN B ON P.k = B.k GROUP BY B.k`},
		{name: "semi", plan: join(logical.SemiJoin, pScan, bScan, p("k"), b("k")),
			sql: `SELECT P.k, P.nk, P.v, P.f FROM P WHERE EXISTS (SELECT 1 FROM B WHERE B.k = P.k)`},
		{name: "anti", plan: join(logical.AntiJoin, pScan, bScan, p("k"), b("k")),
			sql: `SELECT P.k, P.nk, P.v, P.f FROM P WHERE NOT EXISTS (SELECT 1 FROM B WHERE B.k = P.k)`},
		{name: "expanding_join_agg", plan: grp(join(logical.InnerJoin, pScan, bScan, p("k"), b("k")), keys(b("w")), count, aggOf(1032, logical.AggSum, p("f")), aggOf(1033, logical.AggAvg, p("f"))),
			sql: `SELECT B.w, COUNT(*), SUM(P.f), AVG(P.f) FROM P JOIN B ON P.k = B.k GROUP BY B.w`},
		{name: "empty_scalar", plan: grp(f.scan("sales", never, "qty", "amount"), nil, count, sumAmount),
			sql: `SELECT COUNT(*), SUM(amount) FROM sales WHERE qty < 0`},
		{name: "empty_grouped", plan: grp(join(logical.InnerJoin, f.scan("sales", never, "k1", "qty", "amount"), f.scan("dim1", nil, "k", "filt"), s("k1"), d(1, "k")), keys(d(1, "filt")), count, sumAmount),
			sql: `SELECT d.filt, COUNT(*), SUM(s.amount) FROM sales s JOIN dim1 d ON s.k1 = d.k WHERE s.qty < 0 GROUP BY d.filt`},
		{name: "null_keys", plan: grp(join(logical.LeftOuterJoin, pScan, bScan, p("nk"), b("nk")), keys(p("nk")), count, aggOf(1034, logical.AggSum, p("f")), aggOf(1035, logical.AggMin, b("w"))),
			sql: `SELECT P.nk, COUNT(*), SUM(P.f), MIN(B.w) FROM P LEFT OUTER JOIN B ON P.nk = B.nk GROUP BY P.nk`},
		{name: "pruned_to_nothing", plan: grp(f.scan("sales", []logical.Scalar{cmpConst(logical.CmpGt, s("k3"), 500)}, "k3", "amount"), keys(s("k3")), count, sumAmount),
			sql: `SELECT k3, COUNT(*), SUM(amount) FROM sales WHERE k3 > 500 GROUP BY k3`},
		{name: "residual_mid_pipeline", plan: grp(residual, keys(b("w")), count, aggOf(1036, logical.AggSum, p("f"))),
			sql: `SELECT B.w, COUNT(*), SUM(P.f) FROM P JOIN B ON P.k = B.k WHERE P.v + B.w > 1500 GROUP BY B.w`},
		{name: "mixed_representation", plan: grp(f.scan("M", nil, "g", "v"), keys(f.col("M", "g")), count, aggOf(1050, logical.AggSum, f.col("M", "v")), aggOf(1051, logical.AggMin, f.col("M", "v")), aggOf(1052, logical.AggAvg, f.col("M", "v"))),
			sql: `SELECT g, COUNT(*), SUM(v), MIN(v), AVG(v) FROM M GROUP BY g`},
		{name: "limit_no_agg", ordered: true, plan: &physical.LimitOp{N: 2500, Input: &physical.Project{
			Input: f.scan("sales", []logical.Scalar{cmpConst(logical.CmpGt, s("qty"), 5)}, "id", "qty", "amount"),
			Items: []logical.ProjectItem{{ID: s("id"), Expr: &logical.Col{ID: s("id")}}, {ID: 1040, Expr: &logical.Arith{Op: logical.ArithMul, L: &logical.Col{ID: s("amount")}, R: &logical.Col{ID: s("qty")}}}}}},
			sql: `SELECT id, amount * qty FROM sales WHERE qty > 5 LIMIT 2500`},

		{name: "extra_inner", plan: extraJoin(logical.InnerJoin),
			sql: `SELECT P.k, P.nk, P.v, P.f, B.k, B.nk, B.w FROM P JOIN B ON ` + extraOn},
		{name: "extra_left", plan: extraJoin(logical.LeftOuterJoin),
			sql: `SELECT P.k, P.nk, P.v, P.f, B.k, B.nk, B.w FROM P LEFT OUTER JOIN B ON ` + extraOn},
		{name: "extra_full", plan: extraJoin(logical.FullOuterJoin),
			sql: `SELECT P.k, P.nk, P.v, P.f, B.k, B.nk, B.w FROM P FULL OUTER JOIN B ON ` + extraOn},
		{name: "extra_semi", plan: extraJoin(logical.SemiJoin),
			sql: `SELECT P.k, P.nk, P.v, P.f FROM P WHERE EXISTS (SELECT 1 FROM B WHERE ` + extraOn + `)`},
		{name: "extra_anti", plan: extraJoin(logical.AntiJoin),
			sql: `SELECT P.k, P.nk, P.v, P.f FROM P WHERE NOT EXISTS (SELECT 1 FROM B WHERE ` + extraOn + `)`},
		{name: "distinct_aggs", plan: grp(f.scan("sales", []logical.Scalar{k2ne}, "k1", "k2", "region", "qty", "amount"), keys(s("region")),
			distinct(1060, logical.AggCount, s("k1")), distinct(1062, logical.AggSum, s("qty")), distinct(1063, logical.AggSum, s("amount"))),
			sql: `SELECT region, COUNT(DISTINCT k1), SUM(DISTINCT qty), SUM(DISTINCT amount) FROM sales WHERE k2 <> 17 GROUP BY region`},
		{name: "sum_expr", plan: grp(f.scan("sales", []logical.Scalar{cmpConst(logical.CmpGt, s("qty"), 3)}, "k2", "qty", "amount"), keys(s("k2")), count, amountTimesQty),
			sql: `SELECT k2, COUNT(*), SUM(amount * qty) FROM sales WHERE qty > 3 GROUP BY k2`},
		{name: "stream_ordered", ordered: true, plan: stream,
			sql: `SELECT cust, COUNT(*), SUM(amount) FROM sales WHERE cust >= 10 AND cust < 40 GROUP BY cust ORDER BY cust`},

		{name: "nl_inner", plan: nl(logical.InnerJoin, pk, wLtV),
			sql: `SELECT P.k, P.nk, P.v, P.f, B.k, B.nk, B.w FROM P JOIN B ON P.k = B.k AND B.w < P.v`},
		{name: "nl_left", plan: nl(logical.LeftOuterJoin, pk, wLtV, vPlusW),
			sql: `SELECT P.k, P.nk, P.v, P.f, B.k, B.nk, B.w FROM P LEFT OUTER JOIN B ON ` + extraOn},
		{name: "nl_full", plan: nl(logical.FullOuterJoin, pk, wLtV, vPlusW),
			sql: `SELECT P.k, P.nk, P.v, P.f, B.k, B.nk, B.w FROM P FULL OUTER JOIN B ON ` + extraOn},
		{name: "nl_semi", plan: nl(logical.SemiJoin, pk, wLtV, vPlusW),
			sql: `SELECT P.k, P.nk, P.v, P.f FROM P WHERE EXISTS (SELECT 1 FROM B WHERE ` + extraOn + `)`},
		{name: "nl_anti", plan: nl(logical.AntiJoin, pk, wLtV, vPlusW),
			sql: `SELECT P.k, P.nk, P.v, P.f FROM P WHERE NOT EXISTS (SELECT 1 FROM B WHERE ` + extraOn + `)`},
		{name: "inl_semi", plan: inlDim1(logical.SemiJoin),
			sql: `SELECT s.id, s.k1, s.k2 FROM sales s WHERE s.k2 <> 17 AND EXISTS (SELECT 1 FROM dim1 d WHERE d.k = s.k1 AND d.filt < 5)`},
		{name: "inl_anti", plan: inlDim1(logical.AntiJoin),
			sql: `SELECT s.id, s.k1, s.k2 FROM sales s WHERE s.k2 <> 17 AND NOT EXISTS (SELECT 1 FROM dim1 d WHERE d.k = s.k1 AND d.filt < 5)`},
		{name: "merge_left", plan: merge(logical.LeftOuterJoin),
			sql: `SELECT P.k, P.nk, P.v, P.f, B.k, B.nk, B.w FROM P LEFT OUTER JOIN B ON ` + extraOn},
		{name: "merge_anti", plan: merge(logical.AntiJoin),
			sql: `SELECT P.k, P.nk, P.v, P.f FROM P WHERE NOT EXISTS (SELECT 1 FROM B WHERE ` + extraOn + `)`},
		{name: "union_all", plan: &physical.UnionAll{Cols: keys(1070, 1071),
			Left: f.scan("P", []logical.Scalar{cmpConst(logical.CmpLt, p("v"), 1500)}, "k", "v"), LeftCols: keys(p("k"), p("v")),
			Right: bScan, RightCols: keys(b("k"), b("w"))},
			sql: `SELECT k, v FROM P WHERE v < 1500 UNION ALL SELECT k, w FROM B`},
		{name: "sort_odd_keys", ordered: true, plan: &physical.Sort{Input: oScan, By: logical.Ordering{{Col: o("x")}, {Col: o("id"), Desc: true}}},
			sql: `SELECT id, x, n FROM O ORDER BY x, id DESC`},
		{name: "sort_mixed_kinds", ordered: true, plan: &physical.Sort{Input: oScan, By: logical.Ordering{{Col: o("n"), Desc: true}, {Col: o("id")}}},
			sql: `SELECT id, x, n FROM O ORDER BY n DESC, id`},
		{name: "topn_odd_keys", ordered: true, plan: &physical.LimitOp{N: 700, Input: &physical.Sort{Input: oScan, By: logical.Ordering{{Col: o("x"), Desc: true}, {Col: o("id")}}}},
			sql: `SELECT id, x, n FROM O ORDER BY x DESC, id LIMIT 700`},
		{name: "join_sorted_probe", ordered: true, plan: join(logical.InnerJoin, top600, bScan, p("k"), b("k")),
			sql: `SELECT P.k, P.nk, P.v, P.f, B.k, B.nk, B.w FROM P JOIN B ON P.k = B.k WHERE P.v >= 2400 ORDER BY P.v DESC, B.w`},
		{name: "full_sorted_inputs", ordered: true, plan: join(logical.FullOuterJoin, top600, bByW, p("k"), b("k")),
			sql: `SELECT L.k, L.nk, L.v, L.f, B.k, B.nk, B.w FROM (SELECT k, nk, v, f FROM P WHERE v >= 2400) L FULL OUTER JOIN B ON L.k = B.k ORDER BY L.v DESC, B.w DESC`},
		{name: "merge_inner_mixed", plan: oMerge(logical.InnerJoin),
			sql: `SELECT L.id, L.x, L.n, R.id, R.x, R.n FROM O L JOIN O R ON L.n = R.n WHERE L.id < 40 AND R.id < 600`},
		{name: "merge_left_mixed", plan: oMerge(logical.LeftOuterJoin, cmpConst(logical.CmpNe, o2[2], 1<<53+2)),
			sql: `SELECT L.id, L.x, L.n, R.id, R.x, R.n FROM O L LEFT OUTER JOIN O R ON L.n = R.n AND R.id < 600 AND R.n <> 9007199254740994 WHERE L.id < 40`},
		{name: "max_x_is_top1", plan: extreme(logical.AggMax, "x"), sql: `SELECT x FROM O WHERE x IS NOT NULL ORDER BY x DESC LIMIT 1`},
		{name: "min_x_is_top1", plan: extreme(logical.AggMin, "x"), sql: `SELECT x FROM O WHERE x IS NOT NULL ORDER BY x LIMIT 1`},
		{name: "max_n_is_top1", plan: extreme(logical.AggMax, "n"), sql: `SELECT n FROM O ORDER BY n DESC, id LIMIT 1`},
		{name: "min_n_is_top1", plan: extreme(logical.AggMin, "n"), sql: `SELECT n FROM O ORDER BY n, id LIMIT 1`},
		{name: "hash_join_x", plan: oHash(1), sql: oJoinX},
		{name: "nl_join_x", plan: &physical.NLJoin{Kind: logical.InnerJoin, Left: oLeft, Right: oRight, On: []logical.Scalar{oEq(1)}}, sql: oJoinX},
		{name: "merge_join_x", plan: &physical.MergeJoin{Kind: logical.InnerJoin, LeftKeys: keys(o("x")), RightKeys: keys(o2[1]),
			Left: oBy(oLeft, o("x")), Right: oBy(oRight, o2[1])}, sql: oJoinX},
		{name: "hash_join_n", plan: oHash(2), sql: oJoinN},
		{name: "nl_join_n", plan: &physical.NLJoin{Kind: logical.InnerJoin, Left: oLeft, Right: oRight, On: []logical.Scalar{oEq(2)}}, sql: oJoinN},
		{name: "join_count_x", plan: grp(oHash(1), nil, count), sql: oGroupProduct},
		// The index orders its entries as a sort does: an ORDER BY the index
		// answers is the ORDER BY a sort answers.
		{name: "index_order_odd_keys", ordered: true, plan: &physical.IndexScan{Table: f.tabs["O"], Index: f.index("O", "o_x"), Binding: "O",
			Cols: keys(o("id"), o("x"), o("n")), ColOrds: []int{0, 1, 2}},
			sql: `SELECT id, x, n FROM O WHERE x IS NOT NULL ORDER BY x, id`},
	}
}

// pipeWant pins each case's logical work as operator-at-a-time execution —
// and, for the nested-loop, index and merge joins, unions and sorts, the row
// operators that preceded the batch ones — reported it, unlimited budget:
// RowsProcessed, HashOps, SegmentsRead, SegmentsPruned.
var pipeWant = map[string][4]int64{
	"filter_agg":            {9085, 3085, 5, 0},
	"string_filter":         {7207, 1207, 5, 0},
	"groupby_low_ndv":       {10740, 4740, 5, 0},
	"groupby_1000":          {11072, 5072, 5, 0},
	"pk_range":              {5200, 2600, 0, 0},
	"index_lookup":          {104, 0, 0, 0},
	"index_eq_range":        {112, 56, 0, 0},
	"star_1dim":             {12089, 5989, 5, 0},
	"star_3dim":             {13903, 12029, 5, 0},
	"topn":                  {6305, 0, 5, 0},
	"having":                {12100, 6000, 5, 0},
	"clustered_range_agg":   {2504, 600, 1, 4},
	"groupby_two_keys":      {6743, 743, 5, 0},
	"left_outer":            {8008, 2964, 2, 0},
	"full_outer_agg":        {13387, 8343, 2, 0},
	"semi":                  {5639, 2964, 2, 0},
	"anti":                  {5639, 2964, 2, 0},
	"expanding_join_agg":    {12746, 7702, 2, 0},
	"empty_scalar":          {880, 0, 0, 5},
	"empty_grouped":         {980, 100, 0, 5},
	"null_keys":             {6270, 3000, 2, 0},
	"pruned_to_nothing":     {880, 0, 0, 5},
	"residual_mid_pipeline": {15723, 5941, 2, 0},
	"mixed_representation":  {9000, 4500, 4, 0},
	"limit_no_agg":          {10579, 0, 5, 0},
	"extra_inner":           {8008, 2964, 2, 0},
	"extra_left":            {8008, 2964, 2, 0},
	"extra_full":            {8008, 2964, 2, 0},
	"extra_semi":            {6674, 2964, 2, 0},
	"extra_anti":            {6674, 2964, 2, 0},
	"distinct_aggs":         {11944, 5944, 5, 0},
	"sum_expr":              {11119, 5119, 5, 0},
	"stream_ordered":        {5958, 0, 0, 0},
	"nl_inner":              {813270, 0, 2, 0},
	"nl_left":               {813270, 0, 2, 0},
	"nl_full":               {813270, 0, 2, 0},
	"nl_semi":               {520390, 0, 2, 0},
	"nl_anti":               {520390, 0, 2, 0},
	"inl_semi":              {11944, 0, 5, 0},
	"inl_anti":              {11944, 0, 5, 0},
	"merge_left":            {8008, 0, 2, 0},
	"merge_anti":            {6674, 0, 2, 0},
	"union_all":             {5040, 0, 2, 0},
	"sort_odd_keys":         {3000, 0, 2, 0},
	"sort_mixed_kinds":      {3000, 0, 2, 0},
	"topn_odd_keys":         {3000, 0, 2, 0},
	"index_order_odd_keys":  {2727, 0, 0, 0},
	"join_sorted_probe":     {4208, 800, 2, 0},
	"full_sorted_inputs":    {4208, 800, 2, 0},
	"merge_inner_mixed":     {11955, 0, 2, 2},
	"merge_left_mixed":      {9355, 0, 2, 2},
	"max_x_is_top1":         {6000, 3000, 2, 0},
	"min_x_is_top1":         {6000, 3000, 2, 0},
	"max_n_is_top1":         {6000, 3000, 2, 0},
	"min_n_is_top1":         {6000, 3000, 2, 0},
	"hash_join_x":           {7017, 581, 2, 2},
	"nl_join_x":             {27952, 0, 2, 2},
	"merge_join_x":          {7017, 0, 2, 2},
	"hash_join_n":           {11955, 640, 2, 2},
	"nl_join_n":             {27952, 0, 2, 2},
	"join_count_x":          {10082, 3646, 2, 2},
}

func pipeCounters(c *Ctx) [4]int64 {
	cs := c.Counters
	return [4]int64{cs.RowsProcessed, cs.HashOps, cs.SegmentsRead, cs.SegmentsPruned}
}

// spillCases are the pipeCases whose join build, group table or sort buffer
// outgrows a 4 KiB budget at one worker: every hash join kind, with and
// without a predicate beside the key, hash joins over sorted inputs,
// aggregations over typed and expression arguments, and sorts.
var spillCases = []string{
	"groupby_1000", "star_1dim", "star_3dim", "having", "groupby_two_keys", "left_outer", "full_outer_agg",
	"semi", "anti", "expanding_join_agg", "null_keys", "residual_mid_pipeline", "extra_inner",
	"extra_left", "extra_full", "extra_semi", "extra_anti", "sum_expr", "merge_left", "sort_odd_keys",
	"sort_mixed_kinds", "topn_odd_keys", "join_sorted_probe", "full_sorted_inputs", "merge_inner_mixed",
	"merge_left_mixed",
}

// TestPipelineEquivalence: every statement shape of the analytic workload,
// the join kinds of every join operator, unions, sorts and top-N over keys
// holding NULL, NaN, both zeros and INT/FLOAT pairs past 2^53, and the
// degenerate inputs, at 1/2/8 workers × kernels on/off × unlimited/4 KiB
// budget. The rows are the reference evaluator's — as a bag with exact float
// bits, as a sequence where the statement orders them, which an index scan
// delivers in the order a sort does — and the logical work counters are the
// ones operator-at-a-time execution over rows reported, at every worker count
// and budget: spilling partitions the work, it does not add to it.
func TestPipelineEquivalence(t *testing.T) {
	f := newPipeFixture(t)
	tmp := t.TempDir()
	spilled := map[string]bool{}
	for _, tc := range pipeCases(f) {
		sel, err := sql.ParseSelect(tc.sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		q, err := logical.NewBuilder(f.cat).Build(sel)
		if err != nil {
			t.Fatalf("%s: build: %v", tc.name, err)
		}
		ref, err := reference.New(f.store, q.Meta).RunQuery(q)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		want := hexRowsInOrder(&Result{Rows: ref.Rows})
		if !tc.ordered {
			sort.Strings(want)
		}
		for _, budget := range []int64{0, 4 << 10} {
			for _, vectorize := range []bool{true, false} {
				var first [4]int64
				for _, workers := range []int{1, 2, 8} {
					label := fmt.Sprintf("%s budget=%d vectorize=%v workers=%d", tc.name, budget, vectorize, workers)
					c := NewCtx(f.store, f.md)
					c.Parallelism, c.Vectorize, c.Mem, c.TempDir = workers, vectorize, NewMemAccount(budget), tmp
					res, err := Run(tc.plan, c)
					c.Close()
					if err != nil {
						t.Errorf("%s: %v", label, err)
						continue
					}
					got := hexRowsInOrder(res)
					if !tc.ordered {
						sort.Strings(got)
					}
					if len(got) != len(want) {
						t.Errorf("%s: %d rows, reference evaluator %d", label, len(got), len(want))
						continue
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s: row %d = %s, reference evaluator %s", label, i, got[i], want[i])
							break
						}
					}
					if used := c.Mem.used.Load(); used != 0 {
						t.Errorf("%s: %d bytes still reserved after the run", label, used)
					}
					cs := pipeCounters(c)
					if workers == 1 && c.Counters.Spills > 0 {
						spilled[tc.name] = true
					}
					if workers == 1 {
						first = cs
						if pinned, ok := pipeWant[tc.name]; !ok || cs != pinned {
							t.Errorf("%s: counters %v, pinned %v", label, cs, pinned)
						}
					} else if cs != first {
						t.Errorf("%s: counters %v, one worker %v", label, cs, first)
					}
				}
			}
		}
	}
	for _, name := range spillCases {
		if !spilled[name] {
			t.Errorf("%s never spilled under the 4 KiB budget", name)
		}
	}
}

// TestGroupsAreCompareClasses: GROUP BY and DISTINCT over O.x make one group
// per class of datum.Compare — NULL, NaN, the two zeros together, each other
// value — of the size counted here in plain Go, at 1/2/8 workers, kernels on
// and off: equal keys hash equally, whatever their float bits.
func TestGroupsAreCompareClasses(t *testing.T) {
	f := newPipeFixture(t)
	x := f.col("O", "x")
	scan := f.scan("O", nil, "x")
	all, err := Run(scan, NewCtx(f.store, f.md))
	if err != nil {
		t.Fatal(err)
	}
	class := func(d datum.D) string {
		if d.IsNull() {
			return "NULL"
		}
		switch v := d.Float(); {
		case v != v:
			return "NaN"
		case v == 0:
			return "0"
		default:
			return strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	want := map[string]int64{}
	for _, r := range all.Rows {
		want[class(r[0])]++
	}
	if want["0"] == 0 || want["NaN"] == 0 {
		t.Fatal("O.x holds no zero or no NaN")
	}
	groupBy := &physical.HashGroupBy{Input: scan, GroupCols: []logical.ColumnID{x}, Aggs: []logical.AggItem{aggOf(1000, logical.AggCount, 0)}}
	distinct := &physical.HashGroupBy{Input: scan, GroupCols: []logical.ColumnID{x}}
	for _, vectorize := range []bool{true, false} {
		for _, workers := range []int{1, 2, 8} {
			for name, plan := range map[string]physical.Plan{"group by": groupBy, "distinct": distinct} {
				c := NewCtx(f.store, f.md)
				c.Parallelism, c.Vectorize = workers, vectorize
				res, err := Run(plan, c)
				c.Close()
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != len(want) {
					t.Errorf("%s vectorize=%v workers=%d: %d groups, %d classes of Compare", name, vectorize, workers, len(res.Rows), len(want))
				}
				for _, r := range res.Rows {
					if name == "group by" && r[1].Int() != want[class(r[0])] {
						t.Errorf("vectorize=%v workers=%d: group %v counts %d rows, its class %d", vectorize, workers, r[0], r[1].Int(), want[class(r[0])])
					}
				}
			}
		}
	}
}
