package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// spillCtx is a minimal context for driving the spill machinery directly.
func spillCtx(t *testing.T, budget int64) *Ctx {
	t.Helper()
	c := NewCtx(nil, nil)
	c.Mem = NewMemAccount(budget)
	c.TempDir = t.TempDir()
	return c
}

func randSpillRows(rng *rand.Rand, n int) []datum.Row {
	strs := []string{"ant", "bee", "cat", "dog", "elk", ""}
	rows := make([]datum.Row, n)
	for i := range rows {
		var key datum.D
		switch rng.Intn(10) {
		case 0:
			key = datum.Null
		case 1:
			key = datum.NewString(strs[rng.Intn(len(strs))])
		default:
			key = datum.NewInt(int64(rng.Intn(50)))
		}
		rows[i] = datum.Row{
			key,
			datum.NewInt(int64(i)),
			datum.NewFloat(float64(rng.Intn(100000))/7 - 5000),
		}
	}
	return rows
}

func TestSpillFileRoundTripIsBitExact(t *testing.T) {
	c := spillCtx(t, 0)
	dict := &datum.StrDict{Vals: []string{"", "héllo\x00world", "zeta"}}
	in := &Batch{n: 5, Vecs: []*datum.Vec{
		mkVec(datum.Null, datum.NewBool(true), datum.NewBool(false), datum.Null, datum.NewBool(true)),
		mkVec(datum.NewInt(-1<<62), datum.NewInt(0), datum.Null, datum.NewInt(1<<62-1), datum.NewInt(7)),
		mkVec(datum.NewFloat(0.1), datum.NewFloat(math.Copysign(0, -1)), datum.NewFloat(math.MaxFloat64),
			datum.NewFloat(math.SmallestNonzeroFloat64), datum.NewFloat(math.NaN())),
		datum.NewDictVec(5, []int64{1, 0, 0, 2, 1}, dict, datum.Bitmap{1 << 2}, 1),
		mkVec(datum.NewInt(1), datum.NewFloat(1.5), datum.NewString("x"), datum.Null, datum.NewBool(true)), // boxed
		mkVec(datum.Null, datum.Null, datum.Null, datum.Null, datum.Null),
	}}
	cols := make([]logical.ColumnID, len(in.Vecs))
	sf, err := c.newSpillFile()
	if err != nil {
		t.Fatal(err)
	}
	defer sf.discard()
	// The whole batch as one block, then its rows 4, 1 and 3 gathered as a second.
	if err := sf.write(in); err != nil {
		t.Fatal(err)
	}
	sel := []int32{1, 3, 4}
	if err := sf.write(&Batch{Vecs: in.Vecs, Sel: sel, n: in.n}); err != nil {
		t.Fatal(err)
	}
	if err := sf.finish(); err != nil {
		t.Fatal(err)
	}
	got, err := sf.readAll(cols)
	if err != nil {
		t.Fatal(err)
	}
	want := append(in.ToRows(), (&Batch{Vecs: in.Vecs, Sel: sel, n: in.n}).ToRows()...)
	if got.NumRows() != len(want) {
		t.Fatalf("read %d rows, wrote %d", got.NumRows(), len(want))
	}
	for i, row := range got.ToRows() {
		for j, d := range row {
			w := want[i][j]
			same := d.Kind() == w.Kind() && (w.IsNull() || datum.Compare(d, w) == 0)
			if w.Kind() == datum.KindFloat {
				same = d.Kind() == datum.KindFloat && math.Float64bits(d.Float()) == math.Float64bits(w.Float())
			}
			if !same {
				t.Fatalf("row %d col %d = %v, want %v", i, j, d, w)
			}
		}
	}
	if b, err := sf.read(cols); b != nil || err != nil {
		t.Fatalf("read past the last block: %v, %v", b, err)
	}
	if c.Counters.Spills != 1 || c.Counters.SpillBytes != sf.bytes || sf.bytes == 0 {
		t.Fatalf("spill counters = %d/%d, file %d bytes", c.Counters.Spills, c.Counters.SpillBytes, sf.bytes)
	}
}

func TestSpillFanoutBounds(t *testing.T) {
	cases := []struct {
		total, avail int64
		want         int
	}{
		{0, 1 << 30, 2},        // at least two partitions
		{1 << 30, 1 << 20, 64}, // capped at the max fanout
		{1 << 20, 1 << 20, 2},  // total/(avail/2) = 2
		{200 << 10, 10, 4},     // tiny budget: floor of 64 KiB chunks
	}
	for _, tc := range cases {
		if got := spillFanout(tc.total, tc.avail); got != tc.want {
			t.Errorf("spillFanout(%d, %d) = %d, want %d", tc.total, tc.avail, got, tc.want)
		}
	}
}

// TestExternalSortMatchesStableSort: the degraded sort must reproduce the
// in-memory stable sort exactly — same keys, same tie order — at several
// budgets so both single-run and many-run merges are covered.
func TestExternalSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rows := randSpillRows(rng, 5000)
	spec := []datum.SortSpec{{Col: 0}, {Col: 2, Desc: true}}
	want := append([]datum.Row(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool {
		return datum.CompareRows(want[i], want[j], spec) < 0
	})
	for _, budget := range []int64{1, 4 << 10, 1 << 20} {
		c := spillCtx(t, budget)
		got, err := c.externalSortRows(append([]datum.Row(nil), rows...), spec)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if len(got) != len(want) {
			t.Fatalf("budget %d: %d rows, want %d", budget, len(got), len(want))
		}
		for i := range want {
			if got[i].String() != want[i].String() {
				t.Fatalf("budget %d: row %d = %s, want %s", budget, i, got[i], want[i])
			}
		}
		if c.Counters.Spills == 0 {
			t.Fatalf("budget %d: external sort wrote no runs", budget)
		}
		if c.Mem.Used() != 0 {
			t.Fatalf("budget %d: leaked %d reserved bytes", budget, c.Mem.Used())
		}
	}
}

// runSpilled runs plan once with no budget and once under budget at each
// degree, and requires the same rows in the same order, floats to the bit,
// and the same logical work from a run that spilled and released everything
// it reserved.
func runSpilled(t *testing.T, label string, plan physical.Plan, budget int64) {
	t.Helper()
	truth := NewCtx(nil, nil)
	truth.Mem = NewMemAccount(0)
	want, err := Run(plan, truth)
	if err != nil {
		t.Fatalf("%s in memory: %v", label, err)
	}
	if truth.Counters.Spills != 0 {
		t.Fatalf("%s: the unbudgeted run spilled", label)
	}
	for _, degree := range []int{1, 4} {
		c := spillCtx(t, budget)
		c.Parallelism = degree
		got, err := Run(plan, c)
		c.Close()
		if err != nil {
			t.Fatalf("%s degree %d: %v", label, degree, err)
		}
		if c.Counters.Spills == 0 {
			t.Fatalf("%s degree %d: nothing spilled", label, degree)
		}
		if c.Mem.Used() != 0 {
			t.Fatalf("%s degree %d: leaked %d reserved bytes", label, degree, c.Mem.Used())
		}
		if cw, cg := truth.Counters, c.Counters; cg.RowsProcessed != cw.RowsProcessed || cg.HashOps != cw.HashOps {
			t.Fatalf("%s degree %d: rows processed %d, hash ops %d; in memory %d, %d", label, degree, cg.RowsProcessed, cg.HashOps, cw.RowsProcessed, cw.HashOps)
		}
		w, g := hexRowsInOrder(want), hexRowsInOrder(got)
		if len(g) != len(w) {
			t.Fatalf("%s degree %d: %d rows, want %d", label, degree, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s degree %d: row %d = %s, want %s", label, degree, i, g[i], w[i])
			}
		}
	}
}

// TestGraceHashJoinMatchesInMemory: for every join kind, with and without a
// predicate beside the key, the grace join's output must equal the in-memory
// hash join's — Run of the same plan with an unlimited budget — in the
// identical order. The key column mixes INT, STRING and NULL, so both sides
// hash and compare boxed keys.
func TestGraceHashJoinMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	left := randSpillRows(rng, 2000)
	right := randSpillRows(rng, 1500)
	lCols, rCols := []logical.ColumnID{1, 2, 3}, []logical.ColumnID{4, 5, 6}
	// R.f < L.f compiles to a kernel; L.v + R.v > 1500 runs row-at-a-time.
	extra := []logical.Scalar{
		&logical.Cmp{Op: logical.CmpLt, L: &logical.Col{ID: 6}, R: &logical.Col{ID: 3}},
		&logical.Cmp{Op: logical.CmpGt, L: &logical.Arith{Op: logical.ArithAdd, L: &logical.Col{ID: 2}, R: &logical.Col{ID: 5}}, R: &logical.Const{Val: datum.NewInt(1500)}},
	}
	kinds := []logical.JoinKind{
		logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin,
		logical.SemiJoin, logical.AntiJoin,
	}
	for _, kind := range kinds {
		for _, on := range [][]logical.Scalar{nil, extra} {
			hj := &physical.HashJoin{
				Kind: kind, Left: valuesOf(lCols, left), Right: valuesOf(rCols, right),
				LeftKeys: lCols[:1], RightKeys: rCols[:1], ExtraOn: on,
			}
			runSpilled(t, fmt.Sprintf("%v extra=%d", kind, len(on)), hj, 1)
		}
	}
}

// TestGraceHashJoinSkewFailsTyped: a build side whose keys are all equal
// collapses into one partition; when that partition exceeds both the minimal
// working set and the budget, the query fails with the typed budget error
// instead of thrashing.
func TestGraceHashJoinSkewFailsTyped(t *testing.T) {
	// ~100 bytes/row x 3000 rows ≈ 300 KB in one partition (> spillFloor).
	right := make([]datum.Row, 3000)
	for i := range right {
		right[i] = datum.Row{datum.NewInt(7), datum.NewString("padding-padding-padding-padding-padding-padding")}
	}
	left := []datum.Row{{datum.NewInt(7), datum.NewInt(1), datum.NewInt(2)}}
	lCols := []logical.ColumnID{1, 2, 3}
	rCols := []logical.ColumnID{4, 5}
	hj := &physical.HashJoin{
		Kind: logical.InnerJoin,
		Left: valuesOf(lCols, left), Right: valuesOf(rCols, right),
		LeftKeys: lCols[:1], RightKeys: rCols[:1],
	}
	c := spillCtx(t, 32<<10)
	_, err := Run(hj, c)
	if err == nil {
		t.Fatal("skewed grace join under tiny budget succeeded")
	}
	if !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("error %v does not match ErrMemoryBudgetExceeded", err)
	}
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not typed", err)
	}
	if be.Op != "hash join build partition" {
		t.Fatalf("error op = %q", be.Op)
	}
	if c.Mem.Used() != 0 {
		t.Fatalf("failed join leaked %d reserved bytes", c.Mem.Used())
	}
}

// TestSpillGroupByMatchesInMemory: partitioned aggregation must reproduce the
// in-memory aggregation's groups in first-seen order, bit-identical floats —
// over a key mixing INT, STRING and NULL, with DISTINCT and expression
// arguments, which accumulate through the row accumulators.
func TestSpillGroupByMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randSpillRows(rng, 4000)
	layout := []logical.ColumnID{1, 2, 3}
	aggs := []logical.AggItem{
		{ID: 10, Fn: logical.AggCount},
		{ID: 11, Fn: logical.AggSum, Arg: &logical.Col{ID: 3}},
		{ID: 12, Fn: logical.AggMin, Arg: &logical.Col{ID: 2}},
		{ID: 13, Fn: logical.AggAvg, Arg: &logical.Col{ID: 3}},
		{ID: 14, Fn: logical.AggCount, Arg: &logical.Col{ID: 3}, Distinct: true},
		{ID: 15, Fn: logical.AggSum, Arg: &logical.Arith{Op: logical.ArithMul, L: &logical.Col{ID: 2}, R: &logical.Col{ID: 3}}},
	}
	plan := &physical.HashGroupBy{Input: valuesOf(layout, in), GroupCols: layout[:1], Aggs: aggs}
	runSpilled(t, "group by", plan, 1)

	// The reference evaluator's row group table agrees, in order.
	want, err := NewCtx(nil, nil).memGroupBy(in, layout, []int{0}, layout[:1], aggs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(plan, spillCtx(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	w, g := hexRowsInOrder(&Result{Rows: want}), hexRowsInOrder(got)
	if len(g) != len(w) {
		t.Fatalf("%d groups, want %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("group %d = %s, want %s", i, g[i], w[i])
		}
	}
}

// memGroupBy is the in-memory truth: the reference evaluator's group table
// fed serially.
func (c *Ctx) memGroupBy(in []datum.Row, layout []logical.ColumnID, keyOff []int, groupCols []logical.ColumnID, aggs []logical.AggItem) ([]datum.Row, error) {
	gt := newGroupTable(len(groupCols), aggs)
	e := newEnv(layout, nil)
	ectx := c.evalCtx(e)
	for _, r := range in {
		e.row = r
		key := make(datum.Row, len(keyOff))
		for i, off := range keyOff {
			key[i] = r[off]
		}
		args := make([]datum.D, len(aggs))
		for i, a := range aggs {
			if a.Arg == nil {
				args[i] = datum.NewInt(1)
				continue
			}
			v, err := logical.Eval(a.Arg, ectx)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		gt.add(key, key.Hash(seqOffsets(len(key))), args)
	}
	return gt.rows(), nil
}

// TestKernelGroupByBudgetTripInWorker: the kernel aggregation's per-worker
// tables all charge one 4 KiB account, so at degree 4 the trip happens inside
// some worker (or, when the partials just fit, in the fold). Either way every
// table is released and the aggregation runs once per spilled partition,
// returning the unbudgeted serial rows in the same order, floats included.
func TestKernelGroupByBudgetTripInWorker(t *testing.T) {
	f := newParFixture(t, 6000, 0, 21)
	k, v, fl := f.rCols[0], f.rCols[1], f.rCols[2]
	aggs := []logical.AggItem{
		{ID: 100, Fn: logical.AggCount},
		{ID: 101, Fn: logical.AggSum, Arg: &logical.Col{ID: fl}},
		{ID: 102, Fn: logical.AggAvg, Arg: &logical.Col{ID: fl}},
		{ID: 103, Fn: logical.AggMax, Arg: &logical.Col{ID: v}},
	}
	for _, in := range []struct {
		groupCols []logical.ColumnID
		// tiny says the 4 KiB run applies: with four aggregates a partition of
		// the 6000-group inputs outgrows the spill floor under so small a
		// budget, with kernels on or off.
		tiny bool
	}{
		{[]logical.ColumnID{fl}, true},     // ~1000 groups
		{[]logical.ColumnID{k}, true},      // 41 groups
		{[]logical.ColumnID{v}, false},     // 6000 dense integer keys
		{[]logical.ColumnID{k, fl}, false}, // two keys
	} {
		groupCols, tiny := in.groupCols, in.tiny
		plan := &physical.HashGroupBy{Input: f.rScan, GroupCols: groupCols, Aggs: aggs}
		want, err := Run(plan, f.ctx(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		// The trip point does not depend on kernels: a budget of exactly the
		// one-worker peak fits with them on or off, one byte less spills.
		unbudgeted := f.ctx(t, 1)
		unbudgeted.Vectorize, unbudgeted.Mem = false, NewMemAccount(0)
		if _, err := Run(plan, unbudgeted); err != nil {
			t.Fatal(err)
		}
		peak := unbudgeted.Mem.Peak()
		for _, vectorize := range []bool{false, true} {
			for _, tc := range []struct {
				budget int64
				spills bool
			}{{peak, false}, {peak - 1, true}} {
				c := f.ctx(t, 1)
				c.Vectorize, c.Mem, c.TempDir = vectorize, NewMemAccount(tc.budget), t.TempDir()
				if _, err := Run(plan, c); err != nil {
					t.Fatalf("%d groups, vectorize %v, budget %d: %v", len(want.Rows), vectorize, tc.budget, err)
				}
				if spilled := c.Counters.Spills > 0; spilled != tc.spills {
					t.Errorf("%d groups, vectorize %v, budget %d of peak %d: spilled %v, want %v", len(want.Rows), vectorize, tc.budget, peak, spilled, tc.spills)
				}
			}
		}
		if !tiny {
			continue
		}
		for _, degree := range []int{1, 4} {
			c := f.ctx(t, degree)
			c.Mem = NewMemAccount(4 << 10)
			c.TempDir = t.TempDir()
			got, err := Run(plan, c)
			if err != nil {
				t.Fatalf("%d groups, degree %d: %v", len(want.Rows), degree, err)
			}
			if c.Counters.Spills == 0 {
				t.Fatalf("%d groups, degree %d: the 4 KiB budget never tripped", len(want.Rows), degree)
			}
			if c.Mem.Used() != 0 {
				t.Fatalf("%d groups, degree %d: leaked %d reserved bytes", len(want.Rows), degree, c.Mem.Used())
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("degree %d: %d groups, want %d", degree, len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				if got.Rows[i].String() != want.Rows[i].String() {
					t.Fatalf("degree %d: group %d = %s, want %s", degree, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

// checkCountingCtx counts the executor's cancellation checks (each is one
// Value lookup by context.Cause) and cancels itself at the cancelAt-th.
type checkCountingCtx struct {
	context.Context
	cancel   context.CancelFunc
	checks   atomic.Int64
	cancelAt int64
}

func (c *checkCountingCtx) Value(key any) any {
	if c.checks.Add(1) == c.cancelAt {
		c.cancel()
	}
	return c.Context.Value(key)
}

// TestKernelJoinCancelMidProbe: the kernel join's probe is the last phase of
// this plan that checks for cancellation, once per morsel, so canceling a few
// checks before the end lands inside it. Every worker then stops at a morsel
// boundary within a morsel or two, the join returns the cancellation, and
// closing the pool leaves no goroutine behind.
func TestKernelJoinCancelMidProbe(t *testing.T) {
	f := newParFixture(t, 30000, 40, 22)
	plan := &physical.HashJoin{
		Kind: logical.LeftOuterJoin, Left: f.rScan, Right: f.sScan,
		LeftKeys: []logical.ColumnID{f.rCols[0]}, RightKeys: []logical.ColumnID{f.sCols[0]},
	}
	baseline := runtime.NumGoroutine()
	for _, degree := range []int{1, 4, 8} {
		run := func(cancelAt int64) (*checkCountingCtx, *Ctx, error) {
			cc := &checkCountingCtx{cancelAt: cancelAt}
			cc.Context, cc.cancel = context.WithCancel(context.Background())
			defer cc.cancel()
			c := NewCtx(f.store, f.md)
			c.Parallelism = degree
			c.Context = cc
			_, err := Run(plan, c)
			c.Close()
			return cc, c, err
		}
		full, fullCtx, err := run(0)
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		cancelAt := full.checks.Load() - int64(numMorsels(30000))/2
		cc, c, err := run(cancelAt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("degree %d: got %v, want context.Canceled", degree, err)
		}
		// A worker whose check was already in flight when the cancellation
		// landed runs one more morsel before it sees it.
		if late := cc.checks.Load() - cancelAt; late > int64(2*degree) {
			t.Errorf("degree %d: %d checks after the cancellation, want at most two per worker", degree, late)
		}
		if c.Counters.RowsProcessed >= fullCtx.Counters.RowsProcessed {
			t.Errorf("degree %d: canceled run processed %d rows, the full run %d", degree, c.Counters.RowsProcessed, fullCtx.Counters.RowsProcessed)
		}
	}
	requireNoGoroutinesBeyond(t, baseline)
}
