package exec

// agg_null_test.go pins SQL NULL semantics for every aggregate across every
// execution path: COUNT returns 0 over all-NULL or empty input while
// SUM/AVG/MIN/MAX return NULL — identically whether the accumulator sees rows
// serially (add), is a parallel thread-local partial, or is the merge target
// of partials at the two-phase barrier (merge), with and without DISTINCT, in
// the row accumulators and in the aggregation's per-worker tables.

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/logical"
)

func aggItems() []logical.AggItem {
	arg := logical.Scalar(&logical.Col{})
	return []logical.AggItem{
		{Fn: logical.AggCount},           // COUNT(*)
		{Fn: logical.AggCount, Arg: arg}, // COUNT(x)
		{Fn: logical.AggSum, Arg: arg},
		{Fn: logical.AggAvg, Arg: arg},
		{Fn: logical.AggMin, Arg: arg},
		{Fn: logical.AggMax, Arg: arg},
		{Fn: logical.AggCount, Arg: arg, Distinct: true},
		{Fn: logical.AggSum, Arg: arg, Distinct: true},
		{Fn: logical.AggAvg, Arg: arg, Distinct: true},
	}
}

// wantOverNulls is the required result per aggregate when every input is NULL
// (or there is no input at all). COUNT(*) over n all-NULL rows counts n, so it
// is checked separately.
func wantNullResult(item logical.AggItem) datum.D {
	if item.Fn == logical.AggCount && item.Arg != nil {
		return datum.NewInt(0)
	}
	return datum.Null
}

func TestAggNullSerialAdd(t *testing.T) {
	for _, item := range aggItems() {
		if item.Fn == logical.AggCount && item.Arg == nil {
			continue // COUNT(*) counts rows regardless of NULLs
		}
		acc := newAgg(item)
		for i := 0; i < 5; i++ {
			acc.add(datum.Null)
		}
		if got, want := acc.result(), wantNullResult(item); !datum.Equal(got, want) && !(got.IsNull() && want.IsNull()) {
			t.Errorf("%v over all-NULL via add: got %v want %v", item, got, want)
		}
	}
}

func TestAggNullEmptyAccumulator(t *testing.T) {
	for _, item := range aggItems() {
		acc := newAgg(item)
		got := acc.result()
		want := wantNullResult(item)
		if item.Fn == logical.AggCount && item.Arg == nil {
			want = datum.NewInt(0)
		}
		if !datum.Equal(got, want) && !(got.IsNull() && want.IsNull()) {
			t.Errorf("%v over empty input: got %v want %v", item, got, want)
		}
	}
}

// TestAggNullMergePaths: merging (a) two all-NULL partials, (b) an all-NULL
// partial into an empty one, and (c) an empty partial into one holding real
// values must behave exactly like the serial path.
func TestAggNullMergePaths(t *testing.T) {
	for _, item := range aggItems() {
		if item.Fn == logical.AggCount && item.Arg == nil {
			continue
		}
		// (a) + (b): all combinations of {empty, all-NULL} partials → NULL/0.
		for _, leftNulls := range []int{0, 3} {
			for _, rightNulls := range []int{0, 3} {
				left, right := newAgg(item), newAgg(item)
				for i := 0; i < leftNulls; i++ {
					left.add(datum.Null)
				}
				for i := 0; i < rightNulls; i++ {
					right.add(datum.Null)
				}
				left.merge(right)
				got, want := left.result(), wantNullResult(item)
				if !datum.Equal(got, want) && !(got.IsNull() && want.IsNull()) {
					t.Errorf("%v merge (%d nulls + %d nulls): got %v want %v",
						item, leftNulls, rightNulls, got, want)
				}
			}
		}
		// (c) an empty/all-NULL partial merged into real values is a no-op.
		withVals, empty := newAgg(item), newAgg(item)
		serial := newAgg(item)
		for _, v := range []int64{4, 2, 9} {
			withVals.add(datum.NewInt(v))
			serial.add(datum.NewInt(v))
		}
		empty.add(datum.Null)
		withVals.merge(empty)
		if got, want := withVals.result(), serial.result(); !datum.Equal(got, want) {
			t.Errorf("%v merge of all-NULL partial changed result: got %v want %v", item, got, want)
		}
	}
}

// testAggWorker builds one aggregation worker's table over the rows sel of
// in, grouped on column 0 with every aggregate's argument in column 1.
func testAggWorker(s *aggSink, in *Batch, sel []int32) *vecAggWorker {
	wk := &vecAggWorker{groups: newVecGroups(1, len(s.aggs), 0, nil)}
	argCol := func(ai int) *datum.Vec {
		if s.aggs[ai].Arg == nil {
			return nil
		}
		return in.Vecs[1]
	}
	for ai := range s.aggs {
		acc, sig := s.newAcc(ai, argCol(ai))
		wk.accs, wk.sigs = append(wk.accs, acc), append(wk.sigs, sig)
	}
	hs, gids := make([]uint64, len(sel)), make([]int32, len(sel))
	datum.HashInit(hs)
	in.Vecs[0].HashInto(sel, hs)
	wk.groups.bind(in.Vecs, []int{0})
	for k, i := range sel {
		gids[k] = wk.groups.assign(i, datum.MixHash(hs[k]))
	}
	for ai, acc := range wk.accs {
		acc.ensure(wk.groups.n, 0)
		acc.accumulate(argCol(ai), sel, gids)
	}
	return wk
}

// TestGroupTableNullMerge drives the row accumulators through the
// aggregation's two-phase merge: 4 NULL rows of one group in a single table
// (serial) must give exactly what the same rows split 3/1 across two
// workers' tables and folded at the barrier give, for every aggregate with
// and without DISTINCT.
func TestGroupTableNullMerge(t *testing.T) {
	arg := &logical.Col{ID: 2}
	items := aggItems()
	for i := range items {
		if items[i].Arg != nil {
			items[i].Arg = arg
		}
	}
	s := &aggSink{aggs: items, boxed: make([]bool, len(items))}
	for ai := range s.boxed {
		s.boxed[ai] = true
	}
	seven, null := datum.NewInt(7), datum.Null
	in := &Batch{n: 4, Vecs: []*datum.Vec{
		mkVec(seven, seven, seven, seven),
		mkVec(null, null, null, null),
	}}
	serial := testAggWorker(s, in, []int32{0, 1, 2, 3})
	merged := testAggWorker(s, in, []int32{0, 1, 2})
	if err := merged.fold(testAggWorker(s, in, []int32{3})); err != nil {
		t.Fatal(err)
	}
	if serial.groups.n != 1 || merged.groups.n != 1 {
		t.Fatalf("group counts differ: serial=%d merged=%d", serial.groups.n, merged.groups.n)
	}
	// Layout mirrors aggItems: COUNT(*), COUNT(x), SUM, AVG, MIN, MAX,
	// COUNT(DISTINCT), SUM(DISTINCT), AVG(DISTINCT).
	want := []string{"4", "0", "NULL", "NULL", "NULL", "NULL", "0", "NULL", "NULL"}
	for ai, w := range want {
		sv, mv := serial.accs[ai].emit(1).D(0), merged.accs[ai].emit(1).D(0)
		if sv.IsNull() != mv.IsNull() || (!sv.IsNull() && !datum.Equal(sv, mv)) {
			t.Errorf("aggregate %d differs: serial=%v merged=%v", ai, sv, mv)
		}
		if got := mv.String(); got != w {
			t.Errorf("aggregate %d = %s, want %s", ai, got, w)
		}
	}
}

// TestVecAggWorkerNullFold drives the same semantics through the
// aggregation's two-phase fold: 4 all-NULL rows of one group split 3/1
// across two workers' tables, plus a group only the second worker saw,
// folded by key — with kernels on, where a typed argument column folds the
// typed accumulators, an all-NULL one the NULL-argument accumulator and
// DISTINCT the row accumulators, and with kernels off, where every aggregate
// folds the row accumulators.
func TestVecAggWorkerNullFold(t *testing.T) {
	arg := &logical.Col{ID: 2}
	items := []logical.AggItem{
		{Fn: logical.AggCount}, {Fn: logical.AggCount, Arg: arg}, {Fn: logical.AggSum, Arg: arg},
		{Fn: logical.AggAvg, Arg: arg}, {Fn: logical.AggMin, Arg: arg}, {Fn: logical.AggMax, Arg: arg},
		{Fn: logical.AggCount, Arg: arg, Distinct: true}, {Fn: logical.AggSum, Arg: arg, Distinct: true},
		{Fn: logical.AggAvg, Arg: arg, Distinct: true},
	}
	null, seven, eight := datum.Null, datum.NewInt(7), datum.NewInt(8)
	for _, kernels := range []bool{true, false} {
		s := &aggSink{aggs: items, boxed: make([]bool, len(items))}
		for ai, it := range items {
			s.boxed[ai] = !kernels || it.Distinct
		}
		for _, lone := range []datum.D{datum.NewFloat(2.5), null} {
			// Rows 0-2 go to worker 0, rows 3-4 to worker 1; key 8 is worker 1's own.
			in := &Batch{n: 5, Vecs: []*datum.Vec{
				mkVec(seven, seven, seven, seven, eight),
				mkVec(null, null, null, null, lone),
			}}
			workers := []*vecAggWorker{
				testAggWorker(s, in, []int32{0, 1, 2}),
				testAggWorker(s, in, []int32{3, 4}),
			}
			if err := workers[0].fold(workers[1]); err != nil {
				t.Fatal(err)
			}
			// Layout mirrors items: COUNT(*), COUNT(x), SUM, AVG, MIN, MAX,
			// COUNT(DISTINCT), SUM(DISTINCT), AVG(DISTINCT).
			want := [][]string{
				{"4", "0", "NULL", "NULL", "NULL", "NULL", "0", "NULL", "NULL"},
				{"1", "1", "2.5", "2.5", "2.5", "2.5", "1", "2.5", "2.5"},
			}
			if lone.IsNull() {
				want[1] = []string{"1", "0", "NULL", "NULL", "NULL", "NULL", "0", "NULL", "NULL"}
			}
			if got := workers[0].groups.n; got != 2 {
				t.Fatalf("folded table has %d groups, want 2", got)
			}
			for g, row := range want {
				for ai, w := range row {
					if got := workers[0].accs[ai].emit(2).D(g).String(); got != w {
						t.Errorf("kernels=%v lone=%v group %d aggregate %d = %s, want %s", kernels, lone, g, ai, got, w)
					}
				}
			}
		}
	}
}
