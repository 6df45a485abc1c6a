package exec

// agg_null_test.go pins SQL NULL semantics for every aggregate across every
// execution path: COUNT returns 0 over all-NULL or empty input while
// SUM/AVG/MIN/MAX return NULL — identically whether the accumulator sees rows
// serially (add), is a parallel thread-local partial, or is the merge target
// of partials at the two-phase barrier (merge), with and without DISTINCT, in
// the row group table and in the kernel aggregation's per-worker tables.

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

// TestGroupTableNullMerge drives the same semantics through groupTable's
// two-phase mergeFrom — the path runGroupByParallel actually takes.
func TestGroupTableNullMerge(t *testing.T) {
	items := aggItems()
	argVals := func(v datum.D) []datum.D {
		vals := make([]datum.D, len(items))
		for i, it := range items {
			if it.Fn == logical.AggCount && it.Arg == nil {
				vals[i] = datum.NewInt(1) // COUNT(*) placeholder
			} else {
				vals[i] = v
			}
		}
		return vals
	}
	key := datum.Row{datum.NewInt(7)}
	hash := key.Hash(seqOffsets(1))

	// Serial: 4 NULL rows in one table.
	serial := newGroupTable(1, items)
	for i := 0; i < 4; i++ {
		serial.add(key, hash, argVals(datum.Null))
	}
	// Parallel: the same 4 NULL rows split 3/1 across partials, merged.
	p1, p2 := newGroupTable(1, items), newGroupTable(1, items)
	for i := 0; i < 3; i++ {
		p1.add(key, hash, argVals(datum.Null))
	}
	p2.add(key, hash, argVals(datum.Null))
	final := newGroupTable(1, items)
	final.mergeFrom(p1)
	final.mergeFrom(p2)

	srows, frows := serial.rows(), final.rows()
	if len(srows) != 1 || len(frows) != 1 {
		t.Fatalf("group counts differ: serial=%d merged=%d", len(srows), len(frows))
	}
	for c := range srows[0] {
		s, f := srows[0][c], frows[0][c]
		if s.IsNull() != f.IsNull() || (!s.IsNull() && !datum.Equal(s, f)) {
			t.Errorf("column %d differs: serial=%v merged=%v", c, s, f)
		}
	}
	// And the values themselves are right: group key 7, COUNT(*)=4, both
	// COUNT(x) forms 0, every SUM/AVG/MIN/MAX NULL. Layout mirrors aggItems:
	// key, COUNT(*), COUNT(x), SUM, AVG, MIN, MAX, COUNT(DISTINCT),
	// SUM(DISTINCT), AVG(DISTINCT).
	want := []string{"7", "4", "0", "NULL", "NULL", "NULL", "NULL", "0", "NULL", "NULL"}
	for i, w := range want {
		got := srows[0][i].String()
		if srows[0][i].IsNull() {
			got = "NULL"
		}
		if got != w {
			t.Errorf("column %d = %s, want %s", i, got, w)
		}
	}
}

// TestVecAggWorkerNullFold is TestGroupTableNullMerge for the kernel
// aggregation: 4 all-NULL rows of one group split 3/1 across two workers'
// tables, plus a group only the second worker saw, folded by key. Over a
// typed argument column the typed accumulators fold, over an all-NULL one
// the NULL-argument accumulator does.
func TestVecAggWorkerNullFold(t *testing.T) {
	arg := &logical.Col{ID: 2}
	items := []logical.AggItem{
		{Fn: logical.AggCount}, {Fn: logical.AggCount, Arg: arg}, {Fn: logical.AggSum, Arg: arg},
		{Fn: logical.AggAvg, Arg: arg}, {Fn: logical.AggMin, Arg: arg}, {Fn: logical.AggMax, Arg: arg},
	}
	null, seven, eight := datum.Null, datum.NewInt(7), datum.NewInt(8)
	for _, lone := range []datum.D{datum.NewFloat(2.5), null} {
		// Rows 0-2 go to worker 0, rows 3-4 to worker 1; key 8 is worker 1's own.
		in := &Batch{n: 5, Vecs: []*datum.Vec{
			mkVec(seven, seven, seven, seven, eight),
			mkVec(null, null, null, null, lone),
		}}
		workers := make([]*vecAggWorker, 2)
		for w := range workers {
			wk := &vecAggWorker{groups: newVecGroups(1, len(items), 0, nil)}
			for _, it := range items {
				wk.accs = append(wk.accs, newVecAccumulator(it, in.Vecs[1]))
				wk.sigs = append(wk.sigs, reprSig(in.Vecs[1]))
			}
			sel := []int32{0, 1, 2}
			if w == 1 {
				sel = []int32{3, 4}
			}
			hs, gids := make([]uint64, len(sel)), make([]int32, len(sel))
			hashInit(hs)
			hashCombineVec(in.Vecs[0], sel, hs)
			wk.groups.bind(in.Vecs, []int{0})
			for k, i := range sel {
				gids[k] = wk.groups.assign(i, mixHash(hs[k]))
			}
			for _, acc := range wk.accs {
				acc.ensure(wk.groups.n, 0)
				acc.accumulate(in.Vecs[1], sel, gids)
			}
			workers[w] = wk
		}
		if err := workers[0].fold(workers[1]); err != nil {
			t.Fatal(err)
		}
		// Layout mirrors items: COUNT(*), COUNT(x), SUM, AVG, MIN, MAX.
		want := [][]string{{"4", "0", "NULL", "NULL", "NULL", "NULL"}, {"1", "1", "2.5", "2.5", "2.5", "2.5"}}
		if lone.IsNull() {
			want[1] = []string{"1", "0", "NULL", "NULL", "NULL", "NULL"}
		}
		if got := workers[0].groups.n; got != 2 {
			t.Fatalf("folded table has %d groups, want 2", got)
		}
		for g, row := range want {
			for ai, w := range row {
				if got := workers[0].accs[ai].emit(2).D(g).String(); got != w {
					t.Errorf("lone=%v group %d aggregate %d = %s, want %s", lone, g, ai, got, w)
				}
			}
		}
	}
}
