package exec

// probe_test.go checks the hash join's probe against a nested-loop oracle
// written here over the generated rows: every join kind, with and without an
// extra predicate, on the key shapes the probe treats differently — a unique
// dense INT build key (the direct map), keys near MinInt64 and MaxInt64
// where an unchecked range test would wrap, sparse and duplicate build keys
// (the hash chains), INT against FLOAT, dictionary strings and two-column
// keys — at one and two workers and through the grace join. Rows must come
// out in the oracle's order, and HashOps and RowsProcessed must equal its
// counts.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// probeCase is one pair of inputs L(k, s, v) and R(k, s, w): keys are the
// column offsets joined on, direct whether the build side maps directly.
type probeCase struct {
	name         string
	lKind, rKind datum.Kind
	left, right  []datum.Row
	keys         []int
	direct       bool
}

const probeLeftRows, probeBuildRows = 3000, 1000

// probeCases draws the inputs. About one key in twenty is NULL on either
// side (a unique build key stays unique), and v, w and s carry NULLs too.
func probeCases() []probeCase {
	rng := rand.New(rand.NewSource(40))
	// s is one of 50 words, from the from-th on.
	rowsFrom := func(from, n int, key func(i int) datum.D) []datum.Row {
		out := make([]datum.Row, n)
		for i := range out {
			k, s, x := key(i), datum.NewString(fmt.Sprintf("w%02d", from+rng.Intn(50))), datum.NewInt(int64(rng.Intn(100)))
			if rng.Intn(20) == 0 {
				k = datum.Null
			}
			if rng.Intn(25) == 0 {
				s = datum.Null
			}
			if rng.Intn(15) == 0 {
				x = datum.Null
			}
			out[i] = datum.Row{k, s, x}
		}
		return out
	}
	rows := func(n int, key func(i int) datum.D) []datum.Row { return rowsFrom(0, n, key) }
	ints := func(f func(i int) int64) func(int) datum.D {
		return func(i int) datum.D { return datum.NewInt(f(i)) }
	}
	perm := func(base int64) func(int) datum.D {
		p := rng.Perm(probeBuildRows)
		return ints(func(i int) int64 { return base + int64(p[i]) })
	}
	// around draws keys near each of the bases, off by up to 1100.
	around := func(bases ...int64) func(int) datum.D {
		return ints(func(int) int64 {
			b, d := bases[rng.Intn(len(bases))], int64(rng.Intn(1100))
			if b > 0 {
				return b - d
			}
			return b + d
		})
	}
	const maxK, minK = math.MaxInt64, math.MinInt64
	zeros := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5}
	cases := []probeCase{
		{name: "dense", keys: []int{0}, direct: true,
			left: rows(probeLeftRows, ints(func(int) int64 { return int64(rng.Intn(1040)) - 20 })), right: rows(probeBuildRows, perm(0))},
		{name: "negative", keys: []int{0}, direct: true,
			left: rows(probeLeftRows, ints(func(int) int64 { return int64(rng.Intn(1040)) - 1020 })), right: rows(probeBuildRows, perm(-1000))},
		{name: "near-max", keys: []int{0}, direct: true,
			left: rows(probeLeftRows, around(maxK, minK, 1)), right: rows(probeBuildRows, perm(maxK-probeBuildRows+1))},
		{name: "near-min", keys: []int{0}, direct: true,
			left: rows(probeLeftRows, around(maxK, minK, 1)), right: rows(probeBuildRows, perm(minK))},
		{name: "extremes", keys: []int{0}, // unique, but MaxInt64 − MinInt64 overflows int64
			left: rows(probeLeftRows, around(maxK, minK, 1)), right: rows(probeBuildRows, ints(func(i int) int64 { return int64(i) }))},
		{name: "sparse", keys: []int{0},
			left: rows(probeLeftRows, ints(func(int) int64 { return int64(rng.Intn(10000)) })), right: rows(probeBuildRows, ints(func(i int) int64 { return int64(i) * 10 }))},
		{name: "duplicates", keys: []int{0},
			left: rows(probeLeftRows, ints(func(int) int64 { return int64(rng.Intn(700)) })), right: rows(probeBuildRows, ints(func(i int) int64 { return int64(i % 600) }))},
		{name: "float-probe", keys: []int{0}, lKind: datum.KindFloat, direct: true,
			left: rows(probeLeftRows, func(int) datum.D {
				if rng.Intn(10) == 0 {
					return datum.NewFloat(zeros[rng.Intn(len(zeros))])
				}
				return datum.NewFloat(float64(rng.Intn(2100)) / 2)
			}),
			right: rows(probeBuildRows, perm(0))},
		{name: "float-build", keys: []int{0}, rKind: datum.KindFloat,
			left: rows(probeLeftRows, ints(func(int) int64 { return int64(rng.Intn(520)) - 5 })),
			right: rows(probeBuildRows, func(i int) datum.D {
				if i%50 == 0 {
					return datum.NewFloat(zeros[i/50%len(zeros)])
				}
				return datum.NewFloat(float64(i) / 2)
			})},
		{name: "dictionary", keys: []int{1}, // a tenth of the probes match ~20 build rows
			left: rows(probeLeftRows, ints(func(int) int64 { return 0 })), right: rowsFrom(40, probeBuildRows, ints(func(int) int64 { return 0 }))},
		{name: "two-keys", keys: []int{0, 1},
			left: rows(probeLeftRows, ints(func(int) int64 { return int64(rng.Intn(12)) })), right: rows(probeBuildRows, ints(func(int) int64 { return int64(rng.Intn(10)) }))},
	}
	cases[4].right[0][0], cases[4].right[1][0] = datum.NewInt(minK), datum.NewInt(maxK)
	for i := range cases {
		if cases[i].lKind == 0 {
			cases[i].lKind = datum.KindInt
		}
		if cases[i].rKind == 0 {
			cases[i].rKind = datum.KindInt
		}
	}
	return cases
}

// probeMatches is the nested-loop join of left and right on keys: per left
// row, the build rows whose keys datum.Compare calls equal, in build order,
// none for a NULL key; and the number of rows with no NULL key on both sides.
func probeMatches(left, right []datum.Row, keys []int) (matches [][]int, nonNull int64) {
	nullKey := func(r datum.Row) bool {
		for _, k := range keys {
			if r[k].IsNull() {
				return true
			}
		}
		return false
	}
	for _, r := range right {
		if !nullKey(r) {
			nonNull++
		}
	}
	matches = make([][]int, len(left))
	for li, l := range left {
		if nullKey(l) {
			continue
		}
		nonNull++
		for ri, r := range right {
			equal := !nullKey(r)
			for _, k := range keys {
				equal = equal && datum.Compare(l[k], r[k]) == 0
			}
			if equal {
				matches[li] = append(matches[li], ri)
			}
		}
	}
	return matches, nonNull
}

// probeOracle emits the join of kind over the key matches, in left order and
// build order within a left row, the unmatched build rows of a FULL OUTER
// join last; with extra, a pair joins only where l.x < r.x. tested counts the
// pairs a probe tests: every match, or up to the first that joins for a semi
// or anti join.
func probeOracle(kind logical.JoinKind, left, right []datum.Row, matches [][]int, extra bool) (out []datum.Row, tested int64) {
	pad := datum.Row{datum.Null, datum.Null, datum.Null}
	joined := make([]bool, len(right))
	for li, l := range left {
		found := false
		for _, ri := range matches[li] {
			r := right[ri]
			tested++
			if extra && (l[2].IsNull() || r[2].IsNull() || datum.Compare(l[2], r[2]) >= 0) {
				continue
			}
			found, joined[ri] = true, true
			if kind == logical.SemiJoin || kind == logical.AntiJoin {
				break
			}
			out = append(out, append(append(datum.Row{}, l...), r...))
		}
		switch {
		case kind == logical.SemiJoin && found, kind == logical.AntiJoin && !found:
			out = append(out, l)
		case !found && (kind == logical.LeftOuterJoin || kind == logical.FullOuterJoin):
			out = append(out, append(append(datum.Row{}, l...), pad...))
		}
	}
	if kind == logical.FullOuterJoin {
		for ri, r := range right {
			if !joined[ri] {
				out = append(out, append(append(datum.Row{}, pad...), r...))
			}
		}
	}
	return out, tested
}

func TestHashProbeMatchesNestedLoopOracle(t *testing.T) {
	// Both inputs seal whole segments, so their strings scan dictionary-coded.
	store := storage.NewStoreWith(storage.StoreConfig{SegmentRows: 500})
	md := logical.NewMetadata()
	scan := func(name string, kind datum.Kind, rows []datum.Row) *physical.TableScan {
		def := &catalog.Table{Name: name, Cols: []catalog.Column{
			{Name: "k", Kind: kind}, {Name: "s", Kind: datum.KindString}, {Name: "x", Kind: datum.KindInt}}}
		tab, err := store.CreateTable(def)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		cols := md.AddTable(def, name)
		return &physical.TableScan{Table: def, Binding: name, Cols: cols, ColOrds: []int{0, 1, 2}}
	}
	kinds := []logical.JoinKind{logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin, logical.SemiJoin, logical.AntiJoin}
	for ci, pc := range probeCases() {
		l := scan(fmt.Sprintf("l%d", ci), pc.lKind, pc.left)
		r := scan(fmt.Sprintf("r%d", ci), pc.rKind, pc.right)
		var lKeys, rKeys []logical.ColumnID
		for _, k := range pc.keys {
			lKeys, rKeys = append(lKeys, l.Cols[k]), append(rKeys, r.Cols[k])
		}
		// The build side maps directly exactly where the case says.
		c := NewCtx(store, md)
		rb, err := c.run(r)
		if err != nil {
			t.Fatal(err)
		}
		if pc.name == "dictionary" && rb.Vecs[1].Dict == nil {
			t.Fatal("fixture: the build side's strings are not dictionary-coded")
		}
		c.Mem = NewMemAccount(0)
		join := &physical.HashJoin{Kind: logical.InnerJoin, Left: l, Right: r, LeftKeys: lKeys, RightKeys: rKeys}
		st := c.newProbeStage(join, rb, pc.keys, pc.keys)
		if built := st.direct.slots != nil; built != pc.direct || built != (st.direct.bytes > 0) || c.Mem.Peak() != st.direct.bytes {
			t.Fatalf("%s: direct map built %v with %d bytes charged (peak %d), want built %v",
				pc.name, built, st.direct.bytes, c.Mem.Peak(), pc.direct)
		}
		matches, hashOps := probeMatches(pc.left, pc.right, pc.keys)
		for _, kind := range kinds {
			for _, extra := range []bool{false, true} {
				join := &physical.HashJoin{Kind: kind, Left: l, Right: r, LeftKeys: lKeys, RightKeys: rKeys}
				if extra {
					join.ExtraOn = []logical.Scalar{&logical.Cmp{Op: logical.CmpLt, L: &logical.Col{ID: l.Cols[2]}, R: &logical.Col{ID: r.Cols[2]}}}
				}
				wantRows, tested := probeOracle(kind, pc.left, pc.right, matches, extra)
				want := hexRowsInOrder(&Result{Rows: wantRows})
				for _, run := range []struct {
					name    string
					workers int
					budget  int64
				}{{"serial", 1, 0}, {"two-workers", 2, 0}, {"grace", 2, 16 << 10}} {
					label := fmt.Sprintf("%s %v extra=%v %s", pc.name, kind, extra, run.name)
					c := NewCtx(store, md)
					c.Parallelism, c.Mem, c.TempDir = run.workers, NewMemAccount(run.budget), t.TempDir()
					res, err := Run(join, c)
					c.Close()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if (c.Counters.Spills > 0) != (run.budget > 0) {
						t.Fatalf("%s: %d spill files", label, c.Counters.Spills)
					}
					got := hexRowsInOrder(res)
					if len(got) != len(want) {
						t.Fatalf("%s: %d rows, oracle %d", label, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: row %d = %s, oracle %s", label, i, got[i], want[i])
						}
					}
					scans := int64(len(pc.left) + len(pc.right))
					if c.Counters.HashOps != hashOps || c.Counters.RowsProcessed != scans+tested {
						t.Fatalf("%s: HashOps %d RowsProcessed %d, oracle %d %d", label,
							c.Counters.HashOps, c.Counters.RowsProcessed, hashOps, scans+tested)
					}
				}
			}
		}
	}
}
