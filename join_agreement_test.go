package queryopt

// join_agreement_test.go holds the plans the optimizer chooses between to
// one answer: every join method, before and after ANALYZE, serial and
// parallel, with and without a memory budget, joins FLOAT keys holding NaN
// and both zeros to the count plain Go computes under the engine's one
// order (NaN = NaN, -0 = +0), and MAX agrees with ORDER BY ... LIMIT 1.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/systemr"
)

// agreementData is t.f, 9001 rows of which 1800 NaN and one -0, and w.g,
// 5001 rows of which one NaN and one +0; the other values overlap.
func agreementData() (tf, wg []float64) {
	tf = make([]float64, 9001)
	for i := range tf {
		switch {
		case i < 1800:
			tf[i] = math.NaN()
		case i == 1800:
			tf[i] = math.Copysign(0, -1)
		default:
			tf[i] = float64(i % 1000)
		}
	}
	wg = make([]float64, 5001)
	for j := range wg {
		switch j {
		case 0:
			wg[j] = math.NaN()
		case 1:
			wg[j] = 0
		default:
			wg[j] = float64(j%2000) / 2
		}
	}
	return tf, wg
}

// sameKey is = on two FLOAT keys under the engine's order, in plain Go.
func sameKey(a, b float64) bool { return a == b || (a != a && b != b) }

func TestJoinMethodsAgreeOnFloatKeys(t *testing.T) {
	tf, wg := agreementData()
	var want int64
	for _, a := range tf {
		for _, b := range wg {
			if sameKey(a, b) {
				want++
			}
		}
	}
	var wantOne int64
	maxF := math.Inf(-1)
	for _, a := range tf {
		if sameKey(a, 1) {
			wantOne++
		}
		if a > maxF { // NaN is the least number, never the MAX
			maxF = a
		}
	}
	load := func(e *Engine) {
		e.MustExec("CREATE TABLE t (id INT NOT NULL, f FLOAT, PRIMARY KEY (id))")
		e.MustExec("CREATE TABLE w (id INT NOT NULL, g FLOAT, PRIMARY KEY (id))")
		e.MustExec("CREATE INDEX w_g ON w (g)")
		for name, vals := range map[string][]float64{"t": tf, "w": wg} {
			rows := make([][]any, len(vals))
			for i, v := range vals {
				rows[i] = []any{i, v}
			}
			if err := e.LoadRows(name, rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	methods := []struct {
		name, op string
		set      func(o *systemr.Options)
	}{
		{"unforced", "nested-loop-", func(o *systemr.Options) {}},
		{"nl", "nested-loop-", func(o *systemr.Options) { o.DisableHashJoin, o.DisableMergeJoin, o.DisableINLJoin = true, true, true }},
		{"hash", "hash-", func(o *systemr.Options) { o.DisableMergeJoin, o.DisableINLJoin = true, true }},
		{"merge", "merge-", func(o *systemr.Options) { o.DisableHashJoin, o.DisableINLJoin = true, true }},
		{"inl", "index-nl-", func(o *systemr.Options) { o.DisableHashJoin, o.DisableMergeJoin = true, true }},
	}
	const join = "SELECT COUNT(*) FROM t, w WHERE t.f = w.g"
	for _, analyze := range []bool{false, true} {
		// Before ANALYZE the estimator sees empty tables: with every method
		// enabled the plan is the nested-loop join, so it is also the plan
		// with any method forced, and one unforced cell stands for them.
		forced := methods[:1]
		if analyze {
			forced = methods[1:]
		}
		for _, m := range forced {
			for _, par := range []int{1, 2} {
				for _, budget := range []int64{0, 4 << 10} {
					label := fmt.Sprintf("%s analyze=%v parallelism=%d budget=%d", m.name, analyze, par, budget)
					opts := Options{SystemR: systemr.DefaultOptions(), Parallelism: par, MemBudget: budget, TempDir: t.TempDir()}
					m.set(&opts.SystemR)
					e := New(opts)
					load(e)
					if analyze {
						e.MustExec("ANALYZE")
					}
					res, err := e.Exec(join)
					if err != nil {
						t.Errorf("%s: %v", label, err)
						e.Close()
						continue
					}
					if !usesJoin(res.Plan, m.op) {
						t.Errorf("%s: the plan joins with another method:\n%s", label, res.Plan)
					}
					if got := res.Rows[0][0].(int64); got != want {
						t.Errorf("%s: %d pairs, plain Go %d", label, got, want)
					}
					if got := e.MustExec("SELECT COUNT(*) FROM t WHERE f = 1.0").Rows[0][0].(int64); got != wantOne {
						t.Errorf("%s: f = 1.0 counts %d rows, plain Go %d", label, got, wantOne)
					}
					top := e.MustExec("SELECT f FROM t WHERE f IS NOT NULL ORDER BY f DESC LIMIT 1").Rows[0][0].(float64)
					if got := e.MustExec("SELECT MAX(f) FROM t").Rows[0][0].(float64); got != top || got != maxF {
						t.Errorf("%s: MAX(f) = %v, ORDER BY f DESC LIMIT 1 = %v, plain Go %v", label, got, top, maxF)
					}
					e.Close()
				}
			}
		}
	}
}

// usesJoin reports whether some operator line of an EXPLAIN text is a join
// whose name starts with prefix.
func usesJoin(plan, prefix string) bool {
	for _, line := range strings.Split(plan, "\n") {
		if op := strings.TrimSpace(line); strings.HasPrefix(op, prefix) && strings.Contains(op, "join") {
			return true
		}
	}
	return false
}

// New fills in only the search budget of a partly filled SystemR options
// struct: the join methods the caller turned off stay off.
func TestPartialSystemROptions(t *testing.T) {
	e := New(Options{SystemR: systemr.Options{DisableHashJoin: true, DisableMergeJoin: true, DisableINLJoin: true}})
	e.MustExec("CREATE TABLE a (id INT NOT NULL, k INT, PRIMARY KEY (id))")
	e.MustExec("CREATE TABLE b (id INT NOT NULL, k INT, PRIMARY KEY (id))")
	for _, name := range []string{"a", "b"} {
		rows := make([][]any, 2000)
		for i := range rows {
			rows[i] = []any{i, i % 500}
		}
		if err := e.LoadRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	e.MustExec("ANALYZE")
	res := e.MustExec("SELECT COUNT(*) FROM a, b WHERE a.k = b.k")
	for _, op := range []string{"hash-", "merge-", "index-nl-"} {
		if usesJoin(res.Plan, op) {
			t.Errorf("the plan joins with %sjoin:\n%s", op, res.Plan)
		}
	}
	if got := res.Rows[0][0].(int64); got != 2000*4 {
		t.Errorf("%d pairs, want %d", got, 2000*4)
	}
}
