package queryopt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/systemr"
)

// planEngine builds the adhoc_planning schema of the standing benchmark at
// 40 rows per chain table: on tables that small many alternatives cost
// exactly the same, which is where plan choice used to follow Go map order.
func planEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	rng := rand.New(rand.NewSource(11))
	const n = 40
	load := func(table string, rows [][]any) {
		if err := e.LoadRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	for c := 1; c <= 8; c++ {
		name := fmt.Sprintf("c%d", c)
		e.MustExec(fmt.Sprintf(`CREATE TABLE %s (pk INT NOT NULL, fk INT, payload INT, grp INT, PRIMARY KEY (pk))`, name))
		e.MustExec(fmt.Sprintf(`CREATE INDEX %s_fk ON %s (fk)`, name, name))
		var rows [][]any
		for i := 0; i < n; i++ {
			rows = append(rows, []any{int64(i), int64(rng.Intn(n)), int64(rng.Intn(1000)), int64(rng.Intn(8))})
		}
		load(name, rows)
	}
	e.MustExec(`CREATE TABLE f (id INT NOT NULL, a INT, b INT, c INT, v INT, PRIMARY KEY (id))`)
	e.MustExec(`CREATE INDEX f_a ON f (a)`)
	var fact [][]any
	for i := 0; i < 10*n; i++ {
		fact = append(fact, []any{int64(i), int64(rng.Intn(n)), int64(rng.Intn(n)), int64(rng.Intn(n)), int64(rng.Intn(1000))})
	}
	load("f", fact)
	for _, d := range []string{"da", "db", "dc"} {
		e.MustExec(fmt.Sprintf(`CREATE TABLE %s (k INT NOT NULL, attr TEXT, filt INT, PRIMARY KEY (k))`, d))
		var rows [][]any
		for i := 0; i < n; i++ {
			rows = append(rows, []any{int64(i), fmt.Sprintf("%s_%02d", d, i%7), int64(rng.Intn(10))})
		}
		load(d, rows)
	}
	e.MustExec(`ANALYZE`)
	return e
}

// planStatements returns 60 statements: chains of 2..7 tables (plain, GROUP
// BY, ORDER BY) and stars of 1..3 dimensions.
func planStatements() []string {
	rng := rand.New(rand.NewSource(5))
	var out []string
	for i := 0; len(out) < 60; i++ {
		if i%5 == 4 {
			from, where := "f", fmt.Sprintf("f.v < %d AND da.filt < %d", 100+rng.Intn(800), 1+rng.Intn(9))
			for d, dim := range []string{"da", "db", "dc"}[:1+i%3] {
				from += ", " + dim
				where += fmt.Sprintf(" AND f.%c = %s.k", 'a'+d, dim)
			}
			out = append(out, fmt.Sprintf("SELECT da.attr, COUNT(*), SUM(f.v) FROM %s WHERE %s GROUP BY da.attr", from, where))
			continue
		}
		k := 2 + i%6
		s := 1 + rng.Intn(8-k+1)
		e := s + k - 1
		from, where := fmt.Sprintf("c%d", s), fmt.Sprintf("c%d.payload < %d", s, 50+rng.Intn(350))
		for c := s + 1; c <= e; c++ {
			from += fmt.Sprintf(", c%d", c)
			where += fmt.Sprintf(" AND c%d.fk = c%d.pk", c-1, c)
		}
		switch i % 3 {
		case 0:
			out = append(out, fmt.Sprintf("SELECT c%d.pk, c%d.payload FROM %s WHERE %s", s, e, from, where))
		case 1:
			out = append(out, fmt.Sprintf("SELECT c%d.grp, COUNT(*), SUM(c%d.payload) FROM %s WHERE %s GROUP BY c%d.grp", s, e, from, where, s))
		default:
			out = append(out, fmt.Sprintf("SELECT c%d.pk, c%d.payload FROM %s WHERE %s ORDER BY c%d.pk", s, e, from, where, s))
		}
	}
	return out
}

// TestPlanChoiceIsDeterministic plans every statement 20 times on one engine
// and 20 times on a second, freshly built one: there must be exactly one
// EXPLAIN text per statement, under DP enumeration and under the greedy tier.
// Cost ties go to the first-enumerated plan, and enumeration order depends on
// nothing but the statement.
func TestPlanChoiceIsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"dp", Options{}},
		{"greedy", Options{SystemR: systemr.Options{GreedyThreshold: 8}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engines := []*Engine{planEngine(t, tc.opts), planEngine(t, tc.opts)}
			unstable := 0
			for _, stmt := range planStatements() {
				plans := map[string]bool{}
				for _, e := range engines {
					for rep := 0; rep < 20; rep++ {
						text, err := e.Explain(stmt)
						if err != nil {
							t.Fatalf("%s: %v", stmt, err)
						}
						plans[text] = true
					}
				}
				if len(plans) != 1 {
					unstable++
					if unstable == 1 {
						var all []string
						for p := range plans {
							all = append(all, p)
						}
						t.Errorf("%s\ngot %d plans:\n%s", stmt, len(plans), strings.Join(all, "\n"))
					}
				}
			}
			if unstable > 0 {
				t.Errorf("%d of %d statements have more than one plan", unstable, len(planStatements()))
			}
		})
	}
}
