package queryopt

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/qgm"
	"repro/internal/sql"
)

// TestRulesAreIdempotent: every rule of both rule sets, run again on its own
// output, reports no change and leaves the query's text as it was. Run
// relies on this to stop a class without running its rules once more. The
// statements are random queries and a three-way star grouping an INT COUNT
// and SUM, which a second application of eager aggregation used to stage
// again.
func TestRulesAreIdempotent(t *testing.T) {
	e := randSchema(t, SystemR, 3)
	defer e.Close()
	rng := rand.New(rand.NewSource(7))
	stmts := []string{"SELECT z.s, y.s, COUNT(*), SUM(x.a) FROM r x, t y, u z WHERE x.fk = y.pk AND y.a = z.pk GROUP BY z.s, y.s"}
	for len(stmts) < 1000 {
		stmts = append(stmts, randQuery(rng))
	}
	for _, set := range []*qgm.Engine{qgm.Rewrites, qgm.StarburstRewrites} {
		for _, text := range stmts {
			sel, err := sql.ParseSelect(text)
			if err != nil {
				t.Fatal(err)
			}
			q, err := logical.NewBuilder(e.cat).Build(sel)
			if err != nil {
				t.Fatalf("%v\nquery: %s", err, text)
			}
			for _, r := range set.Rules {
				if r.Condition != nil && !r.Condition(q) {
					continue
				}
				r.Action(q)
				before := logical.Format(q.Root, q.Meta)
				if r.Action(q) {
					t.Errorf("%s reports a change on its own output\nquery: %s\n%s", r.Name, text, before)
				}
				if after := logical.Format(q.Root, q.Meta); after != before {
					t.Errorf("%s changed its own output\nquery: %s\nbefore:\n%safter:\n%s", r.Name, text, before, after)
				}
			}
		}
	}
}

// withoutRule is the rule set of set without the rule named name.
func withoutRule(set *qgm.Engine, name string) *qgm.Engine {
	out := &qgm.Engine{Budget: set.Budget}
	for _, r := range set.Rules {
		if r.Name != name {
			out.Rules = append(out.Rules, r)
		}
	}
	return out
}

// TestRewriteRuleOffEquivalence is a metamorphic check of the rewrite
// phase, one rule at a time: with any single rule of Starburst's set switched
// off, System-R and Starburst still return the reference evaluator's bag on
// random statements. Each rule is thus an equivalence on its own, not only
// in the company of the others.
func TestRewriteRuleOffEquivalence(t *testing.T) {
	const trials = 150
	ref := randSchema(t, Reference, 3)
	rng := rand.New(rand.NewSource(43))
	queries := make([]string, trials)
	want := make([]string, trials)
	for i := range queries {
		queries[i] = randQuery(rng)
		want[i] = strings.Join(canonRows(ref.MustExec(queries[i])), ";")
	}
	for _, rule := range qgm.StarburstRewrites.Rules {
		for _, kind := range []OptimizerKind{SystemR, Starburst} {
			e := randSchema(t, kind, 3)
			e.rewrites = withoutRule(e.rewrites, rule.Name)
			for i, q := range queries {
				res, err := e.Exec(q)
				if err != nil {
					t.Fatalf("%v without %s: %v\nquery: %s", kind, rule.Name, err, q)
				}
				if got := strings.Join(canonRows(res), ";"); got != want[i] {
					t.Errorf("%v without %s disagrees with reference\nquery: %s\nref: %.300v\ngot: %.300v\nplan:\n%s",
						kind, rule.Name, q, want[i], got, res.Plan)
				}
			}
			e.Close()
		}
	}
}
