package queryopt

// adaptive_equivalence_test.go: the adaptive planner — greedy fast path,
// feedback-patched statistics and the q-error replan trigger, all live at
// once — must never change results, only plans. For the same random query
// corpus as the other equivalence nets, engines running fully adaptive at
// parallelism 1, 4 and 8 must return exactly the multiset the plain SystemR
// engine returns (bit-identical floats included) and the identical row order
// whenever the query has an ORDER BY. Every third trial goes through EXPLAIN
// ANALYZE on the adaptive engines, so overrides are harvested and replan
// marks fire mid-corpus — the plans drift, the answers must not.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/systemr"
)

func TestAdaptiveQueryEquivalence(t *testing.T) {
	const trials = 25
	degrees := []int{1, 4, 8}
	for seed := int64(1); seed <= 2; seed++ {
		baseline := bigRandSchema(t, Options{Optimizer: SystemR}, seed)
		engines := make([]*Engine, len(degrees))
		for i, d := range degrees {
			engines[i] = bigRandSchema(t, Options{
				Optimizer:             SystemR,
				Parallelism:           d,
				SystemR:               systemr.Options{GreedyThreshold: 8},
				FeedbackPatching:      true,
				ReplanQErrorThreshold: 2,
			}, seed)
		}
		rng := rand.New(rand.NewSource(seed * 977))
		for trial := 0; trial < trials; trial++ {
			q := randQuery(rng)
			res, err := baseline.Exec(q)
			if err != nil {
				t.Fatalf("seed %d trial %d baseline: %v\nquery: %s", seed, trial, err, q)
			}
			want := canonRows(res)
			ordered := strings.Contains(q, "ORDER BY")
			var wantOrdered []string
			if ordered {
				for _, r := range res.Rows {
					wantOrdered = append(wantOrdered, canonRow(r))
				}
			}
			for i, d := range degrees {
				var ares *Result
				if trial%3 == 0 {
					// Feed the loop: harvest overrides, maybe mark replans.
					ares, _, err = engines[i].QueryAnalyze(q)
				} else {
					ares, err = engines[i].Exec(q)
				}
				if err != nil {
					t.Fatalf("seed %d trial %d degree %d adaptive: %v\nquery: %s", seed, trial, d, err, q)
				}
				got := canonRows(ares)
				if strings.Join(got, ";") != strings.Join(want, ";") {
					t.Fatalf("seed %d trial %d: adaptive degree %d disagrees with baseline\nquery: %s\nbaseline (%d rows): %.500v\ngot      (%d rows): %.500v\nplan:\n%s",
						seed, trial, d, q, len(want), want, len(got), got, ares.Plan)
				}
				if ordered {
					var rows []string
					for _, r := range ares.Rows {
						rows = append(rows, canonRow(r))
					}
					if strings.Join(rows, ";") != strings.Join(wantOrdered, ";") {
						t.Fatalf("seed %d trial %d: adaptive degree %d row order differs under ORDER BY\nquery: %s\nplan:\n%s",
							seed, trial, d, q, ares.Plan)
					}
				}
			}
		}
		for i := range engines {
			if engines[i].OverrideCount() == 0 {
				t.Errorf("seed %d degree %d: corpus analyzed executions harvested no overrides — the adaptive path was not exercised", seed, degrees[i])
			}
		}
	}
}
