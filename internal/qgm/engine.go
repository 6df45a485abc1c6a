package qgm

import (
	"fmt"

	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/systemr"
)

// Rule is a Starburst rewrite rule: a pair of functions — the condition
// checks applicability, the action enforces the transformation in place and
// reports whether it changed the query (§6.1: "rules are modeled as pairs of
// arbitrary functions"). A rule is idempotent: run on its own output, its
// action reports no change and leaves the query as it is.
type Rule struct {
	Name      string
	Class     string
	Condition func(*logical.Query) bool
	Action    func(*logical.Query) bool
}

// Engine is a forward-chaining rule engine over rule classes. The rules of a
// class are adjacent in Rules, and classes run in that order. Within a class
// the rules fire round-robin until every one has run on the current query
// without changing it, or the budget is exhausted; a rule that just changed
// the query counts as having run on it, since rules are idempotent. An
// Engine is not modified by Run, so one may serve concurrent statements.
type Engine struct {
	Rules []Rule
	// Budget caps total rule firings (one of the "knobs" §6 mentions); zero
	// means 1000.
	Budget int
}

// EngineStats reports the rewrite phase's work: how many firings changed the
// query, and whether the budget stopped it.
type EngineStats struct {
	TotalFired  int
	BudgetSpent bool
}

// Run applies the rules to the query.
func (e *Engine) Run(q *logical.Query) EngineStats {
	var st EngineStats
	budget := e.Budget
	if budget <= 0 {
		budget = 1000
	}
	for lo := 0; lo < len(e.Rules); {
		hi := lo + 1
		for hi < len(e.Rules) && e.Rules[hi].Class == e.Rules[lo].Class {
			hi++
		}
		class := e.Rules[lo:hi]
		for i, quiet := 0, 0; quiet < len(class); i = (i + 1) % len(class) {
			r := &class[i]
			quiet++
			if r.Condition != nil && !r.Condition(q) {
				continue
			}
			if st.TotalFired >= budget {
				st.BudgetSpent = true
				return st
			}
			if r.Action(q) {
				st.TotalFired++
				quiet = 1
			}
		}
		lo = hi
	}
	return st
}

// The rules of the rewrite phase (§4), in the classic Starburst ordering:
// normalization first, then subquery merging, then cost-improving heuristics.
// The phase has no cost information, which is exactly the limitation §6.1
// notes: the rules fire heuristically.
var (
	normalize = Rule{Name: "normalize", Class: "normalization", Action: normalizeQuery}
	unnest    = Rule{
		Name:  "unnest-subqueries",
		Class: "subquery-merge",
		Condition: func(q *logical.Query) bool {
			return logical.HasSubqueryRel(q.Root)
		},
		Action: func(q *logical.Query) bool {
			st := rewrite.UnnestSubqueries(q)
			return st.SemiJoins+st.AntiJoins+st.OuterJoinAggs > 0
		},
	}
	associate = Rule{Name: "join-outerjoin-associate", Class: "reorder", Action: rewrite.AssociateJoinOuterjoin}
	movePreds = Rule{
		Name:   "predicate-move-around",
		Class:  "reorder",
		Action: func(q *logical.Query) bool { return rewrite.MovePredicates(q) > 0 },
	}
	magic = Rule{
		Name:   "magic-semijoin",
		Class:  "magic",
		Action: func(q *logical.Query) bool { return rewrite.ApplyMagic(q).ViewsRestricted > 0 },
	}
	eagerGroupBy = Rule{Name: "eager-groupby", Class: "aggregation", Action: rewrite.PushDownGroupBy}
	renormalize  = Rule{Name: "renormalize", Class: "final", Action: normalizeQuery}
)

func normalizeQuery(q *logical.Query) bool {
	return logical.NormalizeQuery(q, logical.DefaultNormalize())
}

// Rewrites is the rewrite phase every optimizer runs once per statement,
// before materialized-view matching and planning: normalization, subquery
// unnesting, join/outerjoin association, predicate move-around and eager
// aggregation, then normalization again.
var Rewrites = &Engine{Rules: []Rule{normalize, unnest, associate, movePreds, eagerGroupBy, renormalize}}

// StarburstRewrites is Starburst's rewrite phase: Rewrites with magic
// semijoins (§4.3) ahead of eager aggregation.
var StarburstRewrites = &Engine{Rules: []Rule{normalize, unnest, associate, movePreds, magic, eagerGroupBy, renormalize}}

// DefaultEngine returns StarburstRewrites, which is shared: callers must not
// modify it.
func DefaultEngine() *Engine { return StarburstRewrites }

// Optimizer is the two-phase Starburst optimizer: query rewrite (QGM rules)
// followed by bottom-up plan optimization.
type Optimizer struct {
	Engine *Engine
	Plan   *systemr.Optimizer
}

// Stats aggregates both phases.
type Stats struct {
	Rewrite EngineStats
	Plan    systemr.Metrics
}

// Optimize rewrites then plans. The input query is modified in place by the
// rewrite phase.
func (o *Optimizer) Optimize(q *logical.Query) (physical.Plan, Stats, error) {
	var st Stats
	if o.Engine == nil || o.Plan == nil {
		return nil, st, fmt.Errorf("qgm: optimizer not fully configured")
	}
	st.Rewrite = o.Engine.Run(q)
	plan, err := o.Plan.Optimize(q)
	if err != nil {
		return nil, st, err
	}
	st.Plan = o.Plan.Metrics
	return plan, st, nil
}
