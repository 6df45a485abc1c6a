// Package parametric implements the §7.4 direction the paper highlights:
// "being able to defer generation of complete plans subject to availability
// of runtime information" (Graefe/Ward dynamic plans [19], Ioannidis et al.
// parametric query optimization [33]).
//
// A query template contains the marker `$1` in a predicate position. Prepare
// probes the optimizer at several candidate parameter values, records the
// chosen plan per value, and merges adjacent values with structurally
// identical plans into ranges — the template's *plan diagram*. Execution for
// an actual value picks the range's plan and substitutes the runtime value
// for the probe constant (the choose-plan dispatch of [19]); a static
// baseline always runs the plan optimized for one representative value,
// exposing the regret that motivates dynamic plans.
package parametric

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cost"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// Marker is the parameter placeholder in query templates.
const Marker = "$1"

// PlanRange is one contiguous parameter interval sharing a plan shape.
type PlanRange struct {
	// Lo and Hi are the smallest and largest probed values in the range.
	Lo, Hi datum.D
	// Probe is the value the stored plan was optimized for.
	Probe datum.D
	// Plan is the physical plan optimized at Probe.
	Plan physical.Plan
	// Query is the logical query built at Probe (metadata for execution).
	Query *logical.Query
	// Signature is the structural fingerprint shared by the range.
	Signature string
	// EstCost is the optimizer's estimate at the probe value.
	EstCost float64
}

// DynamicPlan is a prepared template with its plan diagram.
type DynamicPlan struct {
	Template string
	Ranges   []PlanRange
}

// Signature fingerprints a plan's structure: operator kinds, join algorithms
// and access paths, its subqueries' sub-plans included, ignoring constants
// and cardinalities.
func Signature(p physical.Plan) string {
	var sb strings.Builder
	var walk func(p physical.Plan)
	walk = func(p physical.Plan) {
		switch t := p.(type) {
		case *physical.TableScan:
			fmt.Fprintf(&sb, "scan(%s)", t.Table.Name)
		case *physical.IndexScan:
			fmt.Fprintf(&sb, "ixscan(%s.%s)", t.Table.Name, t.Index.Name)
		case *physical.INLJoin:
			fmt.Fprintf(&sb, "inl[%v,%s.%s](", t.Kind, t.Table.Name, t.Index.Name)
		case *physical.NLJoin:
			fmt.Fprintf(&sb, "nl[%v](", t.Kind)
		case *physical.HashJoin:
			fmt.Fprintf(&sb, "hash[%v](", t.Kind)
		case *physical.MergeJoin:
			fmt.Fprintf(&sb, "merge[%v](", t.Kind)
		case *physical.Sort:
			sb.WriteString("sort(")
		case *physical.Filter:
			sb.WriteString("filter(")
		case *physical.Project:
			sb.WriteString("project(")
		case *physical.HashGroupBy:
			sb.WriteString("hashgb(")
		case *physical.StreamGroupBy:
			sb.WriteString("streamgb(")
		case *physical.LimitOp:
			sb.WriteString("limit(")
		case *physical.ValuesOp:
			sb.WriteString("values")
		case *physical.Exchange:
			sb.WriteString("exchange(")
		}
		for _, sub := range physical.Subqueries(p) {
			if body, ok := sub.Body.(physical.Plan); ok {
				sb.WriteString("sub(")
				walk(body)
				sb.WriteByte(')')
			}
		}
		ch := physical.Children(p)
		for i, c := range ch {
			if i > 0 {
				sb.WriteByte(',')
			}
			walk(c)
		}
		if len(ch) > 0 {
			sb.WriteByte(')')
		}
	}
	walk(p)
	return sb.String()
}

// Prepare probes the optimizer across the candidate values (sorted
// ascending) and builds the plan diagram.
func Prepare(db *workload.DB, template string, candidates []datum.D, opts systemr.Options) (*DynamicPlan, error) {
	if !strings.Contains(template, Marker) {
		return nil, fmt.Errorf("parametric: template has no %s marker", Marker)
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("parametric: no candidate values")
	}
	vals := append([]datum.D{}, candidates...)
	sort.Slice(vals, func(i, j int) bool { return datum.Compare(vals[i], vals[j]) < 0 })

	dp := &DynamicPlan{Template: template}
	for _, v := range vals {
		q, plan, err := optimizeAt(db, template, v, opts)
		if err != nil {
			return nil, err
		}
		sig := Signature(plan)
		_, c := plan.Estimate()
		if n := len(dp.Ranges); n > 0 && dp.Ranges[n-1].Signature == sig {
			dp.Ranges[n-1].Hi = v
			continue
		}
		dp.Ranges = append(dp.Ranges, PlanRange{
			Lo: v, Hi: v, Probe: v, Plan: plan, Query: q, Signature: sig, EstCost: c,
		})
	}
	return dp, nil
}

func optimizeAt(db *workload.DB, template string, v datum.D, opts systemr.Options) (*logical.Query, physical.Plan, error) {
	text := strings.ReplaceAll(template, Marker, v.String())
	sel, err := sql.ParseSelect(text)
	if err != nil {
		return nil, nil, err
	}
	q, err := logical.NewBuilder(db.Cat).Build(sel)
	if err != nil {
		return nil, nil, err
	}
	logical.NormalizeQuery(q, logical.DefaultNormalize())
	logical.PruneColumns(q)
	opt := systemr.New(stats.NewEstimator(q.Meta), cost.DefaultModel(), opts)
	plan, err := opt.Optimize(q)
	if err != nil {
		return nil, nil, err
	}
	return q, plan, nil
}

// rangeFor returns the plan range covering v: the range whose [Lo, Hi]
// contains it, else the nearest boundary range.
func (dp *DynamicPlan) rangeFor(v datum.D) *PlanRange {
	for i := range dp.Ranges {
		r := &dp.Ranges[i]
		if datum.Compare(v, r.Lo) >= 0 && datum.Compare(v, r.Hi) <= 0 {
			return r
		}
	}
	if datum.Compare(v, dp.Ranges[0].Lo) < 0 {
		return &dp.Ranges[0]
	}
	return &dp.Ranges[len(dp.Ranges)-1]
}

// NumPlans returns the number of distinct plan shapes in the diagram.
func (dp *DynamicPlan) NumPlans() int { return len(dp.Ranges) }

// Execute runs the template for an actual parameter value using the plan
// diagram: the covering range's plan is taken and the runtime value replaces
// the probe constant. The probe value must not collide with other constants
// in the template (documented restriction of this substitution scheme).
func (dp *DynamicPlan) Execute(db *workload.DB, v datum.D) (*exec.Result, exec.Counters, error) {
	r := dp.rangeFor(v)
	return runSubstituted(db, r, v)
}

// ExecuteStatic runs the plan of the range containing `rep` (a
// representative value chosen at prepare time) for the actual value v — the
// static-plan baseline dynamic plans improve on.
func (dp *DynamicPlan) ExecuteStatic(db *workload.DB, rep, v datum.D) (*exec.Result, exec.Counters, error) {
	r := dp.rangeFor(rep)
	return runSubstituted(db, r, v)
}

func runSubstituted(db *workload.DB, r *PlanRange, v datum.D) (*exec.Result, exec.Counters, error) {
	plan := substituteConst(r.Plan, r.Probe, v)
	ctx := exec.NewCtx(db.Store, r.Query.Meta)
	res, err := exec.RunPlanQuery(plan, r.Query, ctx)
	if err != nil {
		return nil, ctx.Counters, err
	}
	return res, ctx.Counters, nil
}

// substituteConst deep-copies the plan replacing every constant equal to old
// with new — in filters, join conditions, projections and index bounds.
func substituteConst(p physical.Plan, old, new datum.D) physical.Plan {
	if datum.Compare(old, new) == 0 {
		return p
	}
	subScalar := func(s logical.Scalar) logical.Scalar {
		return logical.RewriteScalar(s, func(sc logical.Scalar) logical.Scalar {
			if k, ok := sc.(*logical.Const); ok && !k.Val.IsNull() && !old.IsNull() && datum.Compare(k.Val, old) == 0 {
				return &logical.Const{Val: new}
			}
			return sc
		})
	}
	subScalars := func(ss []logical.Scalar) []logical.Scalar {
		out := make([]logical.Scalar, len(ss))
		for i, s := range ss {
			out[i] = subScalar(s)
		}
		return out
	}
	subDatum := func(d datum.D) datum.D {
		if !d.IsNull() && datum.Compare(d, old) == 0 {
			return new
		}
		return d
	}
	switch t := p.(type) {
	case *physical.TableScan:
		cp := *t
		cp.Filter = subScalars(t.Filter)
		return &cp
	case *physical.IndexScan:
		cp := *t
		cp.Filter = subScalars(t.Filter)
		cp.EqKey = append(datum.Row{}, t.EqKey...)
		for i := range cp.EqKey {
			cp.EqKey[i] = subDatum(cp.EqKey[i])
		}
		cp.Lo, cp.Hi = subDatum(t.Lo), subDatum(t.Hi)
		return &cp
	case *physical.Filter:
		cp := *t
		cp.Input = substituteConst(t.Input, old, new)
		cp.Preds = subScalars(t.Preds)
		return &cp
	case *physical.Project:
		cp := *t
		cp.Input = substituteConst(t.Input, old, new)
		items := make([]logical.ProjectItem, len(t.Items))
		for i, it := range t.Items {
			items[i] = logical.ProjectItem{ID: it.ID, Expr: subScalar(it.Expr)}
		}
		cp.Items = items
		return &cp
	case *physical.Sort:
		cp := *t
		cp.Input = substituteConst(t.Input, old, new)
		return &cp
	case *physical.NLJoin:
		cp := *t
		cp.Left = substituteConst(t.Left, old, new)
		cp.Right = substituteConst(t.Right, old, new)
		cp.On = subScalars(t.On)
		return &cp
	case *physical.INLJoin:
		cp := *t
		cp.Left = substituteConst(t.Left, old, new)
		cp.ExtraOn = subScalars(t.ExtraOn)
		return &cp
	case *physical.HashJoin:
		cp := *t
		cp.Left = substituteConst(t.Left, old, new)
		cp.Right = substituteConst(t.Right, old, new)
		cp.ExtraOn = subScalars(t.ExtraOn)
		return &cp
	case *physical.MergeJoin:
		cp := *t
		cp.Left = substituteConst(t.Left, old, new)
		cp.Right = substituteConst(t.Right, old, new)
		cp.ExtraOn = subScalars(t.ExtraOn)
		return &cp
	case *physical.HashGroupBy:
		cp := *t
		cp.Input = substituteConst(t.Input, old, new)
		return &cp
	case *physical.StreamGroupBy:
		cp := *t
		cp.Input = substituteConst(t.Input, old, new)
		return &cp
	case *physical.LimitOp:
		cp := *t
		cp.Input = substituteConst(t.Input, old, new)
		return &cp
	case *physical.Exchange:
		cp := *t
		cp.Input = substituteConst(t.Input, old, new)
		return &cp
	case *physical.ValuesOp:
		return t
	}
	return p
}
