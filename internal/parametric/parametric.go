// Package parametric implements the §7.4 direction the paper highlights:
// "being able to defer generation of complete plans subject to availability
// of runtime information" (Graefe/Ward dynamic plans [19], Ioannidis et al.
// parametric query optimization [33]).
//
// A prepared statement's parameters span a space; its plan diagram (Diagram)
// partitions what has been seen of that space into axis-aligned boxes, each
// sharing one plan shape. A box holds its plan, the plan made ready to run
// (exec.Program) and its plan-text template (physical.Template). Dispatch at
// execute time picks the box containing the binding vector and runs its
// Program with the bindings, rendering the template with them; nothing of
// the plan is copied. A binding outside every box finds none, and the
// statement compiles anew at those bindings.
//
// The diagram is grown online: every compilation optimizes at the actual
// bindings and either extends a same-signature box to cover them or adds a
// new box (choose-plan dispatch of [19] over the regions of [33]). Because
// the executor reads the real bindings into whichever plan runs, the
// dispatch affects plan *quality* only, never correctness.
package parametric

import (
	"fmt"
	"strings"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
)

// Box is one axis-aligned region of parameter space sharing a plan shape.
type Box struct {
	// Lo and Hi are per-dimension inclusive bounds over the bindings this
	// box has absorbed. NULL bindings participate via datum ordering
	// (NULL sorts before every non-NULL value).
	Lo, Hi []datum.D
	// Probe is the binding vector the stored plan was optimized for.
	Probe []datum.D
	// Plan is the physical plan optimized at Probe, with parameter-tagged
	// constants still in place for the executor to bind.
	Plan physical.Plan
	// Query carries the metadata execution needs.
	Query *logical.Query
	// View names the materialized view the plan reads instead of base
	// tables, if any. Add leaves it to the caller.
	View string
	// Program is Plan made ready to run and Text its plan-text template
	// (physical.NewTemplate): a dispatch runs and renders them under its
	// bindings. Add leaves both to the caller.
	Program *exec.Program
	Text    *physical.Template
	// Signature is the structural fingerprint shared by the box.
	Signature string
	// EstCost is the optimizer's estimate at the probe vector.
	EstCost float64
}

// Contains reports whether vals lies within the box on every dimension.
func (b *Box) Contains(vals []datum.D) bool { return within(vals, b.Lo, b.Hi) }

func within(vals, lo, hi []datum.D) bool {
	if len(vals) != len(lo) {
		return false
	}
	for i, v := range vals {
		if datum.Compare(v, lo[i]) < 0 || datum.Compare(v, hi[i]) > 0 {
			return false
		}
	}
	return true
}

// Diagram is a multi-parameter plan diagram: the boxes partition (an online,
// growing subset of) the parameter space by plan shape.
type Diagram struct {
	NParams int
	Boxes   []Box
}

// NewDiagram returns an empty diagram over nParams parameters.
func NewDiagram(nParams int) *Diagram { return &Diagram{NParams: nParams} }

// Find returns the first box containing vals, or nil if none does.
func (d *Diagram) Find(vals []datum.D) *Box {
	if len(vals) != d.NParams {
		return nil
	}
	for i := range d.Boxes {
		if d.Boxes[i].Contains(vals) {
			return &d.Boxes[i]
		}
	}
	return nil
}

// Add records that optimizing at vals produced plan (with fingerprint sig).
// A box with the same signature is extended to cover vals (per-dimension
// min/max) when the grown box overlaps no other box; otherwise a new point
// box is appended. Grown boxes stay disjoint, so a binding another box has
// absorbed — its probe or any binding it grew over — keeps dispatching to
// that box's plan, although Find returns the first box that contains the
// bindings. Extension trades plan quality only, since any stored plan runs
// correctly under any bindings. Returns the covering box.
func (d *Diagram) Add(vals []datum.D, plan physical.Plan, q *logical.Query, sig string, estCost float64) (*Box, error) {
	if len(vals) != d.NParams {
		return nil, fmt.Errorf("parametric: binding arity %d, diagram has %d parameter(s)", len(vals), d.NParams)
	}
	for i := range d.Boxes {
		b := &d.Boxes[i]
		if b.Signature != sig {
			continue
		}
		lo, hi := append([]datum.D{}, b.Lo...), append([]datum.D{}, b.Hi...)
		for dim, v := range vals {
			if datum.Compare(v, lo[dim]) < 0 {
				lo[dim] = v
			}
			if datum.Compare(v, hi[dim]) > 0 {
				hi[dim] = v
			}
		}
		if !d.overlaps(i, lo, hi) {
			b.Lo, b.Hi = lo, hi
			return b, nil
		}
	}
	d.Boxes = append(d.Boxes, Box{
		Lo:    append([]datum.D{}, vals...),
		Hi:    append([]datum.D{}, vals...),
		Probe: append([]datum.D{}, vals...),
		Plan:  plan, Query: q, Signature: sig, EstCost: estCost,
	})
	return &d.Boxes[len(d.Boxes)-1], nil
}

// overlaps reports whether [lo, hi] shares a binding with a box other than
// box self: on every dimension, each interval starts before the other ends.
func (d *Diagram) overlaps(self int, lo, hi []datum.D) bool {
	for j := range d.Boxes {
		b, shared := &d.Boxes[j], j != self
		for dim := range lo {
			shared = shared && datum.Compare(lo[dim], b.Hi[dim]) <= 0 && datum.Compare(b.Lo[dim], hi[dim]) <= 0
		}
		if shared {
			return true
		}
	}
	return false
}

// NumPlans returns the number of boxes in the diagram.
func (d *Diagram) NumPlans() int { return len(d.Boxes) }

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
