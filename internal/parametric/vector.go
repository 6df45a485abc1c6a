package parametric

import (
	"fmt"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
)

// This file generalizes the single-marker plan diagram of parametric.go to a
// vector of parameters, for the prepared-statement plan cache: each cached
// statement holds a Diagram whose boxes are axis-aligned regions of the
// parameter space sharing one plan shape. A box holds its plan, the plan
// made ready to run (exec.Program) and its plan-text template
// (physical.Template). Dispatch at execute time picks the box containing the
// binding vector (or the nearest box when the binding falls outside every
// box) and runs its Program with the bindings, rendering the template with
// them; nothing of the plan is copied.
//
// Unlike Prepare, which probes a candidate grid eagerly, the Diagram is grown
// online: every cache miss optimizes at the actual bindings and either
// extends a same-signature box to cover them or adds a new box. Because the
// executor reads the real bindings into whichever plan is chosen, the
// dispatch affects plan *quality* only, never correctness.

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
func (b *Box) Contains(vals []datum.D) bool {
	if len(vals) != len(b.Lo) {
		return false
	}
	for i, v := range vals {
		if datum.Compare(v, b.Lo[i]) < 0 || datum.Compare(v, b.Hi[i]) > 0 {
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
// min/max); otherwise a new point box is appended. Extension is sound
// because BindParams makes any stored plan correct for any binding — the
// merged box can only cost a dispatch-quality loss, exactly as merging
// same-signature probes does in Prepare. Returns the covering box.
func (d *Diagram) Add(vals []datum.D, plan physical.Plan, q *logical.Query, sig string, estCost float64) (*Box, error) {
	if len(vals) != d.NParams {
		return nil, fmt.Errorf("parametric: binding arity %d, diagram has %d parameter(s)", len(vals), d.NParams)
	}
	for i := range d.Boxes {
		b := &d.Boxes[i]
		if b.Signature != sig {
			continue
		}
		for dim, v := range vals {
			if datum.Compare(v, b.Lo[dim]) < 0 {
				b.Lo[dim] = v
			}
			if datum.Compare(v, b.Hi[dim]) > 0 {
				b.Hi[dim] = v
			}
		}
		return b, nil
	}
	probe := append([]datum.D{}, vals...)
	d.Boxes = append(d.Boxes, Box{
		Lo:    append([]datum.D{}, vals...),
		Hi:    append([]datum.D{}, vals...),
		Probe: probe,
		Plan:  plan, Query: q, Signature: sig, EstCost: estCost,
	})
	return &d.Boxes[len(d.Boxes)-1], nil
}

// NumPlans returns the number of distinct plan shapes in the diagram.
func (d *Diagram) NumPlans() int { return len(d.Boxes) }
