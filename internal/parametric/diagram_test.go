package parametric

import (
	"testing"

	"repro/internal/datum"
)

func ints(vs ...int64) []datum.D {
	out := make([]datum.D, len(vs))
	for i, v := range vs {
		out[i] = datum.NewInt(v)
	}
	return out
}

func TestDiagramAddExtendsSameSignature(t *testing.T) {
	d := NewDiagram(2)
	if _, err := d.Add(ints(10, 100), nil, nil, "sigA", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(ints(30, 50), nil, nil, "sigA", 1); err != nil {
		t.Fatal(err)
	}
	if d.NumPlans() != 1 {
		t.Fatalf("same-signature add split into %d boxes", d.NumPlans())
	}
	// The box now covers the bounding rectangle of both probes.
	if b := d.Find(ints(20, 75)); b == nil || b.Signature != "sigA" {
		t.Fatalf("Find inside merged box = %v", b)
	}
	// A new signature gets its own box.
	if _, err := d.Add(ints(1000, 1), nil, nil, "sigB", 2); err != nil {
		t.Fatal(err)
	}
	if d.NumPlans() != 2 {
		t.Fatalf("distinct-signature add merged: %d boxes", d.NumPlans())
	}
	if b := d.Find(ints(1000, 1)); b == nil || b.Signature != "sigB" {
		t.Fatalf("Find at sigB probe = %v", b)
	}
}

// A binding outside every box finds none, even one inside a box on some
// dimensions: the statement then compiles anew (a cache miss) and adds its
// plan to the diagram.
func TestDiagramFindOutsideEveryBox(t *testing.T) {
	d := NewDiagram(2)
	d.Add(ints(10, 10), nil, nil, "low", 1)
	d.Add(ints(100, 100), nil, nil, "high", 1)
	d.Add(ints(100, 10), nil, nil, "mixed", 1)

	for _, vals := range [][]datum.D{ints(-5, 500), ints(100, 500), ints(10, 100)} {
		if b := d.Find(vals); b != nil {
			t.Fatalf("Find(%v) outside all boxes = %v, want nil", vals, b)
		}
	}
	if b := d.Find(ints(100, 10)); b == nil || b.Signature != "mixed" {
		t.Fatalf("Find(100, 10) = %v, want mixed", b)
	}
}

func TestDiagramNullParameters(t *testing.T) {
	d := NewDiagram(2)
	d.Add([]datum.D{datum.Null, datum.NewInt(5)}, nil, nil, "withnull", 1)
	// NULL compares equal to NULL: the point box contains the same vector.
	if b := d.Find([]datum.D{datum.Null, datum.NewInt(5)}); b == nil || b.Signature != "withnull" {
		t.Fatalf("Find with NULL binding = %v", b)
	}
	// A non-NULL value in the NULL dimension is outside the point box.
	if b := d.Find([]datum.D{datum.NewInt(1), datum.NewInt(5)}); b != nil {
		t.Fatalf("Find(1, 5) = %v, want nil", b)
	}
	// Extending the same signature with a non-NULL binding widens the box:
	// NULL sorts before every value, so [NULL, 1] covers both.
	d.Add([]datum.D{datum.NewInt(1), datum.NewInt(5)}, nil, nil, "withnull", 1)
	if d.NumPlans() != 1 {
		t.Fatalf("NULL + non-NULL same signature split into %d boxes", d.NumPlans())
	}
	if b := d.Find([]datum.D{datum.Null, datum.NewInt(5)}); b == nil {
		t.Fatal("widened box lost its NULL corner")
	}
}

func TestDiagramArityMismatch(t *testing.T) {
	d := NewDiagram(2)
	if _, err := d.Add(ints(1), nil, nil, "s", 1); err == nil {
		t.Fatal("Add with wrong arity succeeded")
	}
	d.Add(ints(1, 2), nil, nil, "s", 1)
	if b := d.Find(ints(1)); b != nil {
		t.Fatalf("Find with wrong arity = %v, want nil", b)
	}
}

// A same-signature box grows only where it shadows no other box's probe:
// with A planned at 1 and 1999 and B at 400 between them, growing A's box
// over 1..1999 would make Find(400) return A, although the optimizer chose B
// there.
func TestDiagramAddKeepsOtherProbes(t *testing.T) {
	d := NewDiagram(1)
	d.Add(ints(1), nil, nil, "A", 1)
	d.Add(ints(400), nil, nil, "B", 1)
	d.Add(ints(1999), nil, nil, "A", 1)
	if b := d.Find(ints(400)); b == nil || b.Signature != "B" {
		t.Fatalf("Find(400) = %v, want B", b)
	}
	if b := d.Find(ints(1999)); b == nil || b.Signature != "A" {
		t.Fatalf("Find(1999) = %v, want A", b)
	}
	if d.NumPlans() != 3 {
		t.Fatalf("%d boxes, want A's two point boxes and B's", d.NumPlans())
	}
	// A's first box still grows where it covers no other probe.
	d.Add(ints(300), nil, nil, "A", 1)
	if b := d.Find(ints(200)); b == nil || b.Signature != "A" || d.NumPlans() != 3 {
		t.Fatalf("Find(200) = %v with %d boxes, want A's grown box of 3", b, d.NumPlans())
	}
}

// TestDiagramAddKeepsBoxesDisjoint: a box never grows over a binding another
// box absorbed, not only over its probe. B grows from its probe 400 down to
// 300; A's box at 1 must not then grow to 350, which would cover 300 and,
// being first, take it from B.
func TestDiagramAddKeepsBoxesDisjoint(t *testing.T) {
	d := NewDiagram(1)
	d.Add(ints(1), nil, nil, "A", 1)
	d.Add(ints(400), nil, nil, "B", 1)
	d.Add(ints(300), nil, nil, "B", 1)
	d.Add(ints(350), nil, nil, "A", 1)
	if b := d.Find(ints(300)); b == nil || b.Signature != "B" {
		t.Fatalf("Find(300) = %v, want B", b)
	}
	if b := d.Find(ints(1)); b == nil || b.Signature != "A" || d.NumPlans() != 3 {
		t.Fatalf("Find(1) = %v with %d boxes, want A's point box of 3", b, d.NumPlans())
	}
}
