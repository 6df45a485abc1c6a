package logical

import (
	"slices"
	"testing"
	"testing/quick"
)

// sameCols reports set equality by the members in order, independent of how
// many words either set has allocated.
func sameCols(a, b ColSet) bool { return slices.Equal(a.Ordered(), b.Ordered()) }

// mkSet builds a ColSet from a byte slice (bounded IDs keep sets small).
func mkSet(bs []byte) ColSet {
	var s ColSet
	for _, b := range bs {
		s.Add(ColumnID(int(b)%200 + 1))
	}
	return s
}

// Property: union is commutative and associative; intersection distributes
// over union; difference removes exactly the intersection.
func TestColSetAlgebraQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}

	if err := quick.Check(func(a, b []byte) bool {
		x, y := mkSet(a), mkSet(b)
		return sameCols(x.Union(y), y.Union(x))
	}, cfg); err != nil {
		t.Errorf("union commutativity: %v", err)
	}

	if err := quick.Check(func(a, b, c []byte) bool {
		x, y, z := mkSet(a), mkSet(b), mkSet(c)
		return sameCols(x.Union(y.Union(z)), x.Union(y).Union(z))
	}, cfg); err != nil {
		t.Errorf("union associativity: %v", err)
	}

	if err := quick.Check(func(a, b, c []byte) bool {
		x, y, z := mkSet(a), mkSet(b), mkSet(c)
		return sameCols(x.Intersect(y.Union(z)), x.Intersect(y).Union(x.Intersect(z)))
	}, cfg); err != nil {
		t.Errorf("distributivity: %v", err)
	}

	if err := quick.Check(func(a, b []byte) bool {
		x, y := mkSet(a), mkSet(b)
		d := x.Difference(y)
		// d and y are disjoint, and d ∪ (x ∩ y) = x.
		return !d.Intersects(y) && sameCols(d.Union(x.Intersect(y)), x)
	}, cfg); err != nil {
		t.Errorf("difference laws: %v", err)
	}

	if err := quick.Check(func(a, b []byte) bool {
		x, y := mkSet(a), mkSet(b)
		// Subset consistency with union/intersection.
		return x.Intersect(y).SubsetOf(x) && x.SubsetOf(x.Union(y))
	}, cfg); err != nil {
		t.Errorf("subset laws: %v", err)
	}

	if err := quick.Check(func(a []byte) bool {
		x := mkSet(a)
		// Len equals number of iterated members; Ordered is sorted unique.
		ord := x.Ordered()
		if len(ord) != x.Len() {
			return false
		}
		for i := 1; i < len(ord); i++ {
			if ord[i-1] >= ord[i] {
				return false
			}
		}
		for _, c := range ord {
			if !x.Contains(c) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Errorf("ordered/len consistency: %v", err)
	}

	if err := quick.Check(func(a, b []byte) bool {
		x, y := mkSet(a), mkSet(b)
		// Key is canonical: equal sets share keys, different sets do not.
		if sameCols(x, y) {
			return x.Key() == y.Key()
		}
		return x.Key() != y.Key()
	}, cfg); err != nil {
		t.Errorf("key canonicality: %v", err)
	}
}

// Property: Ordering.SatisfiedBy is reflexive and respects extension.
func TestOrderingSatisfactionQuick(t *testing.T) {
	mkOrd := func(bs []byte) Ordering {
		var o Ordering
		seen := map[ColumnID]bool{}
		for _, b := range bs {
			c := ColumnID(int(b)%20 + 1)
			if seen[c] {
				continue
			}
			seen[c] = true
			o = append(o, OrderSpec{Col: c, Desc: b%2 == 0})
		}
		return o
	}
	if err := quick.Check(func(a, ext []byte) bool {
		o := mkOrd(a)
		longer := append(append(Ordering{}, o...), mkOrd(ext)...)
		return o.SatisfiedBy(o) && o.SatisfiedBy(longer)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
