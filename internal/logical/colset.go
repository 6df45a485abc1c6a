// Package logical defines the optimizer's algebra: globally numbered columns,
// scalar expressions with SQL three-valued semantics, relational operators
// (the query trees of §2/§4 of the paper), the query graph (Fig. 3), a
// catalog-driven builder from the SQL AST, and a normalizer.
//
// Every base-table occurrence receives fresh global column IDs at build time,
// so transformations (join reordering, unnesting, view merging) never rename
// variables — a column ID means the same thing everywhere in a query.
package logical

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// ColumnID identifies one column within a query. IDs are 1-based; 0 is
// invalid.
type ColumnID int

// ColSet is a set of ColumnIDs implemented as a bitset.
type ColSet struct {
	words []uint64
}

// MakeColSet returns a set containing the given columns.
func MakeColSet(cols ...ColumnID) ColSet {
	var s ColSet
	for _, c := range cols {
		s.Add(c)
	}
	return s
}

// Add inserts c into the set.
func (s *ColSet) Add(c ColumnID) {
	if c <= 0 {
		panic(fmt.Sprintf("logical: invalid ColumnID %d", c))
	}
	w := int(c) / 64
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(c) % 64)
}

// Remove deletes c from the set.
func (s *ColSet) Remove(c ColumnID) {
	w := int(c) / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(c) % 64)
	}
}

// Contains reports membership.
func (s ColSet) Contains(c ColumnID) bool {
	w := int(c) / 64
	return w >= 0 && w < len(s.words) && s.words[w]&(1<<(uint(c)%64)) != 0
}

// Empty reports whether the set has no members.
func (s ColSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of members.
func (s ColSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union returns s ∪ o.
func (s ColSet) Union(o ColSet) ColSet {
	n := len(s.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	out := ColSet{words: make([]uint64, n)}
	copy(out.words, s.words)
	for i, w := range o.words {
		out.words[i] |= w
	}
	return out
}

// Intersect returns s ∩ o.
func (s ColSet) Intersect(o ColSet) ColSet {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	out := ColSet{words: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.words[i] = s.words[i] & o.words[i]
	}
	return out
}

// Difference returns s \ o.
func (s ColSet) Difference(o ColSet) ColSet {
	out := ColSet{words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	for i, w := range o.words {
		if i < len(out.words) {
			out.words[i] &^= w
		}
	}
	return out
}

// SubsetOf reports s ⊆ o.
func (s ColSet) SubsetOf(o ColSet) bool {
	for i, w := range s.words {
		var ow uint64
		if i < len(o.words) {
			ow = o.words[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ o is nonempty.
func (s ColSet) Intersects(o ColSet) bool {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Ordered returns the members in ascending order.
func (s ColSet) Ordered() []ColumnID {
	out := make([]ColumnID, 0, s.Len())
	s.ForEach(func(c ColumnID) { out = append(out, c) })
	return out
}

// ForEach calls f for each member in ascending order.
func (s ColSet) ForEach(f func(ColumnID)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(ColumnID(wi*64 + b))
			w &^= 1 << uint(b)
		}
	}
}

// Copy returns an independent copy.
func (s ColSet) Copy() ColSet {
	out := ColSet{words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	return out
}

// Key returns a canonical string usable as a map key.
func (s ColSet) Key() string {
	ids := s.Ordered()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(int(id))
	}
	return strings.Join(parts, ",")
}

// String renders the set as "(1,3,7)".
func (s ColSet) String() string {
	ids := s.Ordered()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(int(id))
	}
	return "(" + strings.Join(parts, ",") + ")"
}
