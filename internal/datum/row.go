package datum

import (
	"hash/maphash"
	"strings"
)

// Row is a tuple of datums. Rows flow between physical operators and are
// stored in heap tables.
type Row []D

// Clone returns a copy of the row that does not alias r's backing array.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Concat returns a new row holding r followed by s.
func (r Row) Concat(s Row) Row {
	out := make(Row, 0, len(r)+len(s))
	out = append(out, r...)
	out = append(out, s...)
	return out
}

// Size returns the modeled byte width of the row.
func (r Row) Size() int {
	n := 0
	for _, d := range r {
		n += d.Size()
	}
	return n
}

// String renders the row as "(v1, v2, ...)".
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, d := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Hash hashes the datums of r at the given column offsets; it is consistent
// with equality of those columns under Equal.
func (r Row) Hash(cols []int) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	for _, c := range cols {
		r[c].HashInto(&h)
	}
	return h.Sum64()
}

// SortSpec describes one sort key: a column offset and direction.
type SortSpec struct {
	Col  int
	Desc bool
}

// CompareRows compares a and b under the given sort specification.
func CompareRows(a, b Row, spec []SortSpec) int {
	for _, s := range spec {
		c := Compare(a[s.Col], b[s.Col])
		if c != 0 {
			if s.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}
