// Package datum implements the value model shared by every layer of the
// engine: NULL-aware typed scalar values, rows, comparison, and hashing.
//
// Datums are small value types (no pointers except for strings) so that rows
// can be copied cheaply and stored compactly in the in-memory storage engine.
// SQL three-valued comparison semantics live in the expression evaluator; this
// package provides the comparison they build on (Compare) and the one total
// key order (NULL first) that sorting, merge joins and index structures share
// (CompareKeys).
package datum

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Datum.
type Kind uint8

// The supported scalar kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of this kind participate in arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// D is a single SQL value. The zero value is NULL.
type D struct {
	k Kind
	i int64 // also holds bool as 0/1
	f float64
	s string
}

// Null is the SQL NULL value.
var Null = D{}

// NewInt returns an INTEGER datum.
func NewInt(v int64) D { return D{k: KindInt, i: v} }

// NewFloat returns a FLOAT datum.
func NewFloat(v float64) D { return D{k: KindFloat, f: v} }

// NewString returns a VARCHAR datum.
func NewString(v string) D { return D{k: KindString, s: v} }

// NewBool returns a BOOLEAN datum.
func NewBool(v bool) D {
	var i int64
	if v {
		i = 1
	}
	return D{k: KindBool, i: i}
}

// Kind returns the datum's dynamic type.
func (d D) Kind() Kind { return d.k }

// IsNull reports whether the datum is SQL NULL.
func (d D) IsNull() bool { return d.k == KindNull }

// Int returns the integer value. It panics on non-integer datums.
func (d D) Int() int64 {
	if d.k != KindInt {
		panic(fmt.Sprintf("datum: Int() on %s", d.k))
	}
	return d.i
}

// Float returns the float value of a FLOAT or INTEGER datum.
func (d D) Float() float64 {
	switch d.k {
	case KindFloat:
		return d.f
	case KindInt:
		return float64(d.i)
	}
	panic(fmt.Sprintf("datum: Float() on %s", d.k))
}

// Str returns the string value. It panics on non-string datums.
func (d D) Str() string {
	if d.k != KindString {
		panic(fmt.Sprintf("datum: Str() on %s", d.k))
	}
	return d.s
}

// Bool returns the boolean value. It panics on non-boolean datums.
func (d D) Bool() bool {
	if d.k != KindBool {
		panic(fmt.Sprintf("datum: Bool() on %s", d.k))
	}
	return d.i != 0
}

// String renders the datum for display and EXPLAIN output.
func (d D) String() string {
	switch d.k {
	case KindNull:
		return "NULL"
	case KindBool:
		if d.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(d.i, 10)
	case KindFloat:
		return strconv.FormatFloat(d.f, 'g', -1, 64)
	case KindString:
		return "'" + d.s + "'"
	default:
		return "?"
	}
}

// Compare orders datums by family — NULL < BOOL < numeric < STRING — and
// within one by value; integers and floats compare by numeric value, through
// float64. It returns -1, 0 or +1, and is what SQL comparison predicates,
// MIN/MAX and grouping equality build on (NULL semantics are handled above
// this layer). It is not a total order in two places: a float NaN compares
// equal to every number, and an INT/FLOAT pair past 2^53 compares inexactly.
// Anything that puts rows in order uses CompareKeys instead.
func Compare(a, b D) int {
	// Same-kind fast path: the overwhelmingly common case in sorts, merge
	// joins and group-key checks skips the rank() family resolution entirely
	// (BenchmarkDatumCompare measures the delta against the generic path).
	if a.k == b.k {
		switch a.k {
		case KindInt:
			return cmpInt64(a.i, b.i)
		case KindFloat:
			return cmpFloat64(a.f, b.f)
		case KindString:
			switch {
			case a.s < b.s:
				return -1
			case a.s > b.s:
				return 1
			}
			return 0
		case KindBool:
			return cmpInt64(a.i, b.i)
		case KindNull:
			return 0
		}
	}
	ra, rb := rank(a.k), rank(b.k)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.k {
	case KindNull:
		return 0
	case KindBool:
		return cmpInt64(a.i, b.i)
	case KindInt:
		if b.k == KindFloat {
			return cmpFloat64(float64(a.i), b.f)
		}
		return cmpInt64(a.i, b.i)
	case KindFloat:
		if b.k == KindInt {
			return cmpFloat64(a.f, float64(b.i))
		}
		return cmpFloat64(a.f, b.f)
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	}
	return 0
}

// CompareKeys is the engine's one key order — ORDER BY, the external sort's
// runs, merge-join inputs and index entries all sort by it: Compare, made a
// total order where it is not one. A float NaN sorts below every other number
// and equal to itself, as cmp.Compare orders floats, and an INT/FLOAT pair
// compares exactly. -0 and +0 are equal, NULL sorts first. Every other pair —
// any two INTs, any two non-NaN FLOATs, an INT and a FLOAT within ±2^53 —
// compares as in Compare.
func CompareKeys(a, b D) int {
	switch {
	case a.k == KindFloat && b.k == KindFloat:
		return cmp.Compare(a.f, b.f)
	case a.k == KindInt && b.k == KindFloat:
		return cmpIntFloat(a.i, b.f)
	case a.k == KindFloat && b.k == KindInt:
		return -cmpIntFloat(b.i, a.f)
	}
	return Compare(a, b)
}

// EqualKeys is = as a search over the CompareKeys order answers it:
// Compare's equality, except that a NaN equals a NaN only, not every number.
func EqualKeys(a, b D) bool {
	return Compare(a, b) == 0 && a.isNaN() == b.isNaN()
}

func (d D) isNaN() bool { return d.k == KindFloat && math.IsNaN(d.f) }

// EqualSpan returns the interval of the CompareKeys order that holds every
// datum EqualKeys calls equal to d — [lo, hi], or (lo, hi) when open. An
// INT's equals are itself and the FLOAT it rounds to; a FLOAT past 2^53 also
// equals the INTs that round to it, which lie strictly between its
// neighbouring floats. The span may hold values that are not d's equals
// (between an INT past 2^53 and its FLOAT lie other INTs), never the reverse.
func EqualSpan(d D) (lo, hi D, open bool) {
	switch {
	case d.k == KindInt:
		f := NewFloat(float64(d.i))
		if CompareKeys(f, d) < 0 {
			return f, d, false
		}
		return d, f, false
	case d.k == KindFloat && math.Abs(d.f) >= 1<<53 && !math.IsInf(d.f, 0):
		return NewFloat(math.Nextafter(d.f, math.Inf(-1))), NewFloat(math.Nextafter(d.f, math.Inf(1))), true
	}
	return d, d, false
}

// cmpIntFloat compares an integer with a float exactly; a NaN is below every
// integer.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f), f < -(1 << 63):
		return 1
	case f >= 1<<63:
		return -1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f) // i is f's integer part: f's fraction decides
}

// rank groups kinds into comparison families; INT and FLOAT share a family so
// that 1 == 1.0.
func rank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	}
	return 4
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Equal reports a == b under Compare. NULL equals NULL here (used for
// grouping and duplicate elimination, which treat NULLs as equal per SQL).
func Equal(a, b D) bool { return Compare(a, b) == 0 }

var hashSeed = maphash.MakeSeed()

// HashInto mixes the datum into h. Datums that compare equal hash equally
// (in particular 1 and 1.0).
func (d D) HashInto(h *maphash.Hash) {
	switch d.k {
	case KindNull:
		h.WriteByte(0)
	case KindBool:
		h.WriteByte(1)
		h.WriteByte(byte(d.i))
	case KindInt:
		h.WriteByte(2)
		writeUint64(h, math.Float64bits(float64(d.i)))
	case KindFloat:
		h.WriteByte(2)
		writeUint64(h, math.Float64bits(d.f))
	case KindString:
		h.WriteByte(3)
		h.WriteString(d.s)
	}
}

func writeUint64(h *maphash.Hash, v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
}

// Hash returns a hash of the datum, consistent with Equal.
func (d D) Hash() uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	d.HashInto(&h)
	return h.Sum64()
}

// Size returns the modeled width of the datum in bytes, used by the cost
// model and page accounting in storage.
func (d D) Size() int {
	switch d.k {
	case KindNull:
		return 1
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 8
	case KindString:
		return 1 + len(d.s)
	}
	return 1
}
