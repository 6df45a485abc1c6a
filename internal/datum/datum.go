// Package datum implements the value model shared by every layer of the
// engine: NULL-aware typed scalar values, rows, comparison, and hashing.
//
// Datums are small value types (no pointers except for strings) so that rows
// can be copied cheaply and stored compactly in the in-memory storage engine.
// SQL three-valued comparison semantics live in the expression evaluator; this
// package provides the one total order (NULL first) they build on and that
// sorting, grouping, hashing, joins and index structures share (Compare).
package datum

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
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

// Append appends String's rendering of the datum to b without building the
// string (TestString).
func (d D) Append(b []byte) []byte {
	switch d.k {
	case KindNull:
		return append(b, "NULL"...)
	case KindBool:
		return strconv.AppendBool(b, d.i != 0)
	case KindInt:
		return strconv.AppendInt(b, d.i, 10)
	case KindFloat:
		return strconv.AppendFloat(b, d.f, 'g', -1, 64)
	case KindString:
		b = append(b, '\'')
		return append(append(b, d.s...), '\'')
	}
	return append(b, '?')
}

// Compare is the engine's one order: SQL comparison predicates and IN,
// MIN/MAX, grouping and hash-key equality, ORDER BY, merge-join inputs,
// index entries, zone maps and histograms all answer from it. Datums order by
// family — NULL < BOOL < numeric < STRING — and within one by value, and the
// order is total: a float NaN equals itself and sorts below every other
// number, -0 equals +0, and an INT/FLOAT pair compares exactly (INT 2^53+1 is
// above FLOAT 2^53). It returns -1, 0 or +1. NULL sorts first and equals NULL
// here; the three-valued logic of SQL comparisons lives above this layer.
func Compare(a, b D) int {
	// Same kind — the common case in sorts and key checks — skips Family()
	// (BenchmarkDatumCompare measures the delta against the generic path).
	if a.k == b.k {
		switch a.k {
		case KindInt, KindBool:
			return cmp.Compare(a.i, b.i)
		case KindFloat:
			return cmp.Compare(a.f, b.f)
		case KindString:
			return strings.Compare(a.s, b.s)
		}
		return 0
	}
	if ra, rb := a.k.Family(), b.k.Family(); ra != rb {
		return cmp.Compare(ra, rb)
	}
	if a.k == KindInt {
		return CompareIntFloat(a.i, b.f)
	}
	return -CompareIntFloat(b.i, a.f)
}

// CompareIntFloat is Compare(NewInt(i), NewFloat(f)), for loops over typed
// INT and FLOAT payloads: exact, with a NaN below every integer. Rounding i
// to a float keeps every strict inequality with f, a float itself; only a tie
// needs the integers compared.
func CompareIntFloat(i int64, f float64) int {
	switch x := float64(i); {
	case x < f:
		return -1
	case x > f || f != f:
		return 1
	case x == 1<<63 || i < int64(f): // a tie: f is integral, and 2^63 is above every int64
		return -1
	case i > int64(f):
		return 1
	}
	return 0
}

// Family groups kinds into Compare's families, ordered NULL < BOOL < number
// < STRING; INT and FLOAT share one so that 1 == 1.0.
func (k Kind) Family() int {
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

// Equal reports a == b under Compare. NULL equals NULL here (used for
// grouping and duplicate elimination, which treat NULLs as equal per SQL).
func Equal(a, b D) bool { return Compare(a, b) == 0 }

// HashBits is the bit pattern a number hashes as: its float64 encoding with
// -0 as +0 and every NaN as one NaN, so that numbers Compare calls equal hash
// equally. An INT hashes as its float64, which is never -0 or NaN — 3 and 3.0
// collide, and so do INTs past 2^53 that round to one float, which Compare
// tells apart.
func HashBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return 0x7ff8000000000001 // math.NaN()'s encoding
	}
	return math.Float64bits(f)
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
