// Column vectors for the vectorized execution path: one typed slice per
// column plus a NULL bitmap, so tight kernels in the executor can loop over
// raw []int64/[]float64/[]string without per-row interface dispatch. Vectors
// live in this package (not exec) so the storage engine can fill them
// directly from heap rows.
package datum

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// StrDict is a sorted string dictionary shared by dictionary-encoded vectors.
// Vals is sorted ascending and free of duplicates, so a code comparison
// orders the same way as the string comparison it stands for, and a constant
// translates to code space with one binary search. Dictionaries are immutable
// after construction and compared by pointer: two vectors with the same Dict
// pointer speak the same code space.
type StrDict struct {
	Vals []string
}

// Code returns the code of s and whether s is present in the dictionary.
func (d *StrDict) Code(s string) (int64, bool) {
	i := sort.SearchStrings(d.Vals, s)
	if i < len(d.Vals) && d.Vals[i] == s {
		return int64(i), true
	}
	return 0, false
}

// CodeFloor returns the number of dictionary entries < s — the first code
// whose value is >= s. Range predicates on encoded columns translate their
// constant bound to this code interval once and then compare codes.
func (d *StrDict) CodeFloor(s string) int64 {
	return int64(sort.SearchStrings(d.Vals, s))
}

// Bytes returns the modeled heap size of the dictionary payload: string
// bytes plus a header per entry, matching the accounting D.Size uses.
func (d *StrDict) Bytes() int64 {
	total := int64(0)
	for _, s := range d.Vals {
		total += int64(16 + len(s))
	}
	return total
}

// Bitmap is a packed NULL bitmap: bit i set means row i is NULL.
type Bitmap []uint64

// NewBitmap returns a bitmap able to hold n bits, all clear.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Get reports whether bit i is set. Bits beyond the bitmap's length are
// clear (the bitmap only grows to the highest bit ever set).
func (b Bitmap) Get(i int) bool {
	w := i >> 6
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i, growing the bitmap as needed.
func (b *Bitmap) Set(i int) {
	for len(*b) <= i>>6 {
		*b = append(*b, 0)
	}
	(*b)[i>>6] |= 1 << (uint(i) & 63)
}

// Vec is one column of a batch. The representation is chosen by kind:
//
//	KindInt, KindBool → Ints (bools stored 0/1)
//	KindFloat         → Floats
//	KindString        → Strs
//	KindNull          → no payload (every row is NULL)
//	boxed             → Ds (datums; the correctness fallback for columns
//	                    whose stored values mix kinds, e.g. an INT column
//	                    holding FLOAT datums via numeric coercion)
//
// NULL rows are tracked in the bitmap; the payload slot of a NULL row holds
// the zero value and must not be read.
//
// A KindString vector may additionally be dictionary-encoded: Dict is
// non-nil, per-row codes live in Ints (indices into Dict.Vals, 0 for NULL
// rows) and Strs is unused. Kernels that understand the encoding operate on
// the codes directly; everything else sees correct values through D, which
// decodes transparently.
type Vec struct {
	kind Kind
	// anyKind marks the boxed representation; kind is then the kind of the
	// first non-null value, for diagnostics only.
	anyKind bool
	n       int

	Ints   []int64
	Floats []float64
	Strs   []string
	Ds     []D

	// Dict marks the dictionary-encoded string representation; codes are in
	// Ints. Nil for every other representation.
	Dict *StrDict

	nulls    Bitmap
	numNulls int

	// reserve is the row capacity NewVec was asked for and has not allocated
	// yet: the payload slice is chosen by the first append, which is when the
	// representation is known (a string column filled from a dictionary
	// segment needs codes, not strings).
	reserve int
}

// NewVec returns an empty vector of the given kind with room for capacity
// rows, allocated by the first append.
func NewVec(k Kind, capacity int) *Vec {
	return &Vec{kind: k, reserve: capacity}
}

// NewAnyVec returns an empty boxed-representation vector.
func NewAnyVec(capacity int) *Vec {
	return &Vec{anyKind: true, Ds: make([]D, 0, capacity)}
}

// NewTypedVec assembles a typed vector directly from its parts — the decode
// path of the columnar segment format, which reads whole payload slices and
// must not pay a per-value append. Exactly one payload slice matching k must
// be populated (none for KindNull); NULL slots must hold the payload's zero
// value, and nulls may be nil when numNulls is 0.
func NewTypedVec(k Kind, n int, ints []int64, floats []float64, strs []string, nulls Bitmap, numNulls int) *Vec {
	return &Vec{kind: k, n: n, Ints: ints, Floats: floats, Strs: strs, nulls: nulls, numNulls: numNulls}
}

// NewBoxedVec wraps datums in a boxed vector without copying.
func NewBoxedVec(ds []D) *Vec {
	return &Vec{anyKind: true, n: len(ds), Ds: ds}
}

// NewDictVec assembles a dictionary-encoded string vector from its parts —
// the decode path of dictionary column blocks. codes index dict.Vals; NULL
// rows must hold code 0 and be marked in nulls.
func NewDictVec(n int, codes []int64, dict *StrDict, nulls Bitmap, numNulls int) *Vec {
	return &Vec{kind: KindString, n: n, Ints: codes, Dict: dict, nulls: nulls, numNulls: numNulls}
}

// materializeDict decodes a dictionary-encoded vector to the plain string
// representation in place. Only caller-owned vectors may be materialized;
// shared (cached) vectors are always the src side of an append.
func (v *Vec) materializeDict() {
	if v.Dict == nil {
		return
	}
	strs := make([]string, v.n)
	for i := 0; i < v.n; i++ {
		if v.numNulls == 0 || !v.nulls.Get(i) {
			strs[i] = v.Dict.Vals[v.Ints[i]]
		}
	}
	v.Strs = strs
	v.Ints = v.Ints[:0]
	v.Dict = nil
}

// alloc allocates the capacity reserved by NewVec for the representation the
// vector has now. Every append calls it once that is decided (after a
// dictionary was adopted or dropped).
func (v *Vec) alloc() {
	n := v.reserve
	if n == 0 {
		return
	}
	v.reserve = 0
	switch {
	case v.anyKind:
	case v.Dict != nil, v.kind == KindInt, v.kind == KindBool:
		if v.Ints == nil {
			v.Ints = make([]int64, 0, n)
		}
	case v.kind == KindFloat:
		if v.Floats == nil {
			v.Floats = make([]float64, 0, n)
		}
	case v.kind == KindString:
		if v.Strs == nil {
			v.Strs = make([]string, 0, n)
		}
	}
}

// Kind returns the vector's static kind.
func (v *Vec) Kind() Kind { return v.kind }

// Boxed reports whether the vector uses the boxed (KindAny) representation.
func (v *Vec) Boxed() bool { return v.anyKind }

// Len returns the number of rows.
func (v *Vec) Len() int { return v.n }

// HasNulls reports whether any row is NULL.
func (v *Vec) HasNulls() bool { return v.numNulls > 0 }

// NumNulls returns the number of NULL rows.
func (v *Vec) NumNulls() int { return v.numNulls }

// Null reports whether row i is NULL.
func (v *Vec) Null(i int) bool {
	if v.anyKind {
		return v.Ds[i].IsNull()
	}
	if v.kind == KindNull {
		return true
	}
	return v.numNulls > 0 && v.nulls.Get(i)
}

// Nulls exposes the bitmap (nil when the vector has no NULLs). Not
// meaningful for boxed or all-NULL vectors.
func (v *Vec) Nulls() Bitmap {
	if v.numNulls == 0 {
		return nil
	}
	return v.nulls
}

// Reset empties the vector in place, keeping its backing storage.
func (v *Vec) Reset(k Kind) {
	v.kind = k
	v.anyKind = false
	v.Dict = nil
	v.n = 0
	v.numNulls = 0
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Strs = v.Strs[:0]
	v.Ds = v.Ds[:0]
	for i := range v.nulls {
		v.nulls[i] = 0
	}
}

// AppendNull appends a NULL row.
func (v *Vec) AppendNull() {
	v.alloc()
	if v.anyKind {
		v.Ds = append(v.Ds, Null)
		v.n++
		return
	}
	v.nulls.Set(v.n)
	v.numNulls++
	if v.Dict != nil {
		v.Ints = append(v.Ints, 0)
		v.n++
		return
	}
	switch v.kind {
	case KindInt, KindBool:
		v.Ints = append(v.Ints, 0)
	case KindFloat:
		v.Floats = append(v.Floats, 0)
	case KindString:
		v.Strs = append(v.Strs, "")
	}
	v.n++
}

// AppendD appends a datum, upgrading to the boxed representation when the
// datum's kind does not match the vector's (numeric coercion lets an INT
// column store FLOAT datums, so typed fills must tolerate strays).
func (v *Vec) AppendD(d D) {
	if v.anyKind {
		v.Ds = append(v.Ds, d)
		v.n++
		return
	}
	if d.k == KindNull {
		v.AppendNull()
		return
	}
	if v.Dict != nil {
		if d.k == KindString {
			if code, ok := v.Dict.Code(d.s); ok {
				v.alloc()
				v.Ints = append(v.Ints, code)
				v.n++
				return
			}
		}
		// Value outside the dictionary (or a stray kind): decode in place
		// and take the plain path below.
		v.materializeDict()
	}
	if d.k != v.kind {
		if v.kind == KindNull && v.n == v.numNulls {
			// An all-NULL vector adopts the kind of its first value.
			v.retype(d.k)
		} else {
			v.upgradeAny()
		}
		v.AppendD(d)
		return
	}
	v.alloc()
	switch v.kind {
	case KindInt, KindBool:
		v.Ints = append(v.Ints, d.i)
	case KindFloat:
		v.Floats = append(v.Floats, d.f)
	case KindString:
		v.Strs = append(v.Strs, d.s)
	}
	v.n++
}

// retype switches an all-NULL vector to a typed representation.
func (v *Vec) retype(k Kind) {
	v.kind = k
	for i := 0; i < v.n; i++ {
		switch k {
		case KindInt, KindBool:
			v.Ints = append(v.Ints, 0)
		case KindFloat:
			v.Floats = append(v.Floats, 0)
		case KindString:
			v.Strs = append(v.Strs, "")
		}
		v.nulls.Set(i)
	}
}

// upgradeAny converts the vector to the boxed representation in place.
func (v *Vec) upgradeAny() {
	ds := make([]D, v.n, v.n+8)
	for i := 0; i < v.n; i++ {
		ds[i] = v.D(i)
	}
	v.anyKind = true
	v.Ds = ds
	v.Ints, v.Floats, v.Strs = nil, nil, nil
	v.Dict = nil
}

// D reconstructs row i as a datum.
func (v *Vec) D(i int) D {
	if v.anyKind {
		return v.Ds[i]
	}
	if v.kind == KindNull || (v.numNulls > 0 && v.nulls.Get(i)) {
		return Null
	}
	if v.Dict != nil {
		return D{k: KindString, s: v.Dict.Vals[v.Ints[i]]}
	}
	switch v.kind {
	case KindInt:
		return D{k: KindInt, i: v.Ints[i]}
	case KindBool:
		return D{k: KindBool, i: v.Ints[i]}
	case KindFloat:
		return D{k: KindFloat, f: v.Floats[i]}
	case KindString:
		return D{k: KindString, s: v.Strs[i]}
	}
	return Null
}

// canAdoptDict reports whether v may take on src's dictionary: v must be an
// empty plain string vector (or already share the dictionary), so adopting
// changes no existing row.
func (v *Vec) canAdoptDict(dict *StrDict) bool {
	if v.Dict == dict {
		return true
	}
	return v.Dict == nil && !v.anyKind && v.kind == KindString && v.n == 0
}

// AppendVec appends row i of src (any representation) to v. Rows gathered
// from a dictionary-encoded source stay encoded when v shares (or can adopt)
// the source dictionary.
func (v *Vec) AppendVec(src *Vec, i int) {
	if src.Dict != nil && v.canAdoptDict(src.Dict) {
		v.Dict = src.Dict
		v.alloc()
		if src.numNulls > 0 && src.nulls.Get(i) {
			v.nulls.Set(v.n)
			v.numNulls++
		}
		v.Ints = append(v.Ints, src.Ints[i])
		v.n++
		return
	}
	if v.kind == src.kind && !v.anyKind && !src.anyKind && v.Dict == nil && src.Dict == nil &&
		v.kind != KindNull && !(src.numNulls > 0 && src.nulls.Get(i)) {
		// Same plain typed representation, value not NULL: move the payload.
		v.alloc()
		switch v.kind {
		case KindFloat:
			v.Floats = append(v.Floats, src.Floats[i])
		case KindString:
			v.Strs = append(v.Strs, src.Strs[i])
		default:
			v.Ints = append(v.Ints, src.Ints[i])
		}
		v.n++
		return
	}
	v.AppendD(src.D(i))
}

// AppendGather appends rows idx[k]-base of src to v, in idx order; a negative
// index appends NULL (the outer-join padding). It is the gather kernel behind
// join output and late scan materialization: when v and src share a typed
// representation, or v can adopt src's dictionary, the kind, dictionary and
// NULL dispatch happen once and the payload moves in one typed loop. Boxed,
// mismatched and non-adoptable-dictionary pairs append element-wise through
// AppendVec, which upgrades v as needed.
func AppendGather[I int | int32](v, src *Vec, idx []I, base I) {
	if len(idx) == 0 {
		return
	}
	var pad bool
	switch {
	case src.Dict != nil && v.canAdoptDict(src.Dict):
		v.Dict = src.Dict
		v.alloc()
		v.Ints, pad = gatherPayload(v.Ints, src.Ints, idx, base)
	case v.Dict != nil || src.Dict != nil || v.anyKind || src.anyKind || v.kind != src.kind || v.kind == KindNull:
		for _, i := range idx {
			if i < 0 {
				v.AppendNull()
			} else {
				v.AppendVec(src, int(i-base))
			}
		}
		return
	case v.kind == KindFloat:
		v.alloc()
		v.Floats, pad = gatherPayload(v.Floats, src.Floats, idx, base)
	case v.kind == KindString:
		v.alloc()
		v.Strs, pad = gatherPayload(v.Strs, src.Strs, idx, base)
	default: // KindInt, KindBool
		v.alloc()
		v.Ints, pad = gatherPayload(v.Ints, src.Ints, idx, base)
	}
	if srcNulls := src.Nulls(); pad || srcNulls != nil {
		for k, i := range idx {
			if i < 0 || srcNulls.Get(int(i-base)) {
				v.nulls.Set(v.n + k)
				v.numNulls++
			}
		}
	}
	v.n += len(idx)
}

// gatherPayload appends src[idx[k]-base] to dst for every k, the zero value
// where idx[k] is negative, and reports whether any index was.
func gatherPayload[T any, I int | int32](dst, src []T, idx []I, base I) ([]T, bool) {
	n := len(dst)
	dst = slices.Grow(dst, len(idx))[:n+len(idx)]
	out := dst[n:]
	var zero T
	pad := false
	for k, i := range idx {
		if i < 0 {
			out[k], pad = zero, true
			continue
		}
		out[k] = src[i-base]
	}
	return dst, pad
}

// AppendRange appends rows [lo, hi) of src to v. When both vectors share the
// same typed representation the payload is bulk-copied with one append and
// only the NULL bits are walked; mismatched or boxed representations fall
// back to per-row AppendD (which upgrades v as needed).
func (v *Vec) AppendRange(src *Vec, lo, hi int) {
	if hi <= lo {
		return
	}
	if v.Dict != nil && src.Dict == nil && !src.anyKind && src.kind == KindString {
		v.materializeDict() // plain strings after codes: decode v, then copy
	}
	if !src.anyKind {
		if ok, _ := v.AppendDecoded(src.kind, src.Dict, src.Nulls(), lo, hi, func(v *Vec) error {
			switch {
			case src.Dict != nil, src.kind == KindInt, src.kind == KindBool:
				v.Ints = append(v.Ints, src.Ints[lo:hi]...)
			case src.kind == KindFloat:
				v.Floats = append(v.Floats, src.Floats[lo:hi]...)
			default:
				v.Strs = append(v.Strs, src.Strs[lo:hi]...)
			}
			return nil
		}); ok {
			return
		}
	}
	if v.Dict != nil {
		v.materializeDict()
	}
	for i := lo; i < hi; i++ {
		v.AppendD(src.D(i))
	}
}

// AppendDecoded is AppendRange for a source that exists only as encoded
// bytes: it appends rows [lo, hi) of a column of kind k — dictionary codes
// under dict when dict is non-nil — that are NULL where nulls is set. When v
// holds, or being empty can adopt, that typed representation, fill must
// append hi-lo values straight to the payload slice it uses (Ints for INT,
// BOOL and codes, Floats, or Strs; zero at NULL rows), and AppendDecoded
// marks the NULLs; after a fill error v must be discarded. Otherwise it
// changes nothing and returns false, and the caller appends the rows as
// AppendRange would from a decoded vector.
func (v *Vec) AppendDecoded(k Kind, dict *StrDict, nulls Bitmap, lo, hi int, fill func(*Vec) error) (bool, error) {
	if hi <= lo {
		return true, nil
	}
	if dict != nil {
		if !v.canAdoptDict(dict) {
			return false, nil
		}
		v.Dict = dict
	} else if v.Dict != nil || v.anyKind || v.kind != k || k == KindNull {
		return false, nil
	}
	v.alloc()
	if err := fill(v); err != nil {
		return true, err
	}
	if nulls != nil {
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				v.nulls.Set(v.n + i - lo)
				v.numNulls++
			}
		}
	}
	v.n += hi - lo
	return true, nil
}

// AppendRowsCol appends column ord of each row to v — the bulk form of
// AppendD for heap scans. Rows whose value already matches v's typed
// representation skip AppendD's per-value dynamic-kind dispatch; the first
// stray kind (numeric coercion allows them) falls back to AppendD for the
// remainder of the slice.
func (v *Vec) AppendRowsCol(rows []Row, ord int) {
	if v.Dict != nil {
		v.materializeDict()
	}
	v.alloc()
	if v.anyKind {
		for _, r := range rows {
			v.Ds = append(v.Ds, r[ord])
		}
		v.n += len(rows)
		return
	}
	switch v.kind {
	case KindInt, KindBool:
		for ri, r := range rows {
			d := r[ord]
			if d.k == v.kind {
				v.Ints = append(v.Ints, d.i)
				v.n++
			} else if d.k == KindNull {
				v.AppendNull()
			} else {
				v.appendRowsColSlow(rows[ri:], ord)
				return
			}
		}
	case KindFloat:
		for ri, r := range rows {
			d := r[ord]
			if d.k == KindFloat {
				v.Floats = append(v.Floats, d.f)
				v.n++
			} else if d.k == KindNull {
				v.AppendNull()
			} else {
				v.appendRowsColSlow(rows[ri:], ord)
				return
			}
		}
	case KindString:
		for ri, r := range rows {
			d := r[ord]
			if d.k == KindString {
				v.Strs = append(v.Strs, d.s)
				v.n++
			} else if d.k == KindNull {
				v.AppendNull()
			} else {
				v.appendRowsColSlow(rows[ri:], ord)
				return
			}
		}
	default:
		v.appendRowsColSlow(rows, ord)
	}
}

func (v *Vec) appendRowsColSlow(rows []Row, ord int) {
	for _, r := range rows {
		v.AppendD(r[ord])
	}
}

// SizeAt is D.Size of row i, read off the payload without reconstructing
// the datum.
func (v *Vec) SizeAt(i int) int {
	switch {
	case v.anyKind:
		return v.Ds[i].Size()
	case v.kind == KindNull || v.kind == KindBool || (v.numNulls > 0 && v.nulls.Get(i)):
		return 1
	case v.Dict != nil:
		return 1 + len(v.Dict.Vals[v.Ints[i]])
	case v.kind == KindString:
		return 1 + len(v.Strs[i])
	}
	return 8
}

// DataBytes returns the modeled width of the rows selected by sel (all rows
// when sel is nil), matching D.Size over the reconstructed datums — used so
// batch memory reservations agree with the row path's accounting.
func (v *Vec) DataBytes(sel []int32) int64 {
	var total int64
	if sel == nil {
		for i := 0; i < v.n; i++ {
			total += int64(v.SizeAt(i))
		}
		return total
	}
	for _, i := range sel {
		total += int64(v.SizeAt(int(i)))
	}
	return total
}

// KeyOrder is the order of row i of one vector against row j of another —
// often of the same one — under Compare, reversed when desc: NULL first,
// then by value. KeyOrders compares under it: it is the vector form of
// Compare, for order and equality alike (sorts, merge joins, hash-key
// equality). Where both vectors share a typed representation it compares
// payloads (FLOAT by cmp.Compare, which puts NaN first and -0 beside +0 as
// Compare does; dictionary codes, since a dictionary is sorted), and
// reconstructed datums otherwise — boxed or all-NULL vectors, INT against
// FLOAT, strings under two dictionaries.
type KeyOrder struct {
	a, b  *Vec
	form  uint8
	nulls bool
	desc  bool
}

// Comparison forms of a KeyOrder.
const (
	orderDatums uint8 = iota
	orderInts         // INT, BOOL, or codes of one shared dictionary
	orderFloats
	orderStrs
)

// NewKeyOrder returns the order of rows of a against rows of b.
func NewKeyOrder(a, b *Vec, desc bool) KeyOrder {
	k := KeyOrder{a: a, b: b, nulls: a.HasNulls() || b.HasNulls(), desc: desc}
	if a.anyKind || b.anyKind || a.kind != b.kind || a.Dict != b.Dict {
		return k
	}
	switch a.kind {
	case KindInt, KindBool:
		k.form = orderInts
	case KindFloat:
		k.form = orderFloats
	case KindString:
		k.form = orderStrs
		if a.Dict != nil {
			k.form = orderInts
		}
	}
	return k
}

// Vecs returns the vectors whose rows the order compares: a's row i with b's
// row j.
func (k *KeyOrder) Vecs() (a, b *Vec) { return k.a, k.b }

// KeyOrders orders rows of several column pairs — a sort key, a join or
// group key — column by column, the first unequal column deciding. A hash
// table's key comparison is Compare(i, j) == 0.
type KeyOrders []KeyOrder

// Compare returns -1, 0 or +1 as row i sorts before, with or after row j.
func (ks KeyOrders) Compare(i, j int) int {
	for x := range ks {
		k := &ks[x]
		var c int
		switch {
		case k.form == orderDatums:
			c = Compare(k.a.D(i), k.b.D(j))
		case k.nulls && (k.a.Null(i) || k.b.Null(j)):
			c = btoi(k.b.Null(j)) - btoi(k.a.Null(i))
		case k.form == orderInts:
			c = cmp.Compare(k.a.Ints[i], k.b.Ints[j])
		case k.form == orderFloats:
			c = cmp.Compare(k.a.Floats[i], k.b.Floats[j])
		default:
			c = strings.Compare(k.a.Strs[i], k.b.Strs[j])
		}
		if c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// Func returns Compare as a function specialized to the order's form, for a
// loop that compares many rows of one vector pair — a sort. Without NULLs an
// ascending typed order compares its payload slices directly.
func (k KeyOrder) Func() func(i, j int) int {
	if !k.nulls && !k.desc {
		switch a, b := k.a, k.b; k.form {
		case orderInts:
			x, y := a.Ints, b.Ints
			return func(i, j int) int { return cmp.Compare(x[i], y[j]) }
		case orderFloats:
			x, y := a.Floats, b.Floats
			return func(i, j int) int { return cmp.Compare(x[i], y[j]) }
		case orderStrs:
			x, y := a.Strs, b.Strs
			return func(i, j int) int { return strings.Compare(x[i], y[j]) }
		}
	}
	return KeyOrders{k}.Compare
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
