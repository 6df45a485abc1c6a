// The one hash index of the engine: the hash join's build side and
// vecGroups' group lookup are both a hashTable plus typed key comparators.
// Entries are dense int32 ids in insertion order — a build row's position, a
// group id — so everything keyed by entry (stored hashes, chain links, the
// caller's row or key arrays) is a flat array and the table holds no pointer.
package exec

import "repro/internal/datum"

// mixHash is the 64-bit murmur finalizer. The key hash is FNV over a number's
// float encoding, whose low mantissa bits are zero for small integers: only
// the top bits of the product tell such keys apart, so a bucket or partition
// index is always taken from the finalized hash. The finalizer is a
// bijection, so finalized hashes are equal exactly when the raw ones are.
func mixHash(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hashTable chains entries off a power-of-two bucket array. Links are stored
// as entry+1 so the zero value is the empty chain.
type hashTable struct {
	slots []int32  // per bucket: 1 + the first entry of its chain
	next  []int32  // per entry: 1 + the next entry of its chain
	hash  []uint64 // per entry: its finalized hash
	mask  uint64
}

// minHashSlots keeps the bucket array of a table nobody sized non-empty.
const minHashSlots = 16

// slotsFor returns the bucket count for n expected entries: the power of two
// that keeps the load at or below one.
func slotsFor(n int) int {
	s := minHashSlots
	for s < n {
		s <<= 1
	}
	return s
}

// first returns the first entry of h's chain, after the entry that follows e
// in its chain; both are -1 at the end. A chain mixes every hash that shares
// the bucket, so callers compare hash[e] before the keys.
func (t *hashTable) first(h uint64) int32 { return t.slots[h&t.mask] - 1 }
func (t *hashTable) after(e int32) int32  { return t.next[e] - 1 }

// insert appends an entry with finalized hash h, links it at the tail of its
// chain and returns its id. The bucket array doubles when the load passes one.
// A chain therefore always lists its entries in insertion order: the first
// match a lookup meets is the oldest — the order a row-at-a-time scan of the
// input meets them in — which decides the outcome where key equality is not
// transitive (1 = 1.0 across INT and FLOAT near 2^53, NaN).
func (t *hashTable) insert(h uint64) int32 {
	if len(t.hash) >= len(t.slots) {
		t.relink(2 * len(t.slots))
	}
	e := int32(len(t.hash))
	t.hash = append(t.hash, h)
	t.next = append(t.next, 0)
	link := &t.slots[h&t.mask]
	for *link != 0 {
		link = &t.next[*link-1]
	}
	*link = e + 1
	return e
}

// relink rebuilds every chain over nSlots buckets from the stored hashes — no
// key is hashed again. Entries are linked last to first, each at the head of
// its chain, which keeps the chains in insertion order; a join appends its
// build rows' hashes and links once.
func (t *hashTable) relink(nSlots int) {
	nSlots = slotsFor(nSlots)
	t.slots, t.mask = make([]int32, nSlots), uint64(nSlots-1)
	t.next = growTo(t.next, len(t.hash), cap(t.hash))
	for e := len(t.hash) - 1; e >= 0; e-- {
		s := &t.slots[t.hash[e]&t.mask]
		t.next[e] = *s
		*s = int32(e) + 1
	}
}

// Comparison forms of one key column pair.
const (
	eqGeneric uint8 = iota // datum.Equal over reconstructed datums
	eqInts                 // INT, BOOL, or codes of one shared dictionary
	eqFloats
	eqStrs
)

// keyEq compares one key column between row i of a and row j of b with
// datum.Equal's outcome. The typed forms apply only where they provably are
// that outcome — same kind and representation on both sides, where Compare
// takes its same-kind path: exact integer and string equality, and floats
// equal when neither is smaller (so NaN equals everything, as in cmpFloat64).
// Anything else — boxed or all-NULL vectors, INT against FLOAT, strings under
// two dictionaries — reconstructs the datums.
type keyEq struct {
	a, b  *datum.Vec
	form  uint8
	nulls bool // a typed form must check the NULL bitmaps first
}

// newKeyEq picks the comparison form. nullable says whether a NULL can reach
// the comparison at all: joins filter NULL keys out before probing.
func newKeyEq(a, b *datum.Vec, nullable bool) keyEq {
	k := keyEq{a: a, b: b, nulls: nullable && (a.HasNulls() || b.HasNulls())}
	if a.Boxed() || b.Boxed() || a.Kind() != b.Kind() || a.Dict != b.Dict {
		return k
	}
	switch a.Kind() {
	case datum.KindInt, datum.KindBool:
		k.form = eqInts
	case datum.KindFloat:
		k.form = eqFloats
	case datum.KindString:
		k.form = eqStrs
		if a.Dict != nil {
			k.form = eqInts
		}
	}
	return k
}

// keyEqs is the comparator of a whole key: one keyEq per key column.
type keyEqs []keyEq

// equal reports whether every key column matches; NULL equals NULL, as
// grouping requires.
func (keys keyEqs) equal(i, j int32) bool {
	for c := range keys {
		k := &keys[c]
		if k.form == eqGeneric {
			if !datum.Equal(k.a.D(int(i)), k.b.D(int(j))) {
				return false
			}
			continue
		}
		if k.nulls {
			if an, bn := k.a.Null(int(i)), k.b.Null(int(j)); an || bn {
				if an != bn {
					return false
				}
				continue
			}
		}
		switch k.form {
		case eqInts:
			if k.a.Ints[i] != k.b.Ints[j] {
				return false
			}
		case eqFloats:
			if x, y := k.a.Floats[i], k.b.Floats[j]; x < y || y < x {
				return false
			}
		case eqStrs:
			if k.a.Strs[i] != k.b.Strs[j] {
				return false
			}
		}
	}
	return true
}
