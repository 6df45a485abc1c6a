// The one hash index of the engine: the hash join's build side and
// vecGroups' group lookup are both a hashTable plus a keyMatch, which decides
// key equality.
// Entries are dense int32 ids in insertion order — a build row's position, a
// group id — so everything keyed by entry (stored hashes, chain links, the
// caller's row or key arrays) is a flat array and the table holds no pointer.
package exec

import "repro/internal/datum"

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
// A chain therefore always lists its entries in insertion order: the matches
// a lookup meets come in the order a row-at-a-time scan of the input meets
// them in.
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

// keyMatch is a lookup's key equality: row i of the key columns looked up
// against row j of the columns the entries' keys are in, equal when
// datum.Compare calls every column equal (1 = 1.0, -0 = +0, NaN = NaN, NULL
// = NULL; a join drops NULL keys before it looks up). One unboxed key column
// of one representation on both sides, neither with a NULL when bound,
// compares its payloads: INT, BOOL and codes of one shared dictionary as
// int64, plain strings with ==. Every other key — FLOAT, INT against FLOAT,
// strings under two dictionaries or against codes, boxed vectors, several
// columns — compares under datum.KeyOrders.
type keyMatch struct {
	keys       datum.KeyOrders
	ints, strs bool
}

// bind aims key column k at the looked-up vector a and the entries' vector b;
// a lookup binds every key column, in order, before it compares.
func (m *keyMatch) bind(k int, a, b *datum.Vec) {
	m.keys = append(m.keys[:k], datum.NewKeyOrder(a, b, false))
	one := len(m.keys) == 1 && a.Kind() == b.Kind() && a.Dict == b.Dict && !a.Boxed() && !b.Boxed() && !a.HasNulls() && !b.HasNulls()
	m.ints = one && (a.Kind() == datum.KindInt || a.Kind() == datum.KindBool || a.Dict != nil)
	m.strs = one && a.Kind() == datum.KindString && a.Dict == nil
}

// eq reports whether row i's key equals row j's.
func (m *keyMatch) eq(i, j int) bool {
	switch a, b := m.keys[0].Vecs(); {
	case m.ints:
		return a.Ints[i] == b.Ints[j]
	case m.strs:
		return a.Strs[i] == b.Strs[j]
	}
	return m.keys.Compare(i, j) == 0
}

// denseMap is a direct-mapped array over a range of keys, each key's slot
// found by a range test and an offset instead of a hash: slots[k] is 1 + the
// entry of key k, 0 where none. Its bytes are reserved on a memory account
// while it is held. The join probe maps a unique dense build key through
// one; the aggregation's group memo is one.
type denseMap struct {
	slots []int32
	mem   *MemAccount
	bytes int64 // reserved on mem
}

// hold makes slots d's array, reserved on mem under op, and reports whether
// the account granted them; otherwise d is left empty. Whatever d held before
// is released.
func (d *denseMap) hold(mem *MemAccount, op string, slots []int32) bool {
	d.release()
	n := 4 * int64(len(slots))
	if mem.Grow(op, n) != nil {
		return false
	}
	d.slots, d.mem, d.bytes = slots, mem, n
	return true
}

func (d *denseMap) release() {
	d.mem.Shrink(d.bytes)
	*d = denseMap{}
}

// intBounds returns the least and greatest of vals at the rows sel names,
// which must not be empty.
func intBounds(vals []int64, sel []int32) (lo, hi int64) {
	lo, hi = vals[sel[0]], vals[sel[0]]
	for _, i := range sel {
		lo, hi = min(lo, vals[i]), max(hi, vals[i])
	}
	return lo, hi
}
