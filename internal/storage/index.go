package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// IndexData is a built (sorted) secondary index: one typed key column per
// index column plus the row ids, all in index order — key ascending under
// datum.Compare, the order every sort of the engine uses, ties by row id.
// Lookups binary-search the key columns, modeling a B-tree: an equality or
// range seek is two O(log n) descents. INT, BOOL, FLOAT and dictionary-coded
// key columns hold no pointers.
type IndexData struct {
	Def     *catalog.Index
	KeyCols []int
	keys    []*datum.Vec
	rowIDs  []int
}

// Index returns (building if necessary) the named index's data. A cached
// index is found under the read lock; a build takes the write lock and
// checks the cache again, so concurrent first lookups build once. The build
// reads the key columns only, under sc — the reads count in the ReadStats of
// the operator whose lookup builds the index, and no other; the built index
// is cached until the next write.
func (t *Table) Index(sc *ScanCtx, name string) (*IndexData, error) {
	k := strings.ToLower(name)
	t.mu.RLock()
	ix := t.indexes[k]
	t.mu.RUnlock()
	if ix != nil {
		return ix, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix := t.indexes[k]; ix != nil {
		return ix, nil
	}
	for _, def := range t.Def.Indexes {
		if strings.EqualFold(def.Name, name) {
			ix, err := t.buildIndexLocked(sc, def)
			if err != nil {
				return nil, err
			}
			t.indexes[k] = ix
			return ix, nil
		}
	}
	return nil, fmt.Errorf("storage: table %s has no index %q", t.Def.Name, name)
}

// buildIndexLocked fills the key columns in row-id order, sorts a row-id
// permutation by them in datum.KeyOrder — one comparator specialized to each
// column's representation — and gathers each column into index order once. A
// permutation already in order — a key loaded ascending, as primary keys
// usually are — is neither sorted nor gathered. Caller holds t.mu.
func (t *Table) buildIndexLocked(sc *ScanCtx, def *catalog.Index) (*IndexData, error) {
	n := t.rowCountLocked()
	keys := make([]*datum.Vec, len(def.Cols))
	orders := make([]func(a, b int) int, len(def.Cols))
	for j, ord := range def.Cols {
		keys[j] = datum.NewVec(t.Def.Cols[ord].Kind, n)
		if err := t.fillColumnRangeLocked(sc, ord, 0, n, keys[j]); err != nil {
			return nil, err
		}
		orders[j] = datum.NewKeyOrder(keys[j], keys[j], false).Func()
	}
	order := func(a, b int) int {
		for _, c := range orders {
			if r := c(a, b); r != 0 {
				return r
			}
		}
		return cmp.Compare(a, b)
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	if !slices.IsSortedFunc(ids, order) {
		slices.SortFunc(ids, order)
		for j, v := range keys {
			keys[j] = datum.NewVec(v.Kind(), n)
			datum.AppendGather(keys[j], v, ids, 0)
		}
	}
	return &IndexData{Def: def, KeyCols: def.Cols, keys: keys, rowIDs: ids}, nil
}

// Len returns the number of index entries.
func (ix *IndexData) Len() int { return len(ix.rowIDs) }

// Seek returns the row ids, in index order, of the entries whose first
// len(eq) key columns equal eq and — when lo or hi bounds it, or eq is empty
// — whose next key column is not NULL and lies between lo and hi: a NULL
// bound is open, loIncl and hiIncl make an end inclusive. Keys compare by
// datum.Compare. One binary search over (prefix, range column) finds each
// end, and the result is a subslice of the index: read-only, valid for as
// long as the caller holds the *IndexData, and not allocated.
func (ix *IndexData) Seek(eq datum.Row, lo datum.D, loIncl bool, hi datum.D, hiIncl bool) []int {
	rc := -1 // the range column, if the range applies
	if len(eq) < len(ix.keys) && (len(eq) == 0 || !lo.IsNull() || !hi.IsNull()) {
		rc = len(eq)
	}
	n := len(ix.rowIDs)
	first := sort.Search(n, func(i int) bool {
		if c := ix.cmpPrefix(i, eq); c != 0 || rc < 0 {
			return c >= 0
		}
		if null := ix.keys[rc].Null(i); null || lo.IsNull() {
			return !null
		}
		c := cmpKeyAt(ix.keys[rc], i, lo)
		return c > 0 || (c == 0 && loIncl)
	})
	end := first + sort.Search(n-first, func(k int) bool {
		i := first + k
		if c := ix.cmpPrefix(i, eq); c != 0 || rc < 0 || hi.IsNull() {
			return c > 0
		}
		c := cmpKeyAt(ix.keys[rc], i, hi)
		return c > 0 || (c == 0 && !hiIncl)
	})
	return ix.rowIDs[first:end:end]
}

// cmpPrefix compares the first len(eq) key columns of entry i with eq.
func (ix *IndexData) cmpPrefix(i int, eq datum.Row) int {
	for j, d := range eq {
		if c := cmpKeyAt(ix.keys[j], i, d); c != 0 {
			return c
		}
	}
	return 0
}

// cmpKeyAt compares row i of key column v with d under datum.Compare, on
// the typed payload when both are plain INTs or plain FLOATs.
func cmpKeyAt(v *datum.Vec, i int, d datum.D) int {
	if !v.Boxed() && v.Dict == nil && !v.HasNulls() && v.Kind() == d.Kind() {
		switch d.Kind() {
		case datum.KindInt:
			return cmp.Compare(v.Ints[i], d.Int())
		case datum.KindFloat:
			return cmp.Compare(v.Floats[i], d.Float())
		}
	}
	return datum.Compare(v.D(i), d)
}
