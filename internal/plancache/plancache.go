// Package plancache is a bounded, thread-safe LRU map used by the engine's
// prepared-statement plan cache: keys are normalized statement texts plus
// parameter-type signatures, values are the cached plan diagrams. The cache
// only manages lifetime and recency — invalidation policy (catalog versions)
// and hit accounting at plan granularity live with the caller.
package plancache

import (
	"container/list"
	"sync"
)

// Cache is a fixed-capacity LRU cache. The zero value is not usable; call New.
type Cache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List
	items     map[string]*list.Element
	evictions int64
}

type lruEntry struct {
	key string
	val any
}

// New returns a cache holding at most capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// GetOrPut returns the value for key, inserting mk() if absent. The returned
// value is canonical: concurrent callers for the same key all observe the
// same stored value (mk runs under the cache lock, so keep it cheap). The
// bool reports whether the entry already existed.
func (c *Cache) GetOrPut(key string, mk func() any) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry).val, true
	}
	v := mk()
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: v})
	c.evict()
	return v, false
}

// Put inserts or replaces the value for key, marking it most recently used.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	c.evict()
}

// evict drops least-recently-used entries until the cache fits its capacity.
// Callers hold c.mu.
func (c *Cache) evict() {
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry).key)
		c.evictions++
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Evictions returns the number of entries dropped by capacity pressure.
func (c *Cache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
