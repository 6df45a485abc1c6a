package plancache

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a") // a is now most recent
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("recently-used entry a evicted (got %v, %v)", v, ok)
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Fatalf("len=%d evictions=%d, want 2, 1", c.Len(), c.Evictions())
	}
}

func TestGetOrPutCanonical(t *testing.T) {
	c := New(8)
	v1, existed := c.GetOrPut("k", func() any { return &sync.Mutex{} })
	if existed {
		t.Fatal("first GetOrPut reported existing")
	}
	v2, existed := c.GetOrPut("k", func() any { return &sync.Mutex{} })
	if !existed || v1 != v2 {
		t.Fatal("GetOrPut returned a non-canonical value")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%32)
				c.GetOrPut(k, func() any { return i })
				c.Get(k)
				if i%50 == 0 {
					c.Put(k, -i)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}
