package server

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity least-recently-used map from string
// keys to immutable values, safe for concurrent use. The planning
// plane keys it by the canonical workload hash, so identical plan
// requests are served without re-running the planner.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

// newLRUCache returns a cache holding at most capacity entries;
// capacity <= 0 disables caching (every lookup misses).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, order: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached value and refreshes its recency.
func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes a value, evicting the least recently used
// entry when over capacity.
func (c *lruCache) put(key string, val any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for len(c.items) > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// len returns the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
