package exp

import (
	"sync"
	"sync/atomic"
)

// Cache memoizes experiment results (or any derived value) by canonical
// string key with single-flight semantics: concurrent callers of the same
// key block on one computation instead of duplicating it. Cached values are
// shared by pointer and must be treated as immutable by callers.
type Cache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	done atomic.Bool // set after once completes; gates Range visibility
	val  any
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{m: make(map[string]*cacheEntry)} }

// Do returns the cached value for key, computing it with fn on the first
// call. The second return reports whether the value was already present (or
// being computed by another goroutine) when Do was called. Errors are cached
// too: a failed computation is not retried on later lookups, matching the
// determinism contract (the same spec always yields the same outcome).
func (c *Cache) Do(key string, fn func() (any, error)) (any, bool, error) {
	c.mu.Lock()
	e, hit := c.m[key]
	if !hit {
		e = &cacheEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.val, e.err = fn()
		e.done.Store(true)
	})
	return e.val, hit, e.err
}

// Seed inserts a completed successful entry for key if none exists,
// reporting whether it was inserted. Existing entries (completed or
// in-flight) win, so seeding from a stale snapshot never overwrites a live
// computation. Used to pre-warm caches from persistent snapshots.
func (c *Cache) Seed(key string, val any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[key]; exists {
		return false
	}
	e := &cacheEntry{}
	e.once.Do(func() {
		e.val = val
		e.done.Store(true)
	})
	c.m[key] = e
	return true
}

// Range visits every completed successful entry. In-flight computations and
// cached errors are skipped. The visit callback must not mutate values.
func (c *Cache) Range(visit func(key string, val any)) {
	c.mu.Lock()
	snapshot := make(map[string]*cacheEntry, len(c.m))
	for k, e := range c.m {
		snapshot[k] = e
	}
	c.mu.Unlock()
	for k, e := range snapshot {
		if e.done.Load() && e.err == nil {
			visit(k, e.val)
		}
	}
}

// Forget drops the entry for key, so the next Do recomputes it. Callers use
// it to keep non-deterministic failures — a cancelled context, an operator
// abort — from poisoning the deterministic result cache.
func (c *Cache) Forget(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}
