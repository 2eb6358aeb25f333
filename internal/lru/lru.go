// Package lru is the repo's one keyed in-memory cache: a mutex-guarded LRU
// keyed by string, bounded by a budget over a caller-supplied size, with
// singleflight generation. The experiment engine's trace, warm-state and
// run memos, slipd's result store and the gateway's route table are all
// instances of it.
package lru

import (
	"container/list"
	"context"
	"sync"
)

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	Hits      uint64 // Gets served by a present or in-flight entry
	Misses    uint64 // gen calls made by Get
	Evictions uint64 // entries dropped to hold the budget
	Bytes     int64  // summed size of the retained entries
	Entries   int    // entries currently retained
}

// Cache is a string-keyed LRU of V. All methods are safe for concurrent
// use, and Stats is safe on a nil *Cache (it reports zeros), so a disabled
// cache still has a stable shape in reports.
type Cache[V any] struct {
	mu      sync.Mutex
	budget  int64
	size    func(V) int64
	entries map[string]*entry[V] // retained and in-flight entries
	order   *list.List           // retained entries, front = most recent
	stats   Stats
}

// entry is one key's slot. Its value is immutable once done is set (Put
// replaces the entry rather than mutating it), so a waiter may read it
// after ready closes without holding the lock.
type entry[V any] struct {
	key   string
	ready chan struct{} // closed when the flight completes (value set or entry dropped)
	val   V
	done  bool          // val holds a generated or Put value
	size  int64         // size(val), computed outside the lock
	elem  *list.Element // non-nil while retained
}

// New builds a cache whose retained entries' sizes sum to at most budget.
// A nil size weighs every entry 1, making budget an entry count; a budget
// <= 0 never evicts.
func New[V any](budget int64, size func(V) int64) *Cache[V] {
	return &Cache[V]{
		budget:  budget,
		size:    size,
		entries: make(map[string]*entry[V]),
		order:   list.New(),
	}
}

// Budget returns the cache's size budget (<= 0: unbounded).
func (c *Cache[V]) Budget() int64 { return c.budget }

// Get returns the value for key, generating it via gen on first request.
// Concurrent callers for one key share a single gen call: callers served by
// a present or in-flight entry count as hits, each gen call as a miss. gen
// must be deterministic for the key — the returned value may come from any
// caller's gen. gen runs outside the lock under the claiming caller's ctx;
// when it fails (typically cancellation) its error goes to that caller, the
// entry is dropped, and waiters retry with a fresh flight. A waiter whose
// own ctx ends returns ctx.Err(). A value larger than the whole budget is
// returned but never retained.
func (c *Cache[V]) Get(ctx context.Context, key string, gen func(context.Context) (V, error)) (V, error) {
	var zero V
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.stats.Hits++
			if e.done { // done entries in the map are always retained
				c.order.MoveToFront(e.elem)
				c.mu.Unlock()
				return e.val, nil
			}
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return zero, ctx.Err()
			}
			if e.done {
				return e.val, nil
			}
			continue // the flight failed; claim or join a fresh one
		}
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return zero, err
		}
		e := &entry[V]{key: key, ready: make(chan struct{})}
		c.entries[key] = e
		c.stats.Misses++
		c.mu.Unlock()

		v, err := gen(ctx) // outside the lock: distinct keys generate concurrently
		var size int64
		if err == nil {
			size = c.sizeOf(v)
		}

		c.mu.Lock()
		if err == nil {
			e.val, e.done, e.size = v, true, size
		}
		if c.entries[key] == e { // a Put may have replaced the flight
			delete(c.entries, key)
			if err == nil {
				c.retain(e)
			}
		}
		c.mu.Unlock()
		close(e.ready)
		if err != nil {
			return zero, err
		}
		return v, nil
	}
}

// Peek returns the retained value for key, promoting it to most recent. It
// neither generates nor counts toward Hits or Misses.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.done {
		c.order.MoveToFront(e.elem)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put inserts (or replaces) the value for key as most recent. Replacing an
// entry is not an eviction; an in-flight Get for key still returns its own
// generated value to its callers, but Put's value is the one retained.
func (c *Cache[V]) Put(key string, v V) {
	e := &entry[V]{key: key, val: v, done: true, size: c.sizeOf(v)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.unlink(old)
		delete(c.entries, key)
	}
	c.retain(e)
}

// Len returns the number of retained entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the counters; a nil cache reports zeros.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.order.Len()
	return st
}

// sizeOf weighs v with the caller's size func (1 without one). It runs
// outside c.mu, so a size func never executes under the cache lock.
func (c *Cache[V]) sizeOf(v V) int64 {
	if c.size == nil {
		return 1
	}
	return c.size(v)
}

// retain inserts a done, sized entry as most recent, then evicts from the
// back until the budget holds. An entry larger than the whole budget is
// not inserted at all, so it can neither pin memory nor flush the cache.
// Callers hold c.mu and have removed any previous entry for e.key.
func (c *Cache[V]) retain(e *entry[V]) {
	if c.budget > 0 && e.size > c.budget {
		return
	}
	c.entries[e.key] = e
	e.elem = c.order.PushFront(e)
	c.stats.Bytes += e.size
	for c.budget > 0 && c.stats.Bytes > c.budget {
		back := c.order.Back().Value.(*entry[V])
		c.unlink(back)
		delete(c.entries, back.key)
		c.stats.Evictions++
	}
}

// unlink drops e from the LRU order, if retained. Callers hold c.mu.
func (c *Cache[V]) unlink(e *entry[V]) {
	if e.elem != nil {
		c.order.Remove(e.elem)
		e.elem = nil
		c.stats.Bytes -= e.size
	}
}
