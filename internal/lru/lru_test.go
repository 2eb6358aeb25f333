package lru

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// constGen returns a gen that yields v and counts its calls in n.
func constGen(v string, n *atomic.Int32) func(context.Context) (string, error) {
	return func(context.Context) (string, error) {
		n.Add(1)
		return v, nil
	}
}

// byLen sizes a string value by its length.
func byLen(s string) int64 { return int64(len(s)) }

// TestSequential drives one cache through a script of Get/Put/Peek steps
// and checks the retained keys (most recent first) and the counters after
// each step: LRU eviction order, promotion on hit and Peek, Put
// replacement, oversize non-retention and the unbounded budget.
func TestSequential(t *testing.T) {
	type step struct {
		op, key, val string // op: get, put, peek
		want         string // get/peek result ("" = peek miss)
		order        []string
		stats        Stats
	}
	cases := []struct {
		name   string
		budget int64
		size   func(string) int64
		steps  []step
	}{
		{
			name: "eviction order by entry count", budget: 2,
			steps: []step{
				{op: "get", key: "a", val: "A", want: "A", order: []string{"a"}, stats: Stats{Misses: 1, Bytes: 1, Entries: 1}},
				{op: "get", key: "b", val: "B", want: "B", order: []string{"b", "a"}, stats: Stats{Misses: 2, Bytes: 2, Entries: 2}},
				{op: "get", key: "a", val: "x", want: "A", order: []string{"a", "b"}, stats: Stats{Hits: 1, Misses: 2, Bytes: 2, Entries: 2}},
				{op: "get", key: "c", val: "C", want: "C", order: []string{"c", "a"}, stats: Stats{Hits: 1, Misses: 3, Evictions: 1, Bytes: 2, Entries: 2}},
				{op: "get", key: "b", val: "B2", want: "B2", order: []string{"b", "c"}, stats: Stats{Hits: 1, Misses: 4, Evictions: 2, Bytes: 2, Entries: 2}},
			},
		},
		{
			name: "byte budget and oversize", budget: 5, size: byLen,
			steps: []step{
				{op: "get", key: "a", val: "aa", want: "aa", order: []string{"a"}, stats: Stats{Misses: 1, Bytes: 2, Entries: 1}},
				{op: "get", key: "b", val: "bbb", want: "bbb", order: []string{"b", "a"}, stats: Stats{Misses: 2, Bytes: 5, Entries: 2}},
				{op: "get", key: "big", val: "bigbig", want: "bigbig", order: []string{"b", "a"}, stats: Stats{Misses: 3, Bytes: 5, Entries: 2}},
				{op: "get", key: "big", val: "bigbig", want: "bigbig", order: []string{"b", "a"}, stats: Stats{Misses: 4, Bytes: 5, Entries: 2}},
				{op: "get", key: "c", val: "cc", want: "cc", order: []string{"c", "b"}, stats: Stats{Misses: 5, Evictions: 1, Bytes: 5, Entries: 2}},
				{op: "get", key: "d", val: "ddddd", want: "ddddd", order: []string{"d"}, stats: Stats{Misses: 6, Evictions: 3, Bytes: 5, Entries: 1}},
			},
		},
		{
			name: "put replaces and peek promotes", budget: 2,
			steps: []step{
				{op: "put", key: "a", val: "A", order: []string{"a"}, stats: Stats{Bytes: 1, Entries: 1}},
				{op: "put", key: "b", val: "B", order: []string{"b", "a"}, stats: Stats{Bytes: 2, Entries: 2}},
				{op: "put", key: "a", val: "A2", order: []string{"a", "b"}, stats: Stats{Bytes: 2, Entries: 2}},
				{op: "peek", key: "b", want: "B", order: []string{"b", "a"}, stats: Stats{Bytes: 2, Entries: 2}},
				{op: "peek", key: "zz", want: "", order: []string{"b", "a"}, stats: Stats{Bytes: 2, Entries: 2}},
				{op: "put", key: "c", val: "C", order: []string{"c", "b"}, stats: Stats{Evictions: 1, Bytes: 2, Entries: 2}},
				{op: "get", key: "b", val: "x", want: "B", order: []string{"b", "c"}, stats: Stats{Hits: 1, Evictions: 1, Bytes: 2, Entries: 2}},
			},
		},
		{
			name: "non-positive budget never evicts", budget: 0,
			steps: []step{
				{op: "put", key: "a", val: "A", order: []string{"a"}, stats: Stats{Bytes: 1, Entries: 1}},
				{op: "put", key: "b", val: "B", order: []string{"b", "a"}, stats: Stats{Bytes: 2, Entries: 2}},
				{op: "get", key: "c", val: "C", want: "C", order: []string{"c", "b", "a"}, stats: Stats{Misses: 1, Bytes: 3, Entries: 3}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.budget, tc.size)
			for i, s := range tc.steps {
				var got string
				switch s.op {
				case "get":
					v, err := c.Get(context.Background(), s.key, func(context.Context) (string, error) { return s.val, nil })
					if err != nil {
						t.Fatalf("step %d: Get(%s): %v", i, s.key, err)
					}
					got = v
				case "put":
					c.Put(s.key, s.val)
					got = s.want
				case "peek":
					got, _ = c.Peek(s.key)
				}
				if got != s.want {
					t.Errorf("step %d: %s(%s) = %q, want %q", i, s.op, s.key, got, s.want)
				}
				if order := keys(c); fmt.Sprint(order) != fmt.Sprint(s.order) {
					t.Errorf("step %d: retained %v, want %v", i, order, s.order)
				}
				if st := c.Stats(); st != s.stats {
					t.Errorf("step %d: stats %+v, want %+v", i, st, s.stats)
				}
				if c.Len() != len(s.order) {
					t.Errorf("step %d: Len %d, want %d", i, c.Len(), len(s.order))
				}
			}
		})
	}
}

// keys lists the retained keys, most recent first.
func keys[V any](c *Cache[V]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[V]).key)
	}
	return out
}

// TestSingleflight: concurrent Gets for one key share one gen call, and
// every caller gets its value — retained or not.
func TestSingleflight(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
		val    string
		kept   int
	}{
		{"retained", 100, "value", 1},
		{"oversize", 2, "value", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.budget, byLen)
			var gens atomic.Int32
			release := make(chan struct{})
			gen := func(context.Context) (string, error) {
				gens.Add(1)
				<-release
				return tc.val, nil
			}
			const callers = 16
			got := make([]string, callers)
			var wg sync.WaitGroup
			for i := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, err := c.Get(context.Background(), "k", gen)
					if err != nil {
						t.Errorf("Get: %v", err)
					}
					got[i] = v
				}()
			}
			waitFor(t, func() bool { st := c.Stats(); return st.Hits+st.Misses == callers })
			close(release)
			wg.Wait()
			if n := gens.Load(); n != 1 {
				t.Errorf("gen ran %d times, want 1", n)
			}
			for i, v := range got {
				if v != tc.val {
					t.Errorf("caller %d got %q, want %q", i, v, tc.val)
				}
			}
			if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Entries != tc.kept {
				t.Errorf("stats %+v, want 1 miss, %d hits, %d entries", st, callers-1, tc.kept)
			}
		})
	}
}

// TestFailedFlight: a failed or cancelled flight reports its error to the
// caller that ran it, leaves no entry, and the next live caller retries.
func TestFailedFlight(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		gen  func(context.Context, context.CancelFunc) (string, error)
		want error
	}{
		{"error", func(context.Context, context.CancelFunc) (string, error) { return "", boom }, boom},
		{"cancelled mid-flight", func(ctx context.Context, cancel context.CancelFunc) (string, error) {
			cancel()
			return "", ctx.Err()
		}, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string](10, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if _, err := c.Get(ctx, "k", func(ctx context.Context) (string, error) { return tc.gen(ctx, cancel) }); !errors.Is(err, tc.want) {
				t.Fatalf("failed flight returned %v, want %v", err, tc.want)
			}
			if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
				t.Fatalf("failed flight left %+v", st)
			}
			var n atomic.Int32
			if v, err := c.Get(context.Background(), "k", constGen("ok", &n)); err != nil || v != "ok" {
				t.Fatalf("retry = %q, %v", v, err)
			}
			if st := c.Stats(); st.Misses != 2 || st.Entries != 1 || n.Load() != 1 {
				t.Errorf("after retry: %+v (gen calls %d), want 2 misses, 1 entry", st, n.Load())
			}
		})
	}
}

// TestWaiterRetriesFailedFlight: a caller waiting on a flight that fails
// claims a fresh flight and succeeds.
func TestWaiterRetriesFailedFlight(t *testing.T) {
	c := New[string](10, nil)
	release := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), "k", func(context.Context) (string, error) {
			<-release
			return "", errors.New("first flight fails")
		})
		first <- err
	}()
	waitFor(t, func() bool { return c.Stats().Misses == 1 })
	second := make(chan string, 1)
	go func() {
		v, _ := c.Get(context.Background(), "k", func(context.Context) (string, error) { return "second", nil })
		second <- v
	}()
	waitFor(t, func() bool { return c.Stats().Hits == 1 })
	close(release)
	if err := <-first; err == nil {
		t.Fatal("failed flight returned no error")
	}
	if v := <-second; v != "second" {
		t.Fatalf("waiter got %q, want its own retry's value", v)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 2 misses, 1 hit, 1 entry", st)
	}
}

// TestCancellation: a caller whose ctx is already done never claims a
// flight, and a waiter whose ctx ends returns ctx.Err() while the flight
// it waited on completes for everyone else.
func TestCancellation(t *testing.T) {
	c := New[string](10, nil)
	var n atomic.Int32

	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(done, "k", constGen("v", &n)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Get returned %v", err)
	}
	if n.Load() != 0 || c.Stats().Misses != 0 {
		t.Fatal("pre-cancelled Get ran gen")
	}

	release := make(chan struct{})
	owner := make(chan string, 1)
	go func() {
		v, _ := c.Get(context.Background(), "k", func(context.Context) (string, error) {
			<-release
			return "v", nil
		})
		owner <- v
	}()
	waitFor(t, func() bool { return c.Stats().Misses == 1 })
	ctx, stop := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, "k", constGen("unused", &n))
		waiter <- err
	}()
	waitFor(t, func() bool { return c.Stats().Hits == 1 })
	stop()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	close(release)
	if v := <-owner; v != "v" {
		t.Fatalf("flight owner got %q", v)
	}
	if v, ok := c.Peek("k"); !ok || v != "v" || n.Load() != 0 {
		t.Errorf("flight not retained after waiter cancelled: %q %v (stray gens %d)", v, ok, n.Load())
	}
}

// TestPutDuringFlight: a Put that lands while a flight is in progress wins
// the slot; the flight's callers still get the generated value.
func TestPutDuringFlight(t *testing.T) {
	c := New[string](10, nil)
	release := make(chan struct{})
	owner := make(chan string, 1)
	go func() {
		v, _ := c.Get(context.Background(), "k", func(context.Context) (string, error) {
			<-release
			return "generated", nil
		})
		owner <- v
	}()
	waitFor(t, func() bool { return c.Stats().Misses == 1 })
	c.Put("k", "put")
	close(release)
	if v := <-owner; v != "generated" {
		t.Errorf("flight owner got %q, want generated", v)
	}
	if v, _ := c.Peek("k"); v != "put" || c.Len() != 1 {
		t.Errorf("retained %q (len %d), want the Put value alone", v, c.Len())
	}
}

// TestNilStats: a nil cache (a disabled one) reports zeros.
func TestNilStats(t *testing.T) {
	var c *Cache[int]
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
}

// TestConcurrentMixed hammers a small cache with overlapping Get/Put/Peek
// traffic so the race detector sees every path; the budget must hold.
func TestConcurrentMixed(t *testing.T) {
	c := New(8, byLen)
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				k := fmt.Sprint((i * (w + 1)) % 11)
				switch i % 3 {
				case 0:
					_, _ = c.Get(context.Background(), k, func(context.Context) (string, error) { return k + "v", nil })
				case 1:
					c.Put(k, k)
				default:
					c.Peek(k)
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 8 || st.Bytes < 0 {
		t.Errorf("retained %d bytes over budget 8", st.Bytes)
	}
}

// waitFor polls cond until it holds; the goroutines it waits on only need
// to reach a blocking point, so this is quick.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("condition never held")
}
