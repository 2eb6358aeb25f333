package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/hier"
	"repro/internal/spec"
)

// forceWidth points simulate's width seam at f for the rest of the test.
// Callers must not be parallel: the seam is package state.
func forceWidth(t *testing.T, f func(sampling int, accesses uint64, shardable bool, demand, procs int) int) {
	t.Cleanup(func() { phaseWidth = shardWidth })
	phaseWidth = f
}

// TestShardWidth pins the one rule choosing a run phase's shard count.
func TestShardWidth(t *testing.T) {
	const big = 2 * minShardAccesses
	cases := []struct {
		name      string
		sampling  int
		accesses  uint64
		shardable bool
		demand    int
		procs     int
		want      int
	}{
		{"sampled", 8, big, true, 1, 8, 1},
		{"below the floor", 1, minShardAccesses - 1, true, 1, 8, 1},
		{"at the floor", 1, minShardAccesses, true, 1, 2, 2},
		{"unshardable", 1, big, false, 1, 8, 1},
		{"demand equals procs", 1, big, true, 2, 2, 1},
		{"demand above procs", 1, big, true, 70, 2, 1},
		{"alone on 2 CPUs", 1, big, true, 1, 2, 2},
		{"alone on 8 CPUs", 1, big, true, 1, 8, 8},
		{"alone on 64 CPUs", 0, big, true, 1, 64, maxShardWidth},
		{"demand 2 of 8", 1, big, true, 2, 8, 4},
		{"demand 3 of 8", 1, big, true, 3, 8, 2},
	}
	for _, c := range cases {
		if got := shardWidth(c.sampling, c.accesses, c.shardable, c.demand, c.procs); got != c.want {
			t.Errorf("%s: shardWidth(%d, %d, %v, %d, %d) = %d, want %d",
				c.name, c.sampling, c.accesses, c.shardable, c.demand, c.procs, got, c.want)
		}
	}
}

// TestShardScheduler drives the rule through the live demand counter: a
// run starting while the pool is saturated stays sequential, one starting
// in a tail narrower than the CPUs takes its share of them, and one
// starting alone takes the full width.
func TestShardScheduler(t *testing.T) {
	const procs = 8
	t.Cleanup(func() { runDemand.Store(0) })
	var demand int
	forceWidth(t, func(_ int, _ uint64, _ bool, d, _ int) int {
		demand = d
		return 1
	})
	o := identityOpts()
	o.Accesses, o.Warmup = 5_000, 0
	for _, c := range []struct {
		name   string
		queued int64
		want   int
	}{
		{"saturated", procs - 1, 1},
		{"tail", 2, 2},
		{"alone", 0, procs},
	} {
		runDemand.Store(c.queued)
		NewSuite(o).RunS(spec.Single("soplex", hier.SLIPABP))
		if want := int(c.queued) + 1; demand != want {
			t.Errorf("%s: run saw demand %d, want %d (queued plus itself)", c.name, demand, want)
		}
		if got := shardWidth(1, minShardAccesses, true, demand, procs); got != c.want {
			t.Errorf("%s: width %d at demand %d of %d CPUs, want %d", c.name, got, demand, procs, c.want)
		}
		if d := runDemand.Load(); d != c.queued {
			t.Errorf("%s: demand after the run = %d, want %d", c.name, d, c.queued)
		}
	}
}

// TestIntraParallelismDefault pins the default: a lone, unsampled run at
// the floor on a shardable geometry resolves to min(GOMAXPROCS, 8), and the
// width never touches the memo key (a run memoized at width 4 is served
// again without consulting the rule).
func TestIntraParallelismDefault(t *testing.T) {
	want := min(runtime.GOMAXPROCS(0), 8)
	if got := shardWidth(0, minShardAccesses, true, 1, runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("default width of a lone run = %d, want %d", got, want)
	}
	o := identityOpts()
	o.Accesses, o.Warmup = 5_000, 0
	s := NewSuite(o)
	sp := spec.Single("soplex", hier.SLIPABP)
	key := s.KeyFor(sp)
	forceWidth(t, func(int, uint64, bool, int, int) int { return 4 })
	first := s.RunS(sp)
	forceWidth(t, func(int, uint64, bool, int, int) int {
		t.Error("memoized run consulted the width rule again")
		return 1
	})
	if again := s.RunS(sp); again != first {
		t.Error("changing the width missed the memo")
	}
	if s.KeyFor(sp) != key {
		t.Error("the width leaked into the spec hash / memo key")
	}
}

// TestPrefetchFirstRunSeesQueue: a pool's first run must count every spec
// of its batch as demand, so a wide matrix starts sequential instead of
// sharding its first runs over CPUs the rest of the queue needs.
func TestPrefetchFirstRunSeesQueue(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	forceWidth(t, func(_ int, _ uint64, _ bool, demand, _ int) int {
		mu.Lock()
		seen = append(seen, demand)
		mu.Unlock()
		return 1
	})
	o := identityOpts()
	o.Accesses, o.Warmup = 5_000, 5_000
	o.Parallelism = 1
	s := NewSuite(o)
	specs := []RunSpec{
		spec.Single("soplex", hier.Baseline),
		spec.Single("soplex", hier.SLIP),
		spec.Single("soplex", hier.SLIPABP),
	}
	s.Prefetch(specs)
	if len(seen) == 0 {
		t.Fatal("no run phase consulted the width rule")
	}
	if seen[0] != len(specs) {
		t.Errorf("first run saw demand %d, want %d (the whole batch)", seen[0], len(specs))
	}
	if last := seen[len(seen)-1]; last != 1 {
		t.Errorf("last run saw demand %d, want 1 (alone)", last)
	}
	if d := runDemand.Load(); d != 0 {
		t.Errorf("demand after Prefetch = %d, want 0", d)
	}
}

// TestIntraParallelismBitIdentity proves the engine-level contract of the
// intra-run sharded executor: runs forced to width 4 produce systems
// bit-identical to runs forced sequential, across the warm-cache path
// (snapshot built sharded, measured window sharded) and the
// straight-through path, for single-core and mix specs. Each sharded
// system's recorded width must be 4, so the test cannot pass without
// sharding.
func TestIntraParallelismBitIdentity(t *testing.T) {
	specs := []RunSpec{
		spec.Single("soplex", hier.SLIPABP),
		spec.Single("mcf", hier.LRUPEA),
		spec.ForMix("soplex", "mcf", hier.SLIPABP),
	}
	for wi, warmCache := range []int64{-1, 0} {
		t.Run(fmt.Sprintf("warmcache=%d", warmCache), func(t *testing.T) {
			run := func(width int, sp RunSpec) *hier.System {
				forceWidth(t, func(int, uint64, bool, int, int) int { return width })
				o := identityOpts()
				o.Benchmarks = nil // mixes need the full workload set
				o.WarmCacheBytes = warmCache
				return NewSuite(o).RunS(sp)
			}
			for si, sp := range specs {
				want := digest(run(1, sp))
				sys := run(4, sp)
				if w := sys.ShardWidth(); w != 4 {
					t.Errorf("case %d/%d: measured window ran at width %d, want 4", wi, si, w)
				}
				if got := digest(sys); got != want {
					t.Errorf("case %d/%d: sharded suite run diverged from sequential:\n--- want ---\n%s--- got ---\n%s",
						wi, si, want, got)
				}
			}
		})
	}
}
