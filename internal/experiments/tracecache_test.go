package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/hier"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// digest flattens every architectural statistic of a finished run into one
// comparable string: all level counters and energies, DRAM traffic, MMU
// activity, timing, the NR histogram and the demand/metadata counters. Two
// runs with equal digests took the same decisions access by access.
func digest(sys *hier.System) string {
	var b strings.Builder
	level := func(name string, l *cache.Level) {
		st := &l.Stats
		fmt.Fprintf(&b, "%s a=%d h=%d m=%d f=%d by=%d mv=%d ev=%d wb=%d sub=%v apj=%v mpj=%v metapj=%v\n",
			name, st.Accesses.Value(), st.Hits.Value(), st.Misses.Value(), st.Fills.Value(),
			st.Bypasses.Value(), st.Movements.Value(), st.Evictions.Value(), st.Writebacks.Value(),
			st.HitsPerSublevel, st.AccessPJ.PJ(), st.MovementPJ.PJ(), st.MetadataPJ.PJ())
	}
	cfg := sys.Config()
	for c := 0; c < cfg.NumCores; c++ {
		level(fmt.Sprintf("l1[%d]", c), sys.L1(c))
		level(fmt.Sprintf("l2[%d]", c), sys.L2(c))
		if m := sys.MMU(c); m != nil { // only SLIP policies carry an MMU
			fmt.Fprintf(&b, "mmu[%d] th=%d tm=%d pf=%d pw=%d ts=%d tsa=%d rc=%d\n",
				c, m.Stats.TLBHits.Value(), m.Stats.TLBMisses.Value(),
				m.Stats.ProfileFetches.Value(), m.Stats.ProfileWrites.Value(),
				m.Stats.ToStable.Value(), m.Stats.ToSampling.Value(), m.Stats.PolicyRecomputs.Value())
		}
		fmt.Fprintf(&b, "core[%d] i=%d cyc=%v\n", c, sys.Instrs(c), sys.Cycles(c))
	}
	level("l3", sys.L3())
	d := sys.DRAM()
	fmt.Fprintf(&b, "dram r=%d w=%d mr=%d mw=%d pj=%v\n",
		d.Stats.Reads.Value(), d.Stats.Writes.Value(),
		d.Stats.MetadataReads.Value(), d.Stats.MetadataWrites.Value(), d.Stats.EnergyPJ.PJ())
	fmt.Fprintf(&b, "nr=%v l2d=%d l2ma=%d l2mm=%d l3d=%d l3ma=%d l3mm=%d eou=%v full=%v\n",
		sys.NRHist, sys.L2DemandMisses, sys.L2MetaAccesses, sys.L2MetaMisses,
		sys.L3DemandMisses, sys.L3MetaAccesses, sys.L3MetaMisses, sys.EOUPJ(), sys.FullSystemPJ())
	return b.String()
}

// identityOpts is the run sizing shared by the bit-identity tests: large
// enough for the sampling machinery and some TLB pressure, small enough to
// run every policy twice.
func identityOpts() Options {
	return Options{
		Accesses:   60_000,
		Warmup:     60_000,
		Seed:       7,
		Benchmarks: []string{"soplex"},
	}
}

// TestTraceCacheBitIdentity proves the tentpole's correctness claim: for
// the baseline and every evaluated policy, a run driven from the
// materialized replay buffer is bit-identical to one driven from the live
// generator.
func TestTraceCacheBitIdentity(t *testing.T) {
	for _, p := range append([]hier.PolicyKind{hier.Baseline}, evalPolicies...) {
		p := p
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			t.Parallel()
			offOpts := identityOpts()
			offOpts.TraceCacheBytes = -1
			off := NewSuite(offOpts)
			on := NewSuite(identityOpts())
			want := digest(off.Run("soplex", p))
			got := digest(on.Run("soplex", p))
			if got != want {
				t.Errorf("replayed run diverged from generated run:\n--- generated ---\n%s--- replayed ---\n%s", want, got)
			}
			if st := on.TraceCache().Stats(); st.Misses != 1 {
				t.Errorf("cache-on run recorded %d traces, want 1", st.Misses)
			}
		})
	}
}

// TestTraceCacheBitIdentityMix extends the identity proof to the
// multiprogrammed path: two cores, two distinct per-core streams, one
// shared L3 under SLIP+ABP.
func TestTraceCacheBitIdentityMix(t *testing.T) {
	mix := workloads.Mix{A: "soplex", B: "mcf"}
	offOpts := identityOpts()
	offOpts.TraceCacheBytes = -1
	off := NewSuite(offOpts)
	on := NewSuite(identityOpts())
	want := digest(off.RunMix(mix, hier.SLIPABP))
	got := digest(on.RunMix(mix, hier.SLIPABP))
	if got != want {
		t.Errorf("replayed mix run diverged from generated run:\n--- generated ---\n%s--- replayed ---\n%s", want, got)
	}
}

// TestTraceCacheSharedAcrossPolicies checks the cache does what it is for:
// one generation serves the whole policy column of a benchmark.
func TestTraceCacheSharedAcrossPolicies(t *testing.T) {
	s := NewSuite(identityOpts())
	for _, p := range append([]hier.PolicyKind{hier.Baseline}, evalPolicies...) {
		s.Run("soplex", p)
	}
	st := s.TraceCache().Stats()
	if st.Misses != 1 {
		t.Errorf("5 policies recorded %d traces, want 1", st.Misses)
	}
	if st.Hits != 4 {
		t.Errorf("5 policies hit the cache %d times, want 4", st.Hits)
	}
	if st.Bytes <= 0 || st.Entries != 1 {
		t.Errorf("retained %d bytes in %d entries, want one non-empty trace", st.Bytes, st.Entries)
	}
}

// TestTraceCacheBudgetUnderConcurrentPrefetch bounds the cache under the
// worst case: a parallel Prefetch over more workloads than the byte budget
// can retain. The budget must hold at every instant eviction can be
// observed, and the LRU must have evicted rather than refused.
func TestTraceCacheBudgetUnderConcurrentPrefetch(t *testing.T) {
	benches := []string{"soplex", "milc", "sphinx3", "mcf"}
	const accesses, warmup = 40_000, 40_000

	// Size the budget off the real traces: room for the largest plus half,
	// so retaining all four is impossible but any single one fits.
	var maxSize int64
	for _, name := range benches {
		wl, _ := workloads.ByName(name)
		if sz := int64(trace.Record(wl.Build(7), accesses+warmup).Size()); sz > maxSize {
			maxSize = sz
		}
	}
	budget := maxSize * 3 / 2

	s := NewSuite(Options{
		Accesses:        accesses,
		Warmup:          warmup,
		WarmupSet:       true,
		Seed:            7,
		Benchmarks:      benches,
		Parallelism:     4,
		TraceCacheBytes: budget,
	})
	s.RunAll(hier.Baseline, hier.SLIPABP)

	st := s.TraceCache().Stats()
	if st.Bytes > budget {
		t.Errorf("retained %d bytes, budget %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions with %d workloads over a %d-byte budget (max trace %d)",
			len(benches), budget, maxSize)
	}
	if st.Misses < uint64(len(benches)) {
		t.Errorf("%d misses, want at least one per workload (%d)", st.Misses, len(benches))
	}
}

// TestTraceCacheSingleflight checks generation dedup: concurrent Gets for
// one key run gen exactly once and all observe the same buffer.
func TestTraceCacheSingleflight(t *testing.T) {
	tc := NewTraceCache(0)
	var gens atomic.Uint64
	gen := func(context.Context) (*trace.Buffer, error) {
		gens.Add(1)
		wl, _ := workloads.ByName("soplex")
		return trace.Record(wl.Build(3), 10_000), nil
	}

	const callers = 16
	bufs := make([]*trace.Buffer, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := tc.Get(context.Background(), "t1:soplex:3:10000", gen)
			if err != nil {
				t.Errorf("caller %d: Get: %v", i, err)
			}
			bufs[i] = b
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if n := gens.Load(); n != 1 {
		t.Errorf("gen ran %d times, want 1", n)
	}
	for i, b := range bufs {
		if b != bufs[0] {
			t.Errorf("caller %d got a different buffer", i)
		}
		if b.Len() != 10_000 {
			t.Errorf("caller %d: buffer holds %d accesses, want 10000", i, b.Len())
		}
	}
	st := tc.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats hits=%d misses=%d, want hits=%d misses=1", st.Hits, st.Misses, callers-1)
	}
}

// TestTraceCacheSkipsUnretainableStreams checks the suite never
// materializes a stream that could not be retained (2 bytes/access lower
// bound over the budget): the run still completes, off the live generator,
// without touching the cache.
func TestTraceCacheSkipsUnretainableStreams(t *testing.T) {
	opts := identityOpts()
	opts.TraceCacheBytes = 4 << 10 // far below 2 bytes x 120k accesses
	s := NewSuite(opts)
	sys := s.Run("soplex", hier.SLIPABP)
	if sys.TotalInstrs() == 0 {
		t.Fatal("run produced no instructions")
	}
	if st := s.TraceCache().Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("unretainable stream touched the cache: %+v", st)
	}
}

// TestTraceCacheOversizeNotRetained checks a trace larger than the whole
// budget is still handed to its caller but never pinned in the cache.
func TestTraceCacheOversizeNotRetained(t *testing.T) {
	tc := NewTraceCache(1) // one byte: nothing real fits
	wl, _ := workloads.ByName("milc")
	buf, err := tc.Get(context.Background(), "t1:milc:7:5000", func(context.Context) (*trace.Buffer, error) {
		return trace.Record(wl.Build(7), 5000), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 5000 {
		t.Fatalf("oversize buffer not returned: %d accesses", buf.Len())
	}
	st := tc.Stats()
	if st.Bytes != 0 || st.Entries != 0 {
		t.Errorf("oversize trace retained: %d bytes, %d entries", st.Bytes, st.Entries)
	}
}
