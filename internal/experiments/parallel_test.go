package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/hier"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// detOptions sizes the determinism comparison: small enough to run twice
// under -race, large enough that the sampling machinery classifies pages
// (so policy decisions, not just cold misses, feed the compared numbers).
func detOptions(parallelism int) Options {
	return Options{
		Accesses:    60_000,
		Warmup:      120_000,
		Seed:        7,
		Benchmarks:  []string{"soplex", "milc", "sphinx3"},
		Parallelism: parallelism,
	}
}

// TestParallelRunAllMatchesSequential is the determinism guarantee: fanning
// the benchmark x policy matrix over a worker pool must produce numerically
// identical systems to running the same matrix one at a time. Exact float
// equality is intentional — each simulation is single-goroutine and seeded,
// so parallelism may not perturb a single bit.
func TestParallelRunAllMatchesSequential(t *testing.T) {
	pols := []hier.PolicyKind{hier.Baseline, hier.SLIPABP}

	seq := NewSuite(detOptions(1))
	par := NewSuite(detOptions(8))
	got := par.RunAll(pols...)

	for _, wl := range seq.Options().Benchmarks {
		for _, p := range pols {
			want := seq.Run(wl, p)
			sys := got[wl][p]
			if sys == nil {
				t.Fatalf("%s/%v: missing parallel run", wl, p)
			}
			if a, b := want.FullSystemPJ(), sys.FullSystemPJ(); a != b {
				t.Errorf("%s/%v: full-system energy %v (sequential) != %v (parallel)", wl, p, a, b)
			}
			if a, b := want.L2TotalPJ(), sys.L2TotalPJ(); a != b {
				t.Errorf("%s/%v: L2 energy %v != %v", wl, p, a, b)
			}
			if a, b := want.L3TotalPJ(), sys.L3TotalPJ(); a != b {
				t.Errorf("%s/%v: L3 energy %v != %v", wl, p, a, b)
			}
			wl2, sl2 := want.L2(0).Stats, sys.L2(0).Stats
			if wl2.Hits.Value() != sl2.Hits.Value() || wl2.Accesses.Value() != sl2.Accesses.Value() {
				t.Errorf("%s/%v: L2 hits/accesses %d/%d != %d/%d", wl, p,
					wl2.Hits.Value(), wl2.Accesses.Value(), sl2.Hits.Value(), sl2.Accesses.Value())
			}
			if a, b := want.DRAMTraffic(), sys.DRAMTraffic(); a != b {
				t.Errorf("%s/%v: DRAM traffic %d != %d", wl, p, a, b)
			}
			if a, b := want.MaxCycles(), sys.MaxCycles(); a != b {
				t.Errorf("%s/%v: cycles %v != %v", wl, p, a, b)
			}
		}
	}
}

// TestSingleflightCollapsesConcurrentRuns hammers one memo key from many
// goroutines; every caller must get the same simulated system back.
func TestSingleflightCollapsesConcurrentRuns(t *testing.T) {
	s := NewSuite(Options{
		Accesses: 20_000, Warmup: 20_000, Seed: 7,
		Benchmarks: []string{"milc"}, Parallelism: 4,
	})
	const callers = 8
	results := make([]*hier.System, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Run("milc", hier.Baseline)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different system: duplicate simulation ran", i)
		}
	}
	if n := s.runs.Len(); n != 1 {
		t.Errorf("expected one memo entry, got %d", n)
	}
}

// TestPrefetchCoversFigureRuns checks SpecsFor stays in sync with what a
// figure actually consumes: after prefetching, producing the figure must
// not simulate anything new.
func TestPrefetchCoversFigureRuns(t *testing.T) {
	s := NewSuite(Options{
		Accesses: 20_000, Warmup: 20_000, Seed: 7,
		Benchmarks: []string{"milc", "sphinx3"}, Parallelism: 4,
	})
	s.Prefetch(s.SpecsForAll([]string{"fig10", "fig14"}))
	before := s.runs.Len()
	s.Fig10()
	s.Fig14()
	if after := s.runs.Len(); after != before {
		t.Errorf("figures simulated %d extra runs after prefetch (%d -> %d): SpecsFor is stale",
			after-before, before, after)
	}
}

// TestRunMixKeyDistinct guards the memo-key invariant: a mix run must be
// memoized once, under a spec hash that can never collide with the
// single-core runs of either component workload.
func TestRunMixKeyDistinct(t *testing.T) {
	s := NewSuite(Options{
		Accesses: 5_000, Warmup: 0, WarmupSet: true, Seed: 7,
	})
	m := workloads.Mix{A: "milc", B: "sphinx3"}
	a := s.RunMix(m, hier.Baseline)
	if b := s.RunMix(m, hier.Baseline); a != b {
		t.Error("identical mix runs not memoized")
	}
	key := s.KeyFor(spec.ForMix(m.A, m.B, hier.Baseline))
	if _, ok := s.runs.Peek(key); s.runs.Len() != 1 || !ok || !strings.HasPrefix(key, "s1:") {
		t.Errorf("mix memo holds %d runs, want one under spec-hash key %q", s.runs.Len(), key)
	}
	for _, wl := range []string{"milc", "sphinx3"} {
		if k := s.KeyFor(spec.Single(wl, hier.Baseline)); k == key {
			t.Errorf("mix key collides with single-core %s key %q", wl, k)
		}
	}
}

// TestPanicListsValidWorkloads checks the misuse panic is self-diagnosing.
func TestPanicListsValidWorkloads(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic for unknown workload", name)
				return
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "nonesuch") || !strings.Contains(msg, "soplex") {
				t.Errorf("%s: panic %q does not name the bad workload and the valid set", name, r)
			}
		}()
		f()
	}
	s := smallSuite()
	check("Run", func() { s.Run("nonesuch", hier.Baseline) })
	check("RunMix", func() { s.RunMix(workloads.Mix{A: "milc", B: "nonesuch"}, hier.Baseline) })
	check("Prefetch", func() { s.Prefetch([]RunSpec{spec.Single("nonesuch", hier.Baseline)}) })
}
