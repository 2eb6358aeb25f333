package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/hier"
	"repro/internal/spec"
)

// TestPrefetchContextCancelledUpFront: an already-dead context must stop
// queued work before any simulation starts.
func TestPrefetchContextCancelledUpFront(t *testing.T) {
	s := NewSuite(Options{
		Accesses: 20_000, Warmup: 0, WarmupSet: true, Seed: 7,
		Benchmarks: []string{"milc", "sphinx3"}, Parallelism: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.PrefetchContext(ctx, []RunSpec{
		spec.Single("milc", hier.Baseline),
		spec.Single("sphinx3", hier.Baseline),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PrefetchContext on cancelled ctx = %v, want context.Canceled", err)
	}
	if n := s.runs.Len(); n != 0 {
		t.Errorf("cancelled prefetch memoized %d runs, want nothing", n)
	}
}

// TestCancelMidRunDoesNotPoisonCache cancels deterministically from the
// first progress callback (a few thousand accesses in), then retries the
// same key with a live context: the retry must simulate cleanly and match
// an untouched reference suite bit for bit.
func TestCancelMidRunDoesNotPoisonCache(t *testing.T) {
	opts := Options{
		Accesses: 200_000, Warmup: 0, WarmupSet: true, Seed: 7,
		Benchmarks: []string{"milc"}, Parallelism: 1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	withHook := opts
	withHook.Progress = func(string, uint64) { once.Do(cancel) }
	s := NewSuite(withHook)
	sp := spec.Single("milc", hier.Baseline)

	if _, err := s.RunSpecContext(ctx, sp); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	if n := s.runs.Len(); n != 0 {
		t.Fatalf("cancelled run memoized %d runs, want nothing", n)
	}

	sys, err := s.RunSpecContext(context.Background(), sp)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	ref := NewSuite(opts).Run("milc", hier.Baseline)
	if a, b := ref.FullSystemPJ(), sys.FullSystemPJ(); a != b {
		t.Errorf("post-cancel retry energy %v != reference %v: cancelled state leaked into retry", b, a)
	}
	if a, b := ref.DRAMTraffic(), sys.DRAMTraffic(); a != b {
		t.Errorf("post-cancel retry DRAM traffic %d != reference %d", b, a)
	}
}

// TestRunAllContextCancelPropagates: RunAllContext must surface the
// cancellation instead of returning a partial matrix.
func TestRunAllContextCancelPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	s := NewSuite(Options{
		Accesses: 500_000, Warmup: 0, WarmupSet: true, Seed: 7,
		Benchmarks: []string{"milc", "sphinx3", "soplex"}, Parallelism: 2,
		Progress: func(string, uint64) { once.Do(cancel) },
	})
	out, err := s.RunAllContext(ctx, hier.Baseline, hier.SLIPABP)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAllContext = (%v, %v), want context.Canceled", out, err)
	}
	if out != nil {
		t.Error("cancelled RunAllContext returned a partial matrix")
	}
}

// TestProgressReportsMonotonicCumulativeAccesses: the hook must see the
// run's memo key and a non-decreasing access count reaching at least the
// measured trace length (warmup included).
func TestProgressReportsMonotonicCumulativeAccesses(t *testing.T) {
	var mu sync.Mutex
	var last uint64
	var calls int
	var wantKey string
	s := NewSuite(Options{
		Accesses: 30_000, Warmup: 10_000, Seed: 7,
		Benchmarks: []string{"milc"}, Parallelism: 1,
		Progress: func(key string, done uint64) {
			mu.Lock()
			defer mu.Unlock()
			if key != wantKey {
				t.Errorf("progress key %q, want %q", key, wantKey)
			}
			if done < last {
				t.Errorf("progress went backwards: %d after %d", done, last)
			}
			last = done
			calls++
		},
	})
	wantKey = s.KeyFor(spec.Single("milc", hier.Baseline))
	s.Run("milc", hier.Baseline)
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("progress hook never fired")
	}
	if want := uint64(40_000); last < want {
		t.Errorf("final progress %d, want >= %d (warmup + measured)", last, want)
	}
}
