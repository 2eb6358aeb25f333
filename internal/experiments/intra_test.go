package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/hier"
	"repro/internal/spec"
)

// TestIntraParallelismBitIdentity proves the engine-level contract of the
// intra-run sharded executor: a suite running with IntraParallelism > 1
// produces systems bit-identical to a suite forced sequential, across the
// warm-cache path (snapshot built sharded, measured window sharded) and
// the straight-through path, for single-core and mix specs.
func TestIntraParallelismBitIdentity(t *testing.T) {
	specs := []RunSpec{
		spec.Single("soplex", hier.SLIPABP),
		spec.Single("mcf", hier.LRUPEA),
		spec.ForMix("soplex", "mcf", hier.SLIPABP),
	}
	for wi, warmCache := range []int64{-1, 0} {
		wi := wi
		warmCache := warmCache
		t.Run(fmt.Sprintf("warmcache=%d", warmCache), func(t *testing.T) {
			t.Parallel()
			mk := func(intra int) *Suite {
				o := identityOpts()
				o.Benchmarks = nil // mixes need the full workload set
				o.IntraParallelism = intra
				o.WarmCacheBytes = warmCache
				return NewSuite(o)
			}
			seq, shd := mk(1), mk(4)
			for si, sp := range specs {
				want := digest(seq.RunS(sp))
				got := digest(shd.RunS(sp))
				if got != want {
					t.Errorf("case %d/%d: sharded suite run diverged from sequential:\n--- want ---\n%s--- got ---\n%s",
						wi, si, want, got)
				}
			}
		})
	}
}

// TestIntraParallelismSampledIdentity extends the identity to the
// set-sampled fast path composed with sharding at the suite level.
func TestIntraParallelismSampledIdentity(t *testing.T) {
	mk := func(intra int) *Suite {
		o := identityOpts()
		o.Sampling = 4
		o.IntraParallelism = intra
		return NewSuite(o)
	}
	sp := spec.Single("soplex", hier.SLIPABP)
	want := mk(1).RunS(sp)
	got := mk(8).RunS(sp)
	if digest(got) != digest(want) {
		t.Error("sharded sampled suite run diverged from sequential")
	}
	if got.SampledAccesses != want.SampledAccesses || got.SkippedAccesses != want.SkippedAccesses {
		t.Errorf("sampling counters diverged: %d/%d vs %d/%d",
			got.SampledAccesses, got.SkippedAccesses, want.SampledAccesses, want.SkippedAccesses)
	}
}

// TestIntraParallelismDefault pins the normalization rule: unset intra
// parallelism resolves to min(GOMAXPROCS, 8) and never touches the memo
// key (the same spec hashes identically whatever the shard setting).
func TestIntraParallelismDefault(t *testing.T) {
	s := NewSuite(Options{})
	want := runtime.GOMAXPROCS(0)
	if want > 8 {
		want = 8
	}
	if got := s.Options().IntraParallelism; got != want {
		t.Errorf("default IntraParallelism = %d, want %d", got, want)
	}
	a := NewSuite(Options{IntraParallelism: 1})
	b := NewSuite(Options{IntraParallelism: 8})
	sp := spec.Single("soplex", hier.SLIPABP)
	if a.KeyFor(sp) != b.KeyFor(sp) {
		t.Error("IntraParallelism leaked into the spec hash / memo key")
	}
}

// TestShardScheduler exercises the pool-aware scheduling rule directly:
// a saturated pool forces sequential runs, a drained pool frees intra-run
// width.
func TestShardScheduler(t *testing.T) {
	o := identityOpts()
	o.Parallelism = 4
	o.IntraParallelism = 8
	s := NewSuite(o)
	if got := s.shardsFor(); got != 8 {
		t.Errorf("idle suite shardsFor = %d, want 8", got)
	}
	s.pending.Store(4) // pool exactly saturated
	if got := s.shardsFor(); got != 1 {
		t.Errorf("saturated suite shardsFor = %d, want 1", got)
	}
	s.pending.Store(3) // tail narrower than the pool
	if got := s.shardsFor(); got != 8 {
		t.Errorf("tail suite shardsFor = %d, want 8", got)
	}
	s.pending.Store(0)
	if got := s.shardsFor(); got != 8 {
		t.Errorf("drained suite shardsFor = %d, want 8", got)
	}
}
