package hier

import (
	"context"
	"errors"
	"testing"

	"repro/internal/trace"
)

// TestRunContextMatchesRun: the cancellation hook must not perturb the
// simulation — an uncancelled RunShardedContext at width 1 is
// bit-identical to Run.
func TestRunContextMatchesRun(t *testing.T) {
	const n = 150_000
	plain := New(Config{Policy: SLIPABP, Seed: 3})
	plain.Run(trace.Limit(mixedSource(3), n))

	hooked := New(Config{Policy: SLIPABP, Seed: 3})
	var reported uint64
	err := hooked.RunShardedContext(context.Background(), 1,
		func(done uint64) { reported = done },
		trace.Limit(mixedSource(3), n))
	if err != nil {
		t.Fatalf("RunShardedContext: %v", err)
	}
	if reported != n {
		t.Errorf("final progress %d, want %d", reported, n)
	}
	if a, b := plain.FullSystemPJ(), hooked.FullSystemPJ(); a != b {
		t.Errorf("energy %v (Run) != %v (RunShardedContext)", a, b)
	}
	if a, b := plain.DRAMTraffic(), hooked.DRAMTraffic(); a != b {
		t.Errorf("DRAM traffic %d != %d", a, b)
	}
	if a, b := plain.MaxCycles(), hooked.MaxCycles(); a != b {
		t.Errorf("cycles %v != %v", a, b)
	}
}

// TestRunContextCancelStopsMidTrace: cancelling from the progress hook
// must abort a sequential run within one check stride, with the partial
// state applied to the receiver.
func TestRunContextCancelStopsMidTrace(t *testing.T) {
	const n = 2_000_000
	ctx, cancel := context.WithCancel(context.Background())
	s := New(Config{Policy: Baseline, Seed: 3})
	err := s.RunShardedContext(ctx, 1,
		func(done uint64) { cancel() },
		trace.Limit(mixedSource(3), n))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunShardedContext = %v, want context.Canceled", err)
	}
	acc := s.L1(0).Stats.Accesses.Value()
	if acc == 0 {
		t.Error("no accesses simulated before cancellation")
	}
	if acc > 2*cancelCheckEvery {
		t.Errorf("ran %d accesses after cancel, want <= %d (one check stride)", acc, 2*cancelCheckEvery)
	}
}
