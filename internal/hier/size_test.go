package hier

import (
	"runtime"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestSizeBytesBoundsSnapshotAllocation pins the byte estimate the warm
// cache charges against what taking a snapshot really allocates: never
// less (the cache budget would be overrun), and at most 1.5x (the budget
// would be wasted). Not parallel: TotalAlloc is process-wide.
func TestSizeBytesBoundsSnapshotAllocation(t *testing.T) {
	wl, _ := workloads.ByName("soplex")
	for _, p := range []PolicyKind{Baseline, SLIPABP} {
		sys := New(Config{Policy: p, Seed: 7})
		sys.Run(trace.Limit(wl.Build(7), 2_000_000))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		snap := sys.Snapshot()
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		est := uint64(snap.SizeBytes())
		t.Logf("%s: allocated %d B, SizeBytes %d B (%.3fx)", p, alloc, est, float64(est)/float64(alloc))
		if est < alloc || float64(est) > 1.5*float64(alloc) {
			t.Errorf("%s: SizeBytes %d outside [allocated %d, 1.5x allocated]", p, est, alloc)
		}
	}
}
