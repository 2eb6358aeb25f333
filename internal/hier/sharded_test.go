package hier

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// TestShardedBitIdentity is the tentpole's correctness proof: for every
// registered policy and several shard counts, an intra-run sharded
// execution must be bit-identical — full state digest, every counter,
// every energy, every resident line — to the sequential run, under both
// warmup splits (sequential warm + sharded measure, and sharded warm +
// sharded measure).
func TestShardedBitIdentity(t *testing.T) {
	const warm, measured = 120_000, 120_000
	for _, p := range allPolicies {
		for _, shards := range []int{2, 4} {
			p, shards := p, shards
			t.Run(fmt.Sprintf("%s/S=%d", p, shards), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Policy: p, Seed: 7}

				ref := New(cfg)
				src := mixedSource(3)
				ref.Run(trace.Limit(src, warm))
				ref.ResetStats()
				ref.Run(trace.Limit(src, measured))
				want := stateDigest(ref)

				// Sharded warmup and sharded measured window.
				sh := New(cfg)
				ssrc := mixedSource(3)
				sh.RunSharded(shards, trace.Limit(ssrc, warm))
				sh.ResetStats()
				sh.RunSharded(shards, trace.Limit(ssrc, measured))
				if got := stateDigest(sh); got != want {
					t.Errorf("sharded warm+measure diverged from sequential:\n--- want ---\n%s--- got ---\n%s", want, got)
				}

				// Sequential warmup, sharded measured window — the split the
				// experiment engine's warm-snapshot path produces.
				split := New(cfg)
				msrc := mixedSource(3)
				split.Run(trace.Limit(msrc, warm))
				split.ResetStats()
				split.RunSharded(shards, trace.Limit(msrc, measured))
				if got := stateDigest(split); got != want {
					t.Errorf("sequential-warm + sharded-measure diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
				}
			})
		}
	}
}

// TestShardedBitIdentityMix extends the identity proof to the
// multiprogrammed path (two cores, distinct streams, shared L3) and to the
// extremes of the shard range, including S past the group count (clamped)
// and S = 64 where every replica owns exactly one group... per 64/S.
func TestShardedBitIdentityMix(t *testing.T) {
	const warm, measured = 120_000, 120_000
	cfg := Config{Policy: SLIPABP, NumCores: 2, Seed: 11}
	srcs := func() [2]trace.Source {
		return [2]trace.Source{mixedSource(5), streamSource(9)}
	}

	ref := New(cfg)
	s := srcs()
	ref.Run(trace.Limit(s[0], warm), trace.Limit(s[1], warm))
	ref.ResetStats()
	ref.Run(trace.Limit(s[0], measured), trace.Limit(s[1], measured))
	want := stateDigest(ref)

	for _, shards := range []int{2, 3, 8, 64, 100} {
		shards := shards
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			sh := New(cfg)
			w := srcs()
			sh.RunSharded(shards, trace.Limit(w[0], warm), trace.Limit(w[1], warm))
			sh.ResetStats()
			sh.RunSharded(shards, trace.Limit(w[0], measured), trace.Limit(w[1], measured))
			if got := stateDigest(sh); got != want {
				t.Errorf("2-core sharded run diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}

// TestShardedSamplingComposition proves sharding composes with the
// set-sampled fast path: for every sampling factor and shard count the
// sharded sampled run is bit-identical to the sequential sampled run, and
// the Scaled* extrapolations agree exactly.
func TestShardedSamplingComposition(t *testing.T) {
	const n = 200_000
	for _, k := range []int{1, 2, 4, 8, 16} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Policy: SLIPABP, Seed: 7}
			if k > 1 {
				cfg.SampleK = k
				cfg.SampleMask = sampleMaskLow(k)
			}
			ref := New(cfg)
			ref.Run(trace.Limit(mixedSource(3), n))
			want := stateDigest(ref)

			for _, shards := range []int{2, 4, 8} {
				sh := New(cfg)
				sh.RunSharded(shards, trace.Limit(mixedSource(3), n))
				if got := stateDigest(sh); got != want {
					t.Errorf("S=%d diverged under sampling K=%d:\n--- want ---\n%s--- got ---\n%s",
						shards, k, want, got)
				}
				if got, want := sh.ScaledFullSystemPJ(), ref.ScaledFullSystemPJ(); got != want {
					t.Errorf("S=%d ScaledFullSystemPJ = %v, want %v", shards, got, want)
				}
				if got, want := sh.ScaledMaxCycles(), ref.ScaledMaxCycles(); got != want {
					t.Errorf("S=%d ScaledMaxCycles = %v, want %v", shards, got, want)
				}
				if got, want := sh.ScaledL3Misses(true), ref.ScaledL3Misses(true); got != want {
					t.Errorf("S=%d ScaledL3Misses = %d, want %d", shards, got, want)
				}
				if sh.SampledAccesses != ref.SampledAccesses || sh.SkippedAccesses != ref.SkippedAccesses {
					t.Errorf("S=%d sampled/skipped = %d/%d, want %d/%d", shards,
						sh.SampledAccesses, sh.SkippedAccesses, ref.SampledAccesses, ref.SkippedAccesses)
				}
			}
		})
	}
}

// TestShardedConfigSweep fuzzes the identity over a corpus of
// configuration corners — multi-core, RRIP replacement, sampling disabled,
// narrow bins, different seeds — times shard counts, with a warmup split
// in each run. A cheap short run per cell keeps the sweep broad.
func TestShardedConfigSweep(t *testing.T) {
	const warm, measured = 40_000, 40_000
	cfgs := []Config{
		{Policy: SLIP, Seed: 1},
		{Policy: SLIPABP, Seed: 2, UseRRIP: true},
		{Policy: SLIPABP, Seed: 3, DisableSampling: true},
		{Policy: SLIPABP, Seed: 4, BinBits: 3},
		{Policy: SLIPABP, Seed: 5, NumCores: 2},
		{Policy: NuRAPID, Seed: 6, NumCores: 2},
		{Policy: LRUPEA, Seed: 7, UseRRIP: true},
		{Policy: LWRP, Seed: 8},
		{Policy: ReuseBypass, Seed: 9, NumCores: 2},
		{Policy: Baseline, Seed: 10, SampleK: 4, SampleMask: sampleMaskLow(4)},
		{Policy: SLIPABP, Seed: 11, SampleK: 8, SampleMask: sampleMaskLow(8)},
	}
	for ci, cfg := range cfgs {
		ci, cfg := ci, cfg
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			t.Parallel()
			cores := cfg.NumCores
			if cores == 0 {
				cores = 1
			}
			srcs := func() []trace.Source {
				out := make([]trace.Source, cores)
				for c := range out {
					out[c] = trace.Limit(mixedSource(uint64(ci)*13+uint64(c)), warm+measured)
				}
				return out
			}
			ref := New(cfg)
			refSrcs := srcs()
			warmLim := make([]trace.Source, cores)
			for c := range warmLim {
				warmLim[c] = trace.Limit(refSrcs[c], warm)
			}
			ref.Run(warmLim...)
			ref.ResetStats()
			ref.Run(refSrcs...)
			want := stateDigest(ref)

			for _, shards := range []int{2, 5, 8} {
				sh := New(cfg)
				shSrcs := srcs()
				wl := make([]trace.Source, cores)
				for c := range wl {
					wl[c] = trace.Limit(shSrcs[c], warm)
				}
				// Sequential warm, sharded measure: the realistic split.
				sh.Run(wl...)
				sh.ResetStats()
				sh.RunSharded(shards, shSrcs...)
				if got := stateDigest(sh); got != want {
					t.Errorf("cfg%d S=%d diverged:\n--- want ---\n%s--- got ---\n%s", ci, shards, want, got)
				}
			}
		})
	}
}

// TestShardedFallsBackWhenUnshardable: a geometry with fewer than 64 sets
// at some level must take the sequential path (and still be correct)
// rather than panic or shard incorrectly.
func TestShardedFallsBackWhenUnshardable(t *testing.T) {
	cfg := Config{Policy: Baseline, Seed: 1, L2Bytes: 16 * 1024} // 16 sets at 16 ways
	s := New(cfg)
	if s.Shardable() {
		t.Fatalf("16-set L2 reported shardable")
	}
	ref := New(cfg)
	ref.Run(trace.Limit(mixedSource(2), 50_000))
	sh := New(cfg)
	sh.RunSharded(4, trace.Limit(mixedSource(2), 50_000))
	if stateDigest(sh) != stateDigest(ref) {
		t.Error("fallback sharded run diverged from sequential")
	}
}

// TestShardedAccessZeroAllocs asserts the satellite requirement: a shard
// replica's steady-state access path — including the batch-boundary fold —
// allocates nothing once its scratch (pend lists, TLB arrays, page table)
// is warm.
func TestShardedAccessZeroAllocs(t *testing.T) {
	s := New(Config{Policy: SLIPABP, Seed: 1})
	rep := s.clone()
	rep.shardMask = shardGroupMask(0, 4)

	const batchLen = 4096
	accs := make([]trace.Access, 0, 64*batchLen)
	src := mixedSource(3)
	for len(accs) < cap(accs) {
		a, ok := src.Next()
		if !ok {
			break
		}
		accs = append(accs, a)
	}
	idx := 0
	replayBatch := func() {
		for j := 0; j < batchLen; j++ {
			rep.Access(0, accs[idx])
			idx++
			if idx == len(accs) {
				idx = 0
			}
		}
		rep.FoldPending()
	}
	// Warm scratch through one full replay cycle plus change: every page
	// the loop will ever touch gets its PTE, and the pend lists reach
	// steady capacity.
	for i := 0; i < 72; i++ {
		replayBatch()
	}
	if avg := testing.AllocsPerRun(8, replayBatch); avg >= 1 {
		t.Errorf("sharded access+fold path allocates %.1f times per %d-access batch, want 0", avg, batchLen)
	}
}

// BenchmarkShardedAccess measures the per-access cost on a shard replica
// owning 1/4 of the groups, fold included — the unit of work the intra-run
// executor parallelizes. Allocations are reported and must stay at zero.
func BenchmarkShardedAccess(b *testing.B) {
	s := New(Config{Policy: SLIPABP, Seed: 1})
	rep := s.clone()
	rep.shardMask = shardGroupMask(0, 4)
	const batchLen = 4096
	accs := make([]trace.Access, 0, 64*batchLen)
	src := mixedSource(3)
	for len(accs) < cap(accs) {
		a, _ := src.Next()
		accs = append(accs, a)
	}
	idx := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Access(0, accs[idx])
		idx++
		if idx == len(accs) {
			idx = 0
		}
		if i&(batchLen-1) == batchLen-1 {
			rep.FoldPending()
		}
	}
}

// BenchmarkShardedRun measures end-to-end wall clock of RunSharded at
// various shard counts on one trace; S=1 is the sequential baseline the
// sharding speedup is read against (perfbench's hier.shard2_speedup is the
// same ratio at S=2 on a replayed fig9-scale trace).
func BenchmarkShardedRun(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("S=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := New(Config{Policy: SLIPABP, Seed: 1})
				s.RunSharded(shards, trace.Limit(mixedSource(3), 200_000))
			}
		})
	}
}
