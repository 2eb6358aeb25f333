// Package-level benchmarks: one testing.B benchmark per table/figure of the
// paper, so `go test -bench=.` regenerates every result at a bench-sized
// horizon and reports simulator throughput. The figure data itself is
// printed once per benchmark via b.Logf on the first iteration; full-scale
// numbers come from cmd/slipbench (see EXPERIMENTS.md).
package main

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hier"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchOpts returns suite options sized for benchmarking: small enough to
// iterate, large enough that the sampling machinery activates.
func benchOpts() experiments.Options {
	return experiments.Options{
		Accesses:   300_000,
		Warmup:     500_000,
		Seed:       7,
		Benchmarks: []string{"soplex", "milc", "sphinx3"},
	}
}

// BenchmarkSimulatorThroughput measures raw accesses/second through the
// full SLIP system (the cost of Table 1's machinery per reference).
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := workloads.ByName("soplex")
	sys := hier.New(hier.Config{Policy: hier.SLIPABP, Seed: 1})
	src := spec.Build(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, ok := src.Next()
		if !ok { // workload generators are unbounded, but stay honest
			src = spec.Build(1)
			a, _ = src.Next()
		}
		sys.Access(0, a)
	}
}

// BenchmarkPolicyThroughput is BenchmarkSimulatorThroughput for every
// registered policy, one sub-benchmark each: the baseline, NuRAPID and
// LRU-PEA insert/promote paths exercise replacement and demotion state
// that the SLIP+ABP benchmark never reaches.
func BenchmarkPolicyThroughput(b *testing.B) {
	spec, _ := workloads.ByName("soplex")
	for _, p := range hier.AllPolicies() {
		b.Run(p.String(), func(b *testing.B) {
			sys := hier.New(hier.Config{Policy: p, Seed: 1})
			src := spec.Build(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, ok := src.Next()
				if !ok {
					src = spec.Build(1)
					a, _ = src.Next()
				}
				sys.Access(0, a)
			}
		})
	}
}

// BenchmarkBatchedThroughput is BenchmarkSimulatorThroughput through the
// batched delivery path hier.System.Run uses: accesses arrive in
// NextBatch-sized chunks instead of one Next call each.
func BenchmarkBatchedThroughput(b *testing.B) {
	spec, _ := workloads.ByName("soplex")
	sys := hier.New(hier.Config{Policy: hier.SLIPABP, Seed: 1})
	src := spec.Build(1)
	batch := make([]trace.Access, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		want := b.N - done
		if want > len(batch) {
			want = len(batch)
		}
		k := trace.FillBatch(src, batch[:want])
		if k == 0 {
			src = spec.Build(1)
			continue
		}
		for i := 0; i < k; i++ {
			sys.Access(0, batch[i])
		}
		done += k
	}
}

// BenchmarkTraceReplay measures decoding the materialized trace encoding —
// the per-access cost a cache-served run pays instead of generation.
func BenchmarkTraceReplay(b *testing.B) {
	spec, _ := workloads.ByName("soplex")
	buf := trace.Record(spec.Build(1), 1_000_000)
	b.SetBytes(int64(buf.Size()) / int64(buf.Len()))
	batch := make([]trace.Access, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	r := buf.Replay()
	for done := 0; done < b.N; {
		k := r.NextBatch(batch)
		if k == 0 {
			r = buf.Replay()
			continue
		}
		done += k
	}
}

// BenchmarkTraceRecord measures materializing a workload trace — the
// one-time cost a cache miss adds on top of generation.
func BenchmarkTraceRecord(b *testing.B) {
	spec, _ := workloads.ByName("soplex")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Record(spec.Build(1), 200_000)
	}
}

// suiteMatrix runs the BenchmarkSuiteParallel workload: the bench-sized
// benchmark set against two policies, at the given pool width.
func suiteMatrix(parallelism int) {
	opts := benchOpts()
	opts.Accesses = 100_000
	opts.Warmup = 100_000
	opts.Parallelism = parallelism
	s := experiments.NewSuite(opts)
	s.RunAll(hier.Baseline, hier.SLIPABP)
}

// BenchmarkSuiteParallel measures the wall-clock of fanning the benchmark x
// policy matrix over the worker pool, per pool width. The sequential
// sub-benchmark (workers=1) is the baseline the pool's speedup is read
// against.
func BenchmarkSuiteParallel(b *testing.B) {
	b.ReportAllocs()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				suiteMatrix(workers)
			}
		})
	}
}

// BenchmarkSetSampling measures the wall-clock of the fig9 matrix (the
// bench-sized benchmark set against baseline and the evaluated policies)
// per set-sampling factor; k=1 is full fidelity, the baseline each
// factor's speedup is read against. The accuracy side is the setsampling
// experiment. Every sub-benchmark replays one shared trace cache, recorded
// up front under the cheapest factor, so the timings compare simulation
// cost, not trace generation. The warm cache is off: no two matrix runs
// share a warmup identity.
func BenchmarkSetSampling(b *testing.B) {
	factors := append([]int{1}, experiments.SamplingFactors...)
	pols := append([]hier.PolicyKind{hier.Baseline}, experiments.EvalPolicies()...)
	tc := experiments.NewTraceCache(0)
	matrix := func(k int) {
		opts := benchOpts()
		opts.Accesses = 100_000
		opts.Warmup = 100_000
		opts.Sampling = k
		opts.TraceCache = tc
		opts.WarmCacheBytes = -1
		experiments.NewSuite(opts).RunAll(pols...)
	}
	matrix(factors[len(factors)-1])
	for _, k := range factors {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrix(k)
			}
		})
	}
}

// BenchmarkEOUOptimize measures one Energy Optimizer Unit operation
// (compare with the 1.27 pJ / 2-cycle hardware unit of Section 5).
func BenchmarkEOUOptimize(b *testing.B) {
	b.ReportAllocs()
	eou, err := core.NewEOU(core.LevelGeom{
		SublevelWays:  []int{4, 4, 8},
		SublevelLines: []uint64{1024, 1024, 2048},
		SublevelPJ:    []float64{21, 33, 50},
		NextLevelPJ:   136,
	}, true)
	if err != nil {
		b.Fatal(err)
	}
	d := core.Dist{Bins: [core.NumBins]uint8{3, 1, 2, 9}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eou.Optimize(&d)
	}
}

// BenchmarkFig1 regenerates the reuse-count breakdown of Figure 1.
func BenchmarkFig1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{
			Accesses: 300_000, Warmup: 300_000, Seed: 7,
			Benchmarks: []string{"soplex", "omnetpp"},
		})
		res := s.Fig1()
		if i == 0 {
			b.Logf("Fig1 average NR fractions: %.2f/%.2f/%.2f/%.2f",
				res.Average[0], res.Average[1], res.Average[2], res.Average[3])
		}
	}
}

// BenchmarkFig3 regenerates the soplex reuse-distance classes of Figure 3.
func BenchmarkFig3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{
			Accesses: 400_000, Warmup: 0, WarmupSet: true, Seed: 7,
			Benchmarks: []string{"soplex"},
		})
		s.Fig3()
	}
}

// BenchmarkTable2 regenerates the Table 2 energy parameters from the wire
// model.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{Benchmarks: []string{"milc"}})
		if res := s.Table2(); res.MaxRelErr > 0.03 {
			b.Fatalf("Table 2 deviation %.2f%%", 100*res.MaxRelErr)
		}
	}
}

// BenchmarkHTree regenerates the Section 2.1 H-tree comparison.
func BenchmarkHTree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{
			Accesses: 200_000, Warmup: 200_000, Seed: 7,
			Benchmarks: []string{"milc"},
		})
		res := s.HTree()
		if i == 0 {
			b.Logf("H-tree overhead: L2 +%.0f%%, L3 +%.0f%%", res.L2OverheadPct, res.L3OverheadPct)
		}
	}
}

// BenchmarkFig9 regenerates the L2/L3 energy savings comparison.
func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		res := s.Fig9()
		if i == 0 {
			b.Logf("Fig9 avg savings: SLIP %.1f%%/%.1f%%, SLIP+ABP %.1f%%/%.1f%%",
				res.AvgL2[hier.SLIP], res.AvgL3[hier.SLIP],
				res.AvgL2[hier.SLIPABP], res.AvgL3[hier.SLIPABP])
		}
	}
}

// BenchmarkFig10 regenerates the full-system savings of Figure 10.
func BenchmarkFig10(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		s.Fig10()
	}
}

// BenchmarkFig11 regenerates the access/movement breakdown of Figure 11.
func BenchmarkFig11(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		s.Fig11()
	}
}

// BenchmarkFig12 regenerates the relative miss traffic of Figure 12.
func BenchmarkFig12(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		s.Fig12()
	}
}

// BenchmarkFig13 regenerates the speedups of Figure 13.
func BenchmarkFig13(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		s.Fig13()
	}
}

// BenchmarkFig14 regenerates the insertion-class breakdown of Figure 14.
func BenchmarkFig14(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		s.Fig14()
	}
}

// BenchmarkFig15 regenerates the sublevel access fractions of Figure 15.
func BenchmarkFig15(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		s.Fig15()
	}
}

// BenchmarkFig16 regenerates the multiprogrammed study of Figure 16.
func BenchmarkFig16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{
			Accesses: 150_000, Warmup: 250_000, Seed: 7,
		})
		res := s.Fig16()
		if i == 0 {
			b.Logf("Fig16 avg: L3 %.1f%%, L2+L3 %.1f%%, DRAM %.1f%%",
				res.AvgL3, res.AvgL2L3, res.AvgDRAM)
		}
	}
}

// BenchmarkTech22 regenerates the 22nm scaling study.
func BenchmarkTech22(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{
			Accesses: 300_000, Warmup: 500_000, Seed: 7,
			Benchmarks: []string{"soplex", "milc"},
		})
		s.Tech22()
	}
}

// BenchmarkBinWidth regenerates the distribution-accuracy sensitivity study.
func BenchmarkBinWidth(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{
			Accesses: 200_000, Warmup: 300_000, Seed: 7,
			Benchmarks: []string{"soplex"},
		})
		s.BinWidth()
	}
}

// BenchmarkSampling regenerates the Section 4.2 sampling-traffic study.
func BenchmarkSampling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{
			Accesses: 200_000, Warmup: 300_000, Seed: 7,
			Benchmarks: []string{"xalancbmk"},
		})
		s.Sampling()
	}
}

// warmedSystem builds a SLIP+ABP system with n accesses of warmup — the
// state Snapshot/Restore operate on in the warm-cache hot path.
func warmedSystem(n uint64) *hier.System {
	spec, _ := workloads.ByName("soplex")
	sys := hier.New(hier.Config{Policy: hier.SLIPABP, Seed: 7})
	sys.Run(trace.Limit(spec.Build(7), n))
	sys.ResetStats()
	return sys
}

// BenchmarkSnapshot measures deep-copying a warmed hierarchy — the
// one-time cost a warm-cache miss adds on top of simulating the warmup.
func BenchmarkSnapshot(b *testing.B) {
	sys := warmedSystem(500_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Snapshot()
	}
}

// BenchmarkRestore measures materializing a system from a snapshot — the
// per-run cost a warm-cache hit pays instead of re-simulating the warmup.
func BenchmarkRestore(b *testing.B) {
	snap := warmedSystem(500_000).Snapshot()
	target := hier.New(hier.Config{Policy: hier.SLIPABP, Seed: 7})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target.Restore(snap)
	}
}

// BenchmarkWarmCacheMatrix times a benchmark x policy matrix that is
// simulated once and then re-measured at a second window, with the
// warm-state snapshot cache off and on — the wall-clock win the cache buys
// whenever runs repeat a warmup identity (repeated suites, slipd jobs,
// extra measured windows).
func BenchmarkWarmCacheMatrix(b *testing.B) {
	matrix := func(s *experiments.Suite, accesses uint64) {
		var specs []experiments.RunSpec
		for _, wl := range []string{"soplex", "milc"} {
			for _, p := range []hier.PolicyKind{hier.Baseline, hier.SLIPABP} {
				sp := spec.Single(wl, p)
				sp.Accesses = accesses
				specs = append(specs, sp)
			}
		}
		s.Prefetch(specs)
	}
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := experiments.Options{
					Warmup: 120_000, WarmupSet: true, Seed: 7, Parallelism: 2,
				}
				if !on {
					opts.WarmCacheBytes = -1
				}
				s := experiments.NewSuite(opts)
				matrix(s, 60_000)
				matrix(s, 30_000) // distinct window, same warmup identities
			}
		})
	}
}

// BenchmarkRRIPAblation compares LRU against the Section 7 SRRIP extension
// as SLIP's underlying replacement policy — the design-choice ablation
// called out in DESIGN.md.
func BenchmarkRRIPAblation(b *testing.B) {
	b.ReportAllocs()
	spec, _ := workloads.ByName("soplex")
	for i := 0; i < b.N; i++ {
		for _, rrip := range []bool{false, true} {
			sys := hier.New(hier.Config{Policy: hier.SLIPABP, Seed: 7, UseRRIP: rrip})
			sys.Run(trace.Limit(spec.Build(7), 300_000))
			if i == 0 {
				b.Logf("rrip=%v: L2 energy %.1f uJ, L2 hits %d",
					rrip, sys.L2TotalPJ()/1e6, sys.L2(0).Stats.Hits.Value())
			}
		}
	}
}
