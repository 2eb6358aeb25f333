// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) plus the quantitative claims made in the text
// (H-tree overhead, 22nm scaling, distribution bit-width sensitivity,
// sampling traffic). Each experiment prints the same rows/series the paper
// reports and returns the numbers for programmatic checks.
//
// The Suite memoizes simulated systems, so figures that share runs (9, 10,
// 11, 12, 13, 14, 15 all read the same 14 benchmark x 5 policy matrix) pay
// for each simulation once. The memo cache is goroutine-safe with
// singleflight semantics: concurrent requests for the same run block on a
// single simulation instead of duplicating it, and Prefetch/RunAll fan the
// run matrix over a bounded worker pool. Each simulated system is built and
// driven by exactly one goroutine, so parallel results are bit-identical to
// sequential ones.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"

	"repro/internal/hier"
	"repro/internal/lru"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Options sizes and seeds an experiment run.
type Options struct {
	// Accesses is the measured per-benchmark trace length (default 2M).
	Accesses uint64
	// Warmup is the number of accesses replayed before statistics are
	// reset — the analogue of the paper's 3B-instruction fast-forward,
	// giving the sampling state machine and caches time to reach steady
	// state (default: equal to Accesses).
	Warmup uint64
	// warmupSet tracks whether Warmup was set explicitly (zero is legal).
	WarmupSet bool
	// Seed drives all randomness.
	Seed uint64
	// Sampling, when > 1, stamps the set-sampling factor K into every spec
	// that does not set its own: runs simulate 1/K of the cache sets and
	// report extrapolated statistics. A spec with an explicit Sampling
	// (including 1, the canonical full-fidelity value) keeps it.
	Sampling int
	// Benchmarks restricts the workload set (default: all).
	Benchmarks []string
	// Parallelism bounds the worker pool used by Prefetch/RunAll
	// (default: runtime.GOMAXPROCS(0)). It only affects how many distinct
	// simulations run concurrently, never the result of any of them.
	Parallelism int
	// TraceCacheBytes bounds the trace materialization cache: each
	// workload's access stream is recorded once (compact varint encoding)
	// and replayed for every policy that consumes it, which is most of the
	// non-simulator cost of a benchmark x policy matrix. Zero selects
	// DefaultTraceCacheBytes; a negative value disables materialization
	// entirely (sources are regenerated per run, the pre-cache behaviour).
	// Replayed runs are bit-identical to generated ones.
	TraceCacheBytes int64
	// TraceCache, when non-nil, is used instead of a suite-private cache,
	// letting several suites (the slipd per-job suites) share one
	// materialization pool. TraceCacheBytes is ignored in that case.
	TraceCache *TraceCache
	// WarmCacheBytes bounds the warm-state snapshot cache: the post-warmup
	// hierarchy state of each distinct warmup identity (spec minus the
	// measured window) is snapshotted once and cloned for every later run
	// that shares it, skipping the warmup simulation entirely. Zero selects
	// DefaultWarmCacheBytes; a negative value disables warm-state caching.
	// Snapshot-seeded runs are bit-identical to straight-through ones.
	WarmCacheBytes int64
	// WarmCache, when non-nil, is used instead of a suite-private cache,
	// letting several suites share one snapshot pool (the slipd per-job
	// suites). WarmCacheBytes is ignored in that case.
	WarmCache *WarmCache
	// Out receives the printed tables (nil discards).
	Out io.Writer
	// Progress, when set, receives simulation progress: the memo key of
	// the run and the cumulative accesses driven so far (warmup plus
	// measured; both traces for a mix). It is called from the simulating
	// goroutine every few thousand accesses, must be cheap and safe for
	// concurrent use, and never affects results.
	Progress func(key string, done uint64)
}

// normalize applies every default in one place — sizing, seed, benchmark
// set, worker-pool width, cache budgets, output sink — so each entry point
// (NewSuite, the CLI tools, slipd's per-job suites) resolves an Options the
// same way. It is idempotent: normalizing an already-normalized Options
// changes nothing.
func (o *Options) normalize() {
	if o.Accesses == 0 {
		o.Accesses = 2_000_000
	}
	if o.Warmup == 0 && !o.WarmupSet {
		o.Warmup = o.Accesses
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workloads.Names()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.TraceCache == nil && o.TraceCacheBytes >= 0 {
		o.TraceCache = NewTraceCache(o.TraceCacheBytes)
	}
	if o.WarmCache == nil && o.WarmCacheBytes >= 0 {
		o.WarmCache = NewWarmCache(o.WarmCacheBytes)
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
}

// Suite memoizes runs across experiments. All methods are safe for
// concurrent use; a completed *hier.System is immutable from the Suite's
// point of view (callers must not drive it further).
type Suite struct {
	opts Options

	// runs is the memo: an unbounded singleflight cache of completed
	// systems. A flight cancelled mid-simulation leaves no entry, so a
	// waiter with a live context claims a fresh one — one caller's
	// cancellation never poisons the cache.
	runs *lru.Cache[*hier.System]
}

// NewSuite builds a suite with the given options.
func NewSuite(opts Options) *Suite {
	opts.normalize()
	return &Suite{opts: opts, runs: lru.New[*hier.System](0, nil)}
}

// Options returns the filled options.
func (s *Suite) Options() Options { return s.opts }

// printf writes to the configured output.
func (s *Suite) printf(format string, args ...any) {
	fmt.Fprintf(s.opts.Out, format, args...)
}

// ResolveSpec stamps the suite's sizing (accesses, warmup, seed) into any
// unset fields of sp and canonicalizes it. The result is the run's full
// identity: hashing it yields the memo key the suite will use.
func (s *Suite) ResolveSpec(sp RunSpec) (spec.Spec, error) {
	if sp.Accesses == 0 {
		sp.Accesses = s.opts.Accesses
	}
	if sp.Warmup == nil {
		w := s.opts.Warmup
		sp.Warmup = &w
	}
	if sp.Seed == 0 {
		sp.Seed = s.opts.Seed
	}
	if sp.Sampling == 0 {
		sp.Sampling = s.opts.Sampling
	}
	return sp.Canonical()
}

// mustResolve is ResolveSpec for specs built by trusted callers: an invalid
// spec (a typo in a benchmark list) is a programming error, so it panics
// with the validation message, which names the valid alternatives.
func (s *Suite) mustResolve(sp RunSpec) spec.Spec {
	c, err := s.ResolveSpec(sp)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return c
}

// KeyFor reports the memo key sp occupies in this suite: the canonical
// content hash of the spec with the suite's sizing stamped in. External
// result caches (the slipd LRU store) key on the same hashes, so the
// format is part of the spec package's contract, not this one's.
func (s *Suite) KeyFor(sp RunSpec) string {
	return s.mustResolve(sp).MustHash()
}

// progressFor adapts the Options.Progress hook to one keyed run; base
// offsets the measured phase past the warmup so the reported count is
// cumulative and monotonic across phases. Nil when no hook is set, which
// keeps the hook check off the hier hot path entirely.
func (s *Suite) progressFor(key string, base uint64) func(uint64) {
	if s.opts.Progress == nil {
		return nil
	}
	return func(n uint64) { s.opts.Progress(key, base+n) }
}

// Run returns the memoized single-core system for a workload and policy
// under the default configuration.
func (s *Suite) Run(wl string, p hier.PolicyKind) *hier.System {
	return s.RunS(spec.Single(wl, p))
}

// RunMix returns the memoized two-core system for a Figure 16 mix. Core
// B's trace is seeded with Seed+1 so the two cores draw independent
// streams; mix specs canonicalize distinctly from every single-core spec,
// so their memo keys can never collide.
func (s *Suite) RunMix(m workloads.Mix, p hier.PolicyKind) *hier.System {
	return s.RunS(spec.ForMix(m.A, m.B, p))
}

// RunS returns the memoized system for a declarative spec. Invalid specs
// panic before the memo slot is claimed, so a bad request never poisons
// the cache for a later correct one.
func (s *Suite) RunS(sp RunSpec) *hier.System {
	sys, _ := s.RunSpecContext(context.Background(), sp)
	return sys
}

// TraceCache exposes the suite's trace materialization cache (nil when
// disabled), so tools and the daemon can report its statistics.
func (s *Suite) TraceCache() *TraceCache { return s.opts.TraceCache }

// WarmCache exposes the suite's warm-state snapshot cache (nil when
// disabled), so tools and the daemon can report its statistics.
func (s *Suite) WarmCache() *WarmCache { return s.opts.WarmCache }

// source builds core i's access stream: a replay of the materialized trace
// when the cache is enabled, a live generator otherwise. One Replay is
// consumed across both run phases (warmup then measured) exactly like a
// live generator would be, so total covers both.
//
// A stream that could never be retained — every record takes at least two
// encoded bytes, so 2*total over the byte budget is a certain eviction —
// is not materialized at all: recording it would buy no reuse, cost a
// giant allocation, and (unlike the simulation itself) run outside the
// context's cancellation checks.
func (s *Suite) source(name string, seed, total uint64) trace.Source {
	wl, _ := workloads.ByName(name) // canonical specs name valid workloads
	tc := s.opts.TraceCache
	if tc == nil || total == 0 || total > uint64(tc.Budget())/2 {
		return wl.Build(seed)
	}
	// Recording never fails and ignores cancellation: the flight runs to
	// completion under a background context.
	buf, _ := tc.Get(context.Background(), traceCacheKey(name, seed, total), func(context.Context) (*trace.Buffer, error) {
		return trace.Record(wl.Build(seed), total), nil
	})
	return buf.Replay()
}

// runDemand counts, across every suite in the process, the specs queued in a
// Prefetch pool and not yet picked up by a worker plus the simulations in
// flight. It feeds shardWidth and nothing else: an approximate value is
// harmless because the width never affects results.
var runDemand atomic.Int64

// maxShardWidth caps the intra-run width. Every shard replays the whole
// trace through the replicated page-grain work, so that cost grows with
// the width while the split work shrinks; 8 is the cap the engine has
// always used, and no wider host has measured past it.
const maxShardWidth = 8

// minShardAccesses is the smallest run phase (accesses times cores) that
// shards: below it the replica clones, the two barriers per batch and the
// merge eat the split. BenchmarkShardedRun in internal/hier measures the
// crossover (soplex SLIP+ABP, 2 CPUs, go1.24.0; median S=2 speedup over
// three sweeps of 5, 5 and 10 reps):
//
//	n per phase   50k         100k              200k              500k        1M
//	S=2 vs S=1    0.97 1.04   1.09 1.07 0.90    1.10 1.12 1.04    1.09 1.15   1.09 1.12
//
// 200k is the smallest size whose median wins in every sweep. Every run is
// listed in EXPERIMENTS.md under "Intra-run scaling".
const minShardAccesses = 200_000

// shardWidth is the one rule choosing a run phase's intra-run shard count.
// A set-sampled spec, a phase under minShardAccesses or a geometry that is
// not Shardable runs sequentially; otherwise the phase takes its share of
// the CPUs, GOMAXPROCS over the process-wide demand, capped at
// maxShardWidth. Sharded and sequential executions are bit-identical
// (hier.RunShardedContext), so the choice moves only wall clock.
func shardWidth(sampling int, accesses uint64, shardable bool, demand, procs int) int {
	if sampling > 1 || accesses < minShardAccesses || !shardable {
		return 1
	}
	return max(1, min(maxShardWidth, procs/max(demand, 1)))
}

// phaseWidth is simulate's call into shardWidth; tests replace it to force
// or observe a width.
var phaseWidth = shardWidth

// simulate drives one canonical spec: per-core trace sources (core 0 runs
// the workload with the spec seed, core i runs MixWith — or the workload
// again — with seed+i), warmup, statistics reset, then the measured
// window. For mixes, statistics are collected only while both benchmarks
// execute, as in the paper's overlap-window methodology.
func (s *Suite) simulate(ctx context.Context, key string, c spec.Spec) (*hier.System, error) {
	cfg, err := c.Build()
	if err != nil {
		return nil, err // unreachable: c is canonical
	}
	warm := *c.Warmup
	srcs := make([]trace.Source, cfg.NumCores)
	for i := range srcs {
		name := c.Workload
		if i > 0 && c.MixWith != "" {
			name = c.MixWith
		}
		srcs[i] = s.source(name, c.Seed+uint64(i), warm+c.Accesses)
	}
	limit := func(n uint64) []trace.Source {
		out := make([]trace.Source, len(srcs))
		for i, src := range srcs {
			out[i] = trace.Limit(src, n)
		}
		return out
	}
	runDemand.Add(1)
	defer runDemand.Add(-1)
	width := func(sys *hier.System, accesses uint64) int {
		return phaseWidth(c.Sampling, accesses*uint64(len(srcs)), sys.Shardable(),
			int(runDemand.Load()), runtime.GOMAXPROCS(0))
	}
	var sys *hier.System
	switch wc := s.opts.WarmCache; {
	case warm > 0 && wc != nil:
		// Warm-state path: fetch (or build, under the cache's singleflight)
		// the post-warmup snapshot for this run's warmup identity and start
		// from an independent clone of it.
		ran := false
		snap, err := wc.Get(ctx, warmCacheKey(c), func(ctx context.Context) (*hier.Snapshot, error) {
			ran = true
			ws := hier.New(cfg)
			if err := ws.RunShardedContext(ctx, width(ws, warm), s.progressFor(key, 0), limit(warm)...); err != nil {
				return nil, err
			}
			ws.ResetStats()
			return ws.Snapshot(), nil
		})
		if err != nil {
			return nil, err
		}
		sys = snap.System()
		if !ran {
			// Served from the cache: this caller's sources still stand at
			// access zero, so skip them past the warmup the snapshot already
			// embodies. Draining costs only trace decoding/generation, not
			// simulation.
			for _, src := range srcs {
				trace.Drain(src, warm)
			}
		}
	case warm > 0:
		sys = hier.New(cfg)
		if err := sys.RunShardedContext(ctx, width(sys, warm), s.progressFor(key, 0), limit(warm)...); err != nil {
			return nil, err
		}
		sys.ResetStats()
	default:
		sys = hier.New(cfg)
	}
	if err := sys.RunShardedContext(ctx, width(sys, c.Accesses), s.progressFor(key, uint64(len(srcs))*warm), limit(c.Accesses)...); err != nil {
		return nil, err
	}
	return sys, nil
}
