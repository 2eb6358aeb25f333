package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/hier"
	"repro/internal/spec"
)

// fig9Window is the reduced per-benchmark window of the fig9-matrix
// workload (measured accesses; the warmup is the same length). The paper
// scale is 2M; this keeps one 70-run matrix to a few seconds on two CPUs.
const fig9Window = 50_000

// loneWorkload and lonePolicy name the lone-run spec: the paper-scale
// soplex SLIP+ABP run the ROADMAP profile is taken from.
const (
	loneWorkload = "soplex"
	lonePolicy   = "slip+abp"
)

// engineSetupTarget is the set-up time one setup_s sample of an engine
// workload holds (setupSampler).
const engineSetupTarget = 5 * time.Millisecond

// simSeed maps the benchmark seed to the simulator seed (the engine treats
// 0 as "default 42", so the mapping avoids it).
func simSeed(seed uint64) uint64 { return seed + 1 }

func fig9Options(cfg runConfig) experiments.Options {
	return experiments.Options{
		Accesses:    fig9Window,
		Warmup:      fig9Window,
		Seed:        simSeed(cfg.seed),
		Parallelism: cfg.workers,
	}
}

func fig9Specs(s *experiments.Suite) []spec.Spec { return s.SpecsFor("fig9") }

func loneSpec(cfg runConfig) spec.Spec {
	p, _ := hier.ParsePolicy(lonePolicy)
	sp := spec.Single(loneWorkload, p)
	sp.Seed = simSeed(cfg.seed)
	return sp
}

// enginePass is one suite built and driven over a spec set.
type enginePass struct {
	wall       float64
	runs       map[string]outputs
	traceStats experiments.TraceCacheStats
	warmStats  experiments.WarmCacheStats
	runMS      []float64 // per-run spans from the progress hook
	busyFrac   float64   // run time over (pool width x wall)
}

// runEngine builds a suite and runs specs through it: a lone spec through
// RunSpecContext, as a CLI run does, a set through PrefetchContext's worker
// pool. Only that call is timed. It then collects every run's outputs, and
// with a tracer it records a span per run from the progress hook.
func runEngine(ctx context.Context, opts experiments.Options, specsOf func(*experiments.Suite) []spec.Spec, tr *tracer, parent int) (*enginePass, error) {
	var mu sync.Mutex
	first := map[string]time.Time{}
	last := map[string]time.Time{}
	if tr != nil {
		opts.Progress = func(key string, _ uint64) {
			now := time.Now()
			mu.Lock()
			if _, ok := first[key]; !ok {
				first[key] = now
			}
			last[key] = now
			mu.Unlock()
		}
	}
	p := &enginePass{runs: map[string]outputs{}}
	suite := experiments.NewSuite(opts)
	specs := specsOf(suite)

	sp := tr.begin("experiments.prefetch", parent)
	t0 := time.Now()
	var err error
	if len(specs) == 1 {
		_, err = suite.RunSpecContext(ctx, specs[0])
	} else {
		err = suite.PrefetchContext(ctx, specs)
	}
	p.wall = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("engine pass: %w", err)
	}
	for _, s := range specs {
		sys, err := suite.RunSpecContext(ctx, s) // memo hit
		if err != nil {
			return nil, err
		}
		p.runs[suite.KeyFor(s)] = outputsOf(sys)
	}
	p.traceStats = suite.TraceCache().Stats()
	p.warmStats = suite.WarmCache().Stats()
	var busy float64
	for key, a := range first {
		d := last[key].Sub(a)
		tr.record("experiments.run", sp, a, last[key])
		p.runMS = append(p.runMS, float64(d)/1e6)
		busy += d.Seconds()
	}
	p.busyFrac = busy / (float64(suite.Options().Parallelism) * p.wall)
	return p, nil
}

// engineRun is the untraced measurement shared by the two engine
// workloads: fresh suites, pass after pass, for cfg.seconds.
func engineRun(ctx context.Context, cfg runConfig, name string, opts experiments.Options, specsOf func(*experiments.Suite) []spec.Spec) (*report, error) {
	rep := &report{metrics: metrics{}}
	var walls []float64
	var ref map[string]outputs
	// Set-up is building the suite and resolving every input spec to its
	// run key, everything before the first simulation starts.
	setup := &setupSampler{target: engineSetupTarget, setup: func() (time.Duration, func(), error) {
		t0 := time.Now()
		s := experiments.NewSuite(opts)
		for _, sp := range specsOf(s) {
			s.KeyFor(sp)
		}
		return time.Since(t0), func() {}, nil
	}}
	err := timedLoop(cfg.seconds, func() error {
		p, err := runEngine(ctx, opts, specsOf, nil, 0)
		if err != nil {
			return err
		}
		if err := setup.take(setupPerPass); err != nil {
			return err
		}
		walls = append(walls, p.wall)
		rep.attempted += len(p.runs)
		if ref == nil {
			ref = p.runs
			checkPinned(rep, name, cfg.seed, digest(ref), len(ref))
			return nil
		}
		compareRuns(rep, ref, p.runs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	setupS, err := setup.median()
	if err != nil {
		return nil, err
	}
	rep.metrics.set("setup_s", setupS, "s")
	rep.metrics.set("wall_s", median(walls), "s")
	rep.note("pass walls (s): %.3f", walls)
	rep.metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.note("passes=%d runs_per_pass=%d digest=%s", len(walls), len(ref), digest(ref))
	return rep, nil
}

// compareRuns counts every run whose outputs differ from the reference.
func compareRuns(rep *report, ref, got map[string]outputs) {
	for k, o := range got {
		if r, ok := ref[k]; !ok || r != o {
			rep.fail("run %s: outputs %s, reference %v", k, o, r)
		}
	}
}

func runFig9(ctx context.Context, cfg runConfig) (*report, error) {
	return engineRun(ctx, cfg, "fig9-matrix", fig9Options(cfg), fig9Specs)
}

func runLone(ctx context.Context, cfg runConfig) (*report, error) {
	sp := loneSpec(cfg)
	return engineRun(ctx, cfg, "lone-run", experiments.Options{},
		func(*experiments.Suite) []spec.Spec { return []spec.Spec{sp} })
}
