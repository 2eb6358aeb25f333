package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/hier"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// RunSpec is the declarative description of one simulation the Suite can
// perform — an alias for spec.Spec, so the CLI, the experiment engine and
// the slipd daemon all speak the same canonical run description. Sizing
// fields left unset inherit the suite's Options; everything else defaults
// to the paper configuration.
type RunSpec = spec.Spec

// RunSpecContext executes one spec through the memoizing entry points
// under ctx; the only error is ctx.Err() from a cancelled run. It is the
// unit of work of Prefetch workers and of the slipd job workers. The memo
// key is the resolved spec's canonical content hash (see KeyFor), so two
// specs describing the same simulation share one flight no matter which
// layer submitted them. Invalid specs panic, in the caller's goroutine,
// with the valid alternatives named.
func (s *Suite) RunSpecContext(ctx context.Context, sp RunSpec) (*hier.System, error) {
	c := s.mustResolve(sp)
	key := c.MustHash()
	return s.runs.Get(ctx, key, func(ctx context.Context) (*hier.System, error) {
		return s.simulate(ctx, key, c)
	})
}

// Prefetch simulates the given specs over a worker pool bounded by
// Options.Parallelism and leaves the results in the memo cache; subsequent
// Run/RunS/RunMix calls for the same keys return instantly. Duplicate
// specs are collapsed by the singleflight cache. Each simulation is
// driven by one worker goroutine (a sharded one merges bit-identically),
// so results are bit-identical to a sequential execution of the same
// specs.
func (s *Suite) Prefetch(specs []RunSpec) {
	// A background context never cancels, so the error is impossible.
	_ = s.PrefetchContext(context.Background(), specs)
}

// PrefetchContext is Prefetch under a context: when ctx is cancelled,
// undispatched specs are abandoned, in-flight simulations stop within a
// few thousand accesses, and ctx.Err() is returned. Completed specs stay
// memoized; abandoned ones leave no trace, so a later retry starts clean.
func (s *Suite) PrefetchContext(ctx context.Context, specs []RunSpec) error {
	// Resolve every spec up front, in the caller's goroutine, so a typo
	// surfaces as an ordinary panic instead of crashing a worker.
	for _, sp := range specs {
		s.mustResolve(sp)
	}
	// Queued specs count toward the process-wide demand shardWidth reads,
	// so a pool's first run already sees the whole batch.
	runDemand.Add(int64(len(specs)))
	n := s.opts.Parallelism
	if n > len(specs) {
		n = len(specs)
	}
	if n < 1 {
		n = 1
	}
	ch := make(chan RunSpec)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range ch {
				runDemand.Add(-1)
				if ctx.Err() == nil {
					_, _ = s.RunSpecContext(ctx, sp)
				}
			}
		}()
	}
	dispatched := 0
dispatch:
	for _, sp := range specs {
		select {
		case ch <- sp:
			dispatched++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(ch)
	// Workers take every dispatched spec off the demand count (simulated
	// or drained); abandoned ones come off here.
	runDemand.Add(int64(dispatched - len(specs)))
	wg.Wait()
	return ctx.Err()
}

// RunAll fans the full benchmark x policy matrix (the suite's configured
// benchmark set against the given policies) over the worker pool and
// returns the simulated systems keyed by workload then policy. It is the
// parallel equivalent of nested Run loops.
func (s *Suite) RunAll(policies ...hier.PolicyKind) map[string]map[hier.PolicyKind]*hier.System {
	out, _ := s.RunAllContext(context.Background(), policies...)
	return out
}

// RunAllContext is RunAll under a context; on cancellation it returns
// (nil, ctx.Err()) and stops queued work promptly.
func (s *Suite) RunAllContext(ctx context.Context, policies ...hier.PolicyKind) (map[string]map[hier.PolicyKind]*hier.System, error) {
	if err := s.PrefetchContext(ctx, s.matrix(policies...)); err != nil {
		return nil, err
	}
	out := make(map[string]map[hier.PolicyKind]*hier.System, len(s.opts.Benchmarks))
	for _, wl := range s.opts.Benchmarks {
		row := make(map[hier.PolicyKind]*hier.System, len(policies))
		for _, p := range policies {
			row[p] = s.Run(wl, p)
		}
		out[wl] = row
	}
	return out, nil
}

// SpecsFor returns the simulations an experiment will consume, in a
// deterministic order, so a driver can Prefetch the union for several
// experiments before printing any of them. Experiments that simulate
// nothing (fig3, table2) return nil; unknown names panic with the valid
// set.
func (s *Suite) SpecsFor(exp string) []RunSpec {
	withEval := append([]hier.PolicyKind{hier.Baseline}, evalPolicies...)
	switch exp {
	case "fig1":
		var specs []RunSpec
		for _, wl := range workloads.Fig1Set() {
			specs = append(specs, spec.Single(wl, hier.Baseline))
		}
		return specs
	case "fig3", "table2":
		return nil
	case "htree":
		specs := s.matrix(hier.Baseline)
		for _, wl := range s.opts.Benchmarks {
			specs = append(specs, htreeSpec(wl))
		}
		return specs
	case "fig9", "fig11", "fig13", "fig15":
		return s.matrix(withEval...)
	case "fig10", "fig12":
		return s.matrix(hier.Baseline, hier.SLIP, hier.SLIPABP)
	case "fig14":
		return s.matrix(hier.SLIPABP)
	case "fig16":
		var specs []RunSpec
		for _, m := range workloads.Mixes() {
			for _, p := range []hier.PolicyKind{hier.Baseline, hier.SLIPABP} {
				specs = append(specs, spec.ForMix(m.A, m.B, p))
			}
		}
		return specs
	case "tech22":
		var specs []RunSpec
		for _, wl := range s.opts.Benchmarks {
			for _, p := range []hier.PolicyKind{hier.Baseline, hier.SLIPABP} {
				specs = append(specs, tech22Spec(wl, p))
			}
		}
		return specs
	case "binwidth":
		specs := s.matrix(hier.Baseline)
		for _, b := range binWidths {
			for _, wl := range s.opts.Benchmarks {
				specs = append(specs, bitsSpec(wl, b))
			}
		}
		return specs
	case "sampling":
		specs := s.matrix(hier.SLIPABP)
		for _, wl := range s.opts.Benchmarks {
			specs = append(specs, noSampleSpec(wl))
		}
		return specs
	case "policies":
		return s.matrix(hier.AllPolicies()...)
	case "setsampling":
		specs := s.samplingMatrix(1)
		for _, k := range SamplingFactors {
			specs = append(specs, s.samplingMatrix(k)...)
		}
		return specs
	default:
		panic(fmt.Sprintf("experiments: unknown experiment %q (valid: %s)",
			exp, strings.Join(experimentOrder, ", ")))
	}
}

// matrix is the suite's benchmark set against the given policies, one
// single-core spec per pair, benchmark-major.
func (s *Suite) matrix(pols ...hier.PolicyKind) []RunSpec {
	var specs []RunSpec
	for _, wl := range s.opts.Benchmarks {
		for _, p := range pols {
			specs = append(specs, spec.Single(wl, p))
		}
	}
	return specs
}

// SpecsForAll unions SpecsFor over several experiments, dropping duplicate
// memo keys while keeping first-seen order stable.
func (s *Suite) SpecsForAll(exps []string) []RunSpec {
	seen := make(map[string]bool)
	var specs []RunSpec
	for _, exp := range exps {
		for _, sp := range s.SpecsFor(exp) {
			if k := s.KeyFor(sp); !seen[k] {
				seen[k] = true
				specs = append(specs, sp)
			}
		}
	}
	return specs
}
