// Command slipbench regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports; see DESIGN.md
// for the experiment index and EXPERIMENTS.md for paper-vs-measured.
//
// Usage:
//
//	slipbench [-exp all|fig1,fig3,table2,htree,fig9,...] [-accesses N]
//	          [-seed N] [-benchmarks a,b,c] [-parallel N]
//	          [-trace-cache-mb 256] [-warm-cache-mb 256] [-sampling 8]
//	slipbench -exp tech22 -dump-spec     # print the experiments' specs as JSON
//	slipbench -spec runs.json            # simulate a spec list from a file
//
// With -parallel > 1 the union of simulations the selected experiments
// need is fanned over a bounded worker pool before any table is printed;
// results are bit-identical to a sequential run. A run picks its own
// intra-run shard count (see experiments.shardWidth): sharded only when it
// is large, not set-sampled, and the pool leaves CPUs idle.
//
// -dump-spec prints the canonical spec (see internal/spec) of every run
// the selected experiments consume, as a JSON array: the exact inputs
// behind each figure, replayable one by one via slipsim -spec or POST
// /v1/runs. -spec does the reverse: it reads such an array (or a single
// spec object) and simulates each entry, printing its label, content hash
// and full-system energy.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// readSpecs decodes a -spec file: a JSON array of specs, or a single spec
// object (the shape slipsim -dump-spec emits).
func readSpecs(path string) ([]spec.Spec, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	if dec := json.NewDecoder(bytes.NewReader(data)); true {
		dec.DisallowUnknownFields()
		var specs []spec.Spec
		if err := dec.Decode(&specs); err == nil {
			return specs, nil
		}
	}
	one, err := spec.Parse(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("slipbench: -spec %s: not a spec array or object: %w", path, err)
	}
	return []spec.Spec{one}, nil
}

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments.ExperimentNames(), ","))
		acc      = flag.Uint64("accesses", 2_000_000, "measured accesses per benchmark")
		warmup   = flag.Int64("warmup", -1, "warmup accesses before measurement (-1 = same as -accesses)")
		seed     = flag.Uint64("seed", 42, "random seed")
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		listPol  = flag.Bool("list-policies", false, "list the registered policies and exit")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for simulations (1 = sequential)")
		dumpSpec = flag.Bool("dump-spec", false, "print the selected experiments' canonical run specs as JSON and exit")
		specIn   = flag.String("spec", "", "simulate a JSON spec list from this file instead of -exp ('-' for stdin)")
		traceMB  = flag.Int64("trace-cache-mb", 256, "trace materialization cache budget in MiB (0 disables)")
		warmMB   = flag.Int64("warm-cache-mb", 256, "warm-state snapshot cache budget in MiB (0 disables)")
		sampling = flag.Int("sampling", 0, "set-sampling factor K for every run: simulate 1/K of the cache sets and extrapolate (0/1 = full fidelity; valid: 2, 4, 8, 16)")
	)
	flag.Parse()

	if *parallel <= 0 {
		fmt.Fprintf(os.Stderr, "slipbench: -parallel must be >= 1 (got %d)\n", *parallel)
		os.Exit(2)
	}
	if *acc == 0 {
		fmt.Fprintln(os.Stderr, "slipbench: -accesses must be > 0")
		os.Exit(2)
	}
	if err := workloads.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *list {
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
		return
	}
	if *listPol {
		// One line per registered policy, from the same registry the
		// simulator dispatches on (slipsim -list-policies has the long form).
		for _, d := range policy.Descriptors() {
			fmt.Printf("%-14s %s\n", d.Name, d.Doc)
		}
		return
	}

	if *traceMB < 0 || *warmMB < 0 {
		fmt.Fprintln(os.Stderr, "slipbench: cache budgets must be >= 0 MiB (0 disables)")
		os.Exit(2)
	}
	mb := func(v int64) int64 { // 0 MiB means off; Options uses -1 for off
		if v == 0 {
			return -1
		}
		return v << 20
	}
	switch *sampling {
	case 0, 1, 2, 4, 8, 16:
	default:
		fmt.Fprintf(os.Stderr, "slipbench: -sampling must be one of 1, 2, 4, 8, 16 (got %d)\n", *sampling)
		os.Exit(2)
	}
	opts := experiments.Options{
		Accesses: *acc, Seed: *seed, Parallelism: *parallel, Out: os.Stdout,
		TraceCacheBytes: mb(*traceMB), WarmCacheBytes: mb(*warmMB),
		Sampling: *sampling,
	}
	if *warmup >= 0 {
		opts.Warmup = uint64(*warmup)
		opts.WarmupSet = true
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
		for _, b := range opts.Benchmarks {
			if _, ok := workloads.ByName(b); !ok {
				fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", b)
				os.Exit(1)
			}
		}
	}
	suite := experiments.NewSuite(opts)

	if *specIn != "" {
		specs, err := readSpecs(*specIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i, sp := range specs {
			if _, err := suite.ResolveSpec(sp); err != nil {
				fmt.Fprintf(os.Stderr, "slipbench: spec %d: %v\n", i, err)
				os.Exit(1)
			}
		}
		start := time.Now()
		suite.Prefetch(specs)
		fmt.Printf("[simulated %d specs on %d workers in %v]\n\n",
			len(specs), *parallel, time.Since(start).Round(time.Millisecond))
		for _, sp := range specs {
			sys := suite.RunS(sp)
			fmt.Printf("%-40s %s  %.1f uJ\n", sp.Label(), suite.KeyFor(sp), sys.FullSystemPJ()/1e6)
		}
		return
	}

	var names []string
	if *exp == "all" {
		names = experiments.ExperimentNames()
	} else {
		names = strings.Split(*exp, ",")
	}
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
		if !experiments.ValidExperiment(names[i]) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", n)
			os.Exit(1)
		}
	}

	if *dumpSpec {
		specs := suite.SpecsForAll(names)
		resolved := make([]spec.Spec, len(specs))
		for i, sp := range specs {
			c, err := suite.ResolveSpec(sp)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			resolved[i] = c
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resolved); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Simulate the union of runs the selected experiments need up front,
	// over the worker pool; the experiments below then only read the memo
	// cache and print. Sequential (-parallel 1) skips the prefetch pass so
	// per-experiment timings reflect their own simulations.
	if *parallel > 1 {
		specs := suite.SpecsForAll(names)
		start := time.Now()
		suite.Prefetch(specs)
		fmt.Printf("[prefetched %d runs on %d workers in %v]\n\n",
			len(specs), *parallel, time.Since(start).Round(time.Millisecond))
	}

	for _, n := range names {
		start := time.Now()
		if err := suite.RunNamed(n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", n, time.Since(start).Round(time.Millisecond))
	}
}
