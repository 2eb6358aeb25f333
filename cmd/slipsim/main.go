// Command slipsim runs one workload under one policy and prints a detailed
// report: hit rates, per-sublevel access fractions, energy breakdown,
// traffic and timing. It is the single-run companion to slipbench.
//
// Usage:
//
//	slipsim -workload soplex -policy slip+abp [-accesses N] [-warmup N]
//	        [-seed N] [-cores 2 -workload2 mcf] [-rrip] [-binbits 4]
//	        [-tech 22nm] [-topology h-tree] [-cpuprofile cpu.out]
//	        [-sampling 8]
//	slipsim -spec run.json                       # run a declarative spec file
//	slipsim -workload mcf -dump-spec             # print the canonical spec
//	slipsim -trace file.trc -policy baseline     # replay a tracegen file
//	slipsim -list-policies                       # enumerate the policy registry
//
// The flags and the -spec file describe the same canonical simulation spec
// (see internal/spec): -dump-spec prints the canonical JSON the flags
// denote, and that JSON round-trips through -spec (or POSTs to slipd)
// to reproduce the identical run — `slipsim -dump-spec | slipsim -spec
// /dev/stdin` is the identity.
//
// -cpuprofile writes a pprof CPU profile covering warmup + measurement;
// inspect it with `go tool pprof -top cpu.out`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/hier"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	var (
		wl       = flag.String("workload", "soplex", "benchmark name (see slipbench -list)")
		wl2      = flag.String("workload2", "", "second core's benchmark (with -cores 2)")
		policyFl = flag.String("policy", "slip+abp",
			"policy name, one of: "+strings.Join(hier.PolicyNames(), "|")+" (see -list-policies)")
		acc      = flag.Uint64("accesses", 2_000_000, "measured accesses")
		warm     = flag.Uint64("warmup", 2_000_000, "warmup accesses before stats reset")
		seed     = flag.Uint64("seed", 42, "random seed")
		cores    = flag.Int("cores", 1, "number of cores (private L2s, shared L3)")
		rrip     = flag.Bool("rrip", false, "use SRRIP replacement instead of LRU")
		binBits  = flag.Uint("binbits", 0, "distribution counter width (0 = default 4)")
		tech     = flag.String("tech", "", "technology node: 45nm (default) or 22nm")
		topology = flag.String("topology", "", "interconnect: way-interleaved (default), set-interleaved or h-tree")
		specIn   = flag.String("spec", "", "run a canonical spec JSON file instead of the flags ('-' for stdin)")
		dumpSpec = flag.Bool("dump-spec", false, "print the canonical spec JSON for the given flags and exit")
		traceIn  = flag.String("trace", "", "replay a binary trace file instead of a workload")
		sampling = flag.Int("sampling", 0, "set-sampling factor K: simulate 1/K of the cache sets and extrapolate (1 = full fidelity; valid: 1, 2, 4, 8, 16)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		listPol  = flag.Bool("list-policies", false, "list the registered policies with their metadata and exit")
	)
	flag.Parse()

	if *listPol {
		listPolicies(os.Stdout)
		return
	}

	// Resolve the run description: a spec file, or the flags translated
	// into the same declarative form.
	var sp spec.Spec
	if *specIn != "" {
		f := os.Stdin
		if *specIn != "-" {
			var err error
			if f, err = os.Open(*specIn); err != nil {
				fatal(err)
			}
			defer f.Close()
		}
		var err error
		if sp, err = spec.Parse(f); err != nil {
			fatal(err)
		}
	} else {
		sp = spec.Spec{
			Policy:   *policyFl,
			Workload: *wl,
			MixWith:  *wl2,
			Cores:    *cores,
			Accesses: *acc,
			Warmup:   warm,
			Seed:     *seed,
			BinBits:  uint8(*binBits),
			UseRRIP:  *rrip,
			Tech:     *tech,
			Topology: *topology,
			Sampling: *sampling,
		}
	}

	if *dumpSpec {
		if err := sp.EncodeJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	c, err := sp.Canonical()
	if err != nil && *traceIn == "" {
		fatal(err)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Trace replay bypasses the spec path: the access stream comes from a
	// file, so only the policy/knob flags apply.
	if *traceIn != "" {
		if *cores != 1 {
			fatal(fmt.Errorf("-trace replay supports one core"))
		}
		runTrace(*traceIn, *policyFl, *seed, *rrip, uint8(*binBits), *acc)
		return
	}

	// One run through the experiment engine, with its trace and warm-state
	// caches off: a lone run has nothing to share them with. A phase of at
	// least 200k accesses shards over the idle CPUs (up to 8), merging
	// bit-identically to the sequential run.
	suite := experiments.NewSuite(experiments.Options{
		TraceCacheBytes: -1,
		WarmCacheBytes:  -1,
	})
	sys, err := suite.RunSpecContext(context.Background(), c)
	if err != nil {
		fatal(err)
	}
	report(sys)
}

// listPolicies renders the policy registry: every run-nable policy with
// its aliases and capability bits, straight from the descriptors the
// simulator itself dispatches on.
func listPolicies(w io.Writer) {
	tb := stats.NewTable("Registered policies", "name", "aliases", "metadata", "latency", "machinery", "description")
	for _, d := range policy.Descriptors() {
		meta, lat, mach := "none", "per-way", "-"
		if d.UsesMetadata {
			meta = "12b sidecar"
		}
		if d.UniformLatency {
			lat = "uniform"
		}
		if d.SLIPMachinery {
			mach = "MMU+EOU"
			if d.AllowABP {
				mach = "MMU+EOU+ABP"
			}
		}
		tb.AddRow(d.Name, strings.Join(d.Aliases, ","), meta, lat, mach, d.Doc)
	}
	fmt.Fprintln(w, tb.String())
}

// runTrace replays a tracegen file through a single-core system.
func runTrace(path, policy string, seed uint64, rrip bool, binBits uint8, acc uint64) {
	pol, err := hier.ParsePolicy(policy)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	sys := hier.New(hier.Config{
		Policy:  pol,
		Seed:    seed,
		UseRRIP: rrip,
		BinBits: binBits,
	})
	sys.Run(trace.Limit(r, acc))
	report(sys)
}

func report(sys *hier.System) {
	cfg := sys.Config()
	pol := cfg.Policy
	fmt.Printf("policy: %s, cores: %d\n\n", pol, cfg.NumCores)

	tb := stats.NewTable("Per-level summary", "level", "accesses", "hit rate", "access pJ", "movement pJ", "metadata pJ", "total uJ")
	for c := 0; c < cfg.NumCores; c++ {
		l1, l2 := sys.L1(c), sys.L2(c)
		tb.AddRow(fmt.Sprintf("core%d L1", c),
			fmt.Sprintf("%d", l1.Stats.Accesses.Value()),
			fmt.Sprintf("%.1f%%", stats.Pct(float64(l1.Stats.Hits.Value()), float64(l1.Stats.Accesses.Value()))),
			fmt.Sprintf("%.0f", l1.Stats.AccessPJ.PJ()),
			fmt.Sprintf("%.0f", l1.Stats.MovementPJ.PJ()),
			"-",
			fmt.Sprintf("%.1f", l1.Stats.TotalPJ()/1e6))
		tb.AddRow(fmt.Sprintf("core%d L2", c),
			fmt.Sprintf("%d", l2.Stats.Accesses.Value()),
			fmt.Sprintf("%.1f%%", stats.Pct(float64(l2.Stats.Hits.Value()), float64(l2.Stats.Accesses.Value()))),
			fmt.Sprintf("%.0f", l2.Stats.AccessPJ.PJ()),
			fmt.Sprintf("%.0f", l2.Stats.MovementPJ.PJ()),
			fmt.Sprintf("%.0f", l2.Stats.MetadataPJ.PJ()),
			fmt.Sprintf("%.1f", l2.Stats.TotalPJ()/1e6))
	}
	l3 := sys.L3()
	tb.AddRow("L3",
		fmt.Sprintf("%d", l3.Stats.Accesses.Value()),
		fmt.Sprintf("%.1f%%", stats.Pct(float64(l3.Stats.Hits.Value()), float64(l3.Stats.Accesses.Value()))),
		fmt.Sprintf("%.0f", l3.Stats.AccessPJ.PJ()),
		fmt.Sprintf("%.0f", l3.Stats.MovementPJ.PJ()),
		fmt.Sprintf("%.0f", l3.Stats.MetadataPJ.PJ()),
		fmt.Sprintf("%.1f", l3.Stats.TotalPJ()/1e6))
	fmt.Println(tb.String())

	f2 := sys.SublevelHitFractions(2)
	f3 := sys.SublevelHitFractions(3)
	fmt.Printf("L2 sublevel hit shares: %.1f%% / %.1f%% / %.1f%%\n", 100*f2[0], 100*f2[1], 100*f2[2])
	fmt.Printf("L3 sublevel hit shares: %.1f%% / %.1f%% / %.1f%%\n\n", 100*f3[0], 100*f3[1], 100*f3[2])

	if pol.IsSLIP() {
		cls2 := sys.InsertionClassFractions(2)
		cls3 := sys.InsertionClassFractions(3)
		fmt.Printf("L2 insertions: ABP %.1f%%, partial %.1f%%, default %.1f%%, other %.1f%%\n",
			100*cls2[0], 100*cls2[1], 100*cls2[2], 100*cls2[3])
		fmt.Printf("L3 insertions: ABP %.1f%%, partial %.1f%%, default %.1f%%, other %.1f%%\n",
			100*cls3[0], 100*cls3[1], 100*cls3[2], 100*cls3[3])
		m := sys.MMU(0)
		fmt.Printf("TLB: %d hits, %d misses; profile fetches %d, writebacks %d; EOU runs %d (%.0f pJ)\n\n",
			m.Stats.TLBHits.Value(), m.Stats.TLBMisses.Value(),
			m.Stats.ProfileFetches.Value(), m.Stats.ProfileWrites.Value(),
			m.Stats.PolicyRecomputs.Value(), sys.EOUPJ())
	}

	d := sys.DRAM()
	fmt.Printf("DRAM: %d reads, %d writes, %d metadata transfers, %.1f uJ\n",
		d.Stats.Reads.Value(), d.Stats.Writes.Value(),
		d.Stats.MetadataReads.Value()+d.Stats.MetadataWrites.Value(),
		d.Stats.EnergyPJ.PJ()/1e6)
	for c := 0; c < cfg.NumCores; c++ {
		fmt.Printf("core%d: %d instrs, %.0f cycles, IPC %.2f\n",
			c, sys.Instrs(c), sys.Cycles(c), sys.IPC(c))
	}
	fmt.Printf("full-system dynamic energy: %.1f uJ\n", sys.FullSystemPJ()/1e6)
	if k := sys.SampleK(); k > 1 {
		fmt.Printf("\nset sampling 1/%d: %d accesses simulated, %d skipped\n",
			k, sys.SampledAccesses, sys.SkippedAccesses)
		fmt.Printf("extrapolated (x%d): L2 misses %d, L3 misses %d, DRAM traffic %d, "+
			"energy %.1f uJ, cycles %.0f, EDP %.3g pJ*cyc\n",
			k, sys.ScaledL2Misses(true), sys.ScaledL3Misses(true), sys.ScaledDRAMTraffic(),
			sys.ScaledFullSystemPJ()/1e6, sys.ScaledMaxCycles(), sys.ScaledEDP())
	}
}
