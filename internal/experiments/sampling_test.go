package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/hier"
	"repro/internal/spec"
)

// TestSamplingKeysSplit proves a sampled run can never collide with its
// full-fidelity twin in any cache layer: the memo/store key (the spec
// hash) and the warm-snapshot key both split on the sampling factor, while
// the trace materialization key — workload, seed, length — is shared, so
// sampled runs reuse already-materialized traces.
func TestSamplingKeysSplit(t *testing.T) {
	s := NewSuite(Options{Accesses: 10_000, Warmup: 10_000, Seed: 7})
	full := spec.Single("milc", hier.SLIPABP)
	sampled := full
	sampled.Sampling = 8

	if s.KeyFor(full) == s.KeyFor(sampled) {
		t.Error("memo key does not split on sampling")
	}

	cFull, err := s.ResolveSpec(full)
	if err != nil {
		t.Fatal(err)
	}
	cSampled, err := s.ResolveSpec(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if warmCacheKey(cFull) == warmCacheKey(cSampled) {
		t.Error("warm-snapshot key does not split on sampling")
	}

	// Sampling never reaches the trace identity: the full access stream is
	// generated (and materialized) identically; only its consumption is
	// filtered.
	if cFull.Workload != cSampled.Workload || cFull.Seed != cSampled.Seed ||
		cFull.Accesses != cSampled.Accesses || *cFull.Warmup != *cSampled.Warmup {
		t.Error("sampling leaked into the trace identity fields")
	}
}

// TestOptionsSamplingStamp checks the suite-wide knob: Options.Sampling
// reaches every spec that leaves Sampling unset, while a spec's explicit
// choice — including 1, the full-fidelity escape hatch — wins.
func TestOptionsSamplingStamp(t *testing.T) {
	s := NewSuite(Options{Accesses: 10_000, Warmup: 10_000, Seed: 7, Sampling: 8})

	c, err := s.ResolveSpec(spec.Single("milc", hier.SLIP))
	if err != nil {
		t.Fatal(err)
	}
	if c.Sampling != 8 {
		t.Errorf("unset spec resolved to Sampling=%d, want suite default 8", c.Sampling)
	}

	pinned := spec.Single("milc", hier.SLIP)
	pinned.Sampling = 1
	c, err = s.ResolveSpec(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sampling != 0 {
		t.Errorf("explicit Sampling=1 resolved to %d, want 0 (canonical full fidelity)", c.Sampling)
	}
}

// TestSampledRunThroughSuite runs one sampled spec end to end through the
// memoized engine (trace cache + warm cache active) and sanity-checks the
// extrapolated system against its full-fidelity twin.
func TestSampledRunThroughSuite(t *testing.T) {
	s := NewSuite(Options{Accesses: 200_000, Warmup: 100_000, WarmupSet: true, Seed: 7})

	full := s.RunS(spec.Single("milc", hier.SLIPABP))
	sampled8 := spec.Single("milc", hier.SLIPABP)
	sampled8.Sampling = 8
	samp := s.RunS(sampled8)

	if samp.SampleK() != 8 {
		t.Fatalf("SampleK = %d, want 8", samp.SampleK())
	}
	if samp.SampledAccesses == 0 || samp.SkippedAccesses == 0 {
		t.Fatal("sampled run did not partition accesses")
	}
	// The calibration harness quantifies accuracy; here just require the
	// extrapolation to land within a loose 25% of full fidelity, which
	// catches scaling bugs (forgot a ×K, double-scaled) without being a
	// statistical flake.
	relErr := func(got, want float64) float64 {
		if want == 0 {
			return 0
		}
		return math.Abs(got-want) / want
	}
	if e := relErr(samp.ScaledFullSystemPJ(), full.FullSystemPJ()); e > 0.25 {
		t.Errorf("scaled energy off by %.1f%% from full fidelity", 100*e)
	}
	if e := relErr(float64(samp.ScaledL3Misses(true)), float64(full.L3Misses(true))); e > 0.25 {
		t.Errorf("scaled L3 misses off by %.1f%% from full fidelity", 100*e)
	}
}

// TestSetSamplingTable renders the set-sampling calibration at toy sizes
// and checks its shape: one entry per factor in SamplingFactors, a sampled
// share near 1/K, finite error statistics, and a full-fidelity ground
// truth that stays unsampled when the suite stamps a default factor.
func TestSetSamplingTable(t *testing.T) {
	var out strings.Builder
	s := NewSuite(Options{
		Accesses:   30_000,
		Warmup:     20_000,
		WarmupSet:  true,
		Seed:       7,
		Sampling:   8,
		Benchmarks: []string{"milc", "mcf"},
		Out:        &out,
	})
	res := s.SetSampling()
	if len(res.Factors) != len(SamplingFactors) {
		t.Fatalf("Factors = %+v, want one per factor in %v", res.Factors, SamplingFactors)
	}
	for i, f := range res.Factors {
		if f.Factor != SamplingFactors[i] {
			t.Errorf("entry %d is factor %d, want %d", i, f.Factor, SamplingFactors[i])
		}
		if want := 1 / float64(f.Factor); f.SampledShare <= want/2 || f.SampledShare >= 2*want {
			t.Errorf("1/%d: SampledShare = %v, want near %v", f.Factor, f.SampledShare, want)
		}
		for name, st := range map[string]SamplingErrorStat{
			"L2MissRatio": f.L2MissRatio,
			"L3MissRatio": f.L3MissRatio,
			"EnergyPJ":    f.EnergyPJ,
			"EDP":         f.EDP,
		} {
			if math.IsNaN(st.MeanAbsPct) || math.IsNaN(st.MaxAbsPct) ||
				st.MeanAbsPct < 0 || st.MaxAbsPct < st.MeanAbsPct {
				t.Errorf("1/%d %s error stat malformed: %+v", f.Factor, name, st)
			}
		}
		if !strings.Contains(out.String(), fmt.Sprintf("1/%d ", f.Factor)) {
			t.Errorf("printed table has no 1/%d row:\n%s", f.Factor, out.String())
		}
	}
	for _, sp := range s.samplingMatrix(1) {
		if sys := s.RunS(sp); sys.SkippedAccesses != 0 {
			t.Errorf("%s: full-fidelity ground truth skipped %d accesses", sp.Label(), sys.SkippedAccesses)
		}
	}
}
