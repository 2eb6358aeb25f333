package experiments

import (
	"fmt"
	"math"

	"repro/internal/hier"
	"repro/internal/stats"
)

// SamplingFactors are the set-sampling calibration points: the sampled
// copies of the fig9 matrix the setsampling experiment compares against
// full fidelity.
var SamplingFactors = []int{2, 4, 8, 16}

// SamplingErrorStat summarizes the relative error of one extrapolated
// metric over the run matrix, in percent.
type SamplingErrorStat struct {
	MeanAbsPct float64
	MaxAbsPct  float64
}

// SamplingFactorResult is the calibration outcome of one sampling factor:
// the extrapolation error of each headline metric across the matrix.
type SamplingFactorResult struct {
	Factor int
	// SampledShare is the mean fraction of accesses actually simulated
	// (~1/Factor by construction).
	SampledShare float64
	L2MissRatio  SamplingErrorStat
	L3MissRatio  SamplingErrorStat
	EnergyPJ     SamplingErrorStat
	EDP          SamplingErrorStat
}

// SetSamplingResult is the set-sampling accuracy calibration, one entry
// per factor of SamplingFactors.
type SetSamplingResult struct {
	Factors []SamplingFactorResult
}

// sampleRunMetrics are the per-run observables calibration compares. Miss
// ratios come from raw (unscaled) counters — numerator and denominator
// scale together, so the ratio is already an unbiased estimate — while
// energy and EDP use the extrapolated Scaled* accessors.
type sampleRunMetrics struct {
	l2MissRatio  float64
	l3MissRatio  float64
	energyPJ     float64
	edp          float64
	sampledShare float64
}

// levelMissRatio aggregates a level's demand miss ratio across cores.
func levelMissRatio(sys *hier.System, level int) float64 {
	var acc, miss uint64
	if level == 2 {
		for i := 0; i < sys.Config().NumCores; i++ {
			acc += sys.L2(i).Stats.Accesses.Value()
			miss += sys.L2(i).Stats.Misses.Value()
		}
	} else {
		acc = sys.L3().Stats.Accesses.Value()
		miss = sys.L3().Stats.Misses.Value()
	}
	if acc == 0 {
		return 0
	}
	return float64(miss) / float64(acc)
}

func metricsOf(sys *hier.System) sampleRunMetrics {
	m := sampleRunMetrics{
		l2MissRatio: levelMissRatio(sys, 2),
		l3MissRatio: levelMissRatio(sys, 3),
		energyPJ:    sys.ScaledFullSystemPJ(),
		edp:         sys.ScaledEDP(),
	}
	if driven := sys.SampledAccesses + sys.SkippedAccesses; driven > 0 {
		m.sampledShare = float64(sys.SampledAccesses) / float64(driven)
	} else {
		m.sampledShare = 1 // sampling off: everything was simulated
	}
	return m
}

// relErrPct is the absolute relative error of got vs want, in percent.
// A zero ground truth matched by a zero estimate is 0% error; a zero
// ground truth missed by a nonzero estimate counts as 100%.
func relErrPct(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 100
	}
	return 100 * math.Abs(got-want) / math.Abs(want)
}

// observe folds one run's error into the stat (mean is accumulated as a
// sum here; finish divides).
func (e *SamplingErrorStat) observe(got, want float64) {
	pct := relErrPct(got, want)
	e.MeanAbsPct += pct
	if pct > e.MaxAbsPct {
		e.MaxAbsPct = pct
	}
}

func (e *SamplingErrorStat) finish(n int) { e.MeanAbsPct /= float64(n) }

// samplingMatrix is the fig9 matrix (every benchmark against baseline and
// the evaluated policies) pinned to sampling factor k. k = 1 is explicit
// full fidelity, so the ground truth stays unsampled even when the suite
// stamps a default factor into every other run.
func (s *Suite) samplingMatrix(k int) []RunSpec {
	specs := s.matrix(append([]hier.PolicyKind{hier.Baseline}, evalPolicies...)...)
	for i := range specs {
		specs[i].Sampling = k
	}
	return specs
}

// SetSampling calibrates set sampling: the fig9 matrix at each factor of
// SamplingFactors against the same matrix at full fidelity, reporting the
// mean and max absolute extrapolation error of per-level miss ratios,
// full-system energy and EDP, and the share of accesses simulated. Its
// wall-clock counterpart is BenchmarkSetSampling.
func (s *Suite) SetSampling() SetSamplingResult {
	var res SetSamplingResult
	tb := stats.NewTable("Set sampling: extrapolation error vs full fidelity over the fig9 matrix (mean / max abs %)",
		"factor", "sampled", "L2 miss ratio", "L3 miss ratio", "energy", "EDP")
	var full []sampleRunMetrics
	for _, sp := range s.samplingMatrix(1) {
		full = append(full, metricsOf(s.RunS(sp)))
	}
	for _, k := range SamplingFactors {
		fr := SamplingFactorResult{Factor: k}
		for i, sp := range s.samplingMatrix(k) {
			got := metricsOf(s.RunS(sp))
			fr.L2MissRatio.observe(got.l2MissRatio, full[i].l2MissRatio)
			fr.L3MissRatio.observe(got.l3MissRatio, full[i].l3MissRatio)
			fr.EnergyPJ.observe(got.energyPJ, full[i].energyPJ)
			fr.EDP.observe(got.edp, full[i].edp)
			fr.SampledShare += got.sampledShare
		}
		n := len(full)
		fr.L2MissRatio.finish(n)
		fr.L3MissRatio.finish(n)
		fr.EnergyPJ.finish(n)
		fr.EDP.finish(n)
		fr.SampledShare /= float64(n)
		res.Factors = append(res.Factors, fr)
		cell := func(e SamplingErrorStat) string {
			return fmt.Sprintf("%.2f%% / %.2f%%", e.MeanAbsPct, e.MaxAbsPct)
		}
		tb.AddRow(fmt.Sprintf("1/%d", k), fmt.Sprintf("%.3f", fr.SampledShare),
			cell(fr.L2MissRatio), cell(fr.L3MissRatio), cell(fr.EnergyPJ), cell(fr.EDP))
	}
	s.printf("%s\n", tb.String())
	return res
}
