package experiments

import (
	"fmt"

	"repro/internal/hier"
	"repro/internal/stats"
)

// PolicyRow is one registered policy's cross-benchmark summary: mean
// full-system dynamic energy and EDP over the benchmark set, savings
// versus the baseline row, and mean L2/L3 miss and bypass percentages.
type PolicyRow struct {
	Policy        string
	MeanEnergyUJ  float64
	MeanEDP       float64
	EnergySavePct float64
	EDPSavePct    float64
	MeanL2MissPct float64
	MeanL3MissPct float64
	MeanBypassPct float64
}

// PoliciesResult is the registry-wide energy/EDP table, one row per
// registered policy in registry order.
type PoliciesResult struct {
	Rows []PolicyRow
}

// Policies compares every registered policy — the paper's comparison set
// and the registry-only additions alike — over the suite's benchmarks on
// the same substrate: mean full-system energy and EDP with savings
// relative to the baseline, plus mean L2/L3 miss ratio and the share of
// fills bypassed.
func (s *Suite) Policies() PoliciesResult {
	var res PoliciesResult
	tb := stats.NewTable("Registered policies: mean full-system energy and EDP vs baseline",
		"policy", "energy (uJ)", "vs baseline", "EDP (pJ·cyc)", "vs baseline", "L2 miss", "L3 miss", "bypass")
	var baseEnergy, baseEDP []float64
	for _, wl := range s.opts.Benchmarks {
		base := s.Run(wl, hier.Baseline)
		baseEnergy = append(baseEnergy, base.ScaledFullSystemPJ()/1e6)
		baseEDP = append(baseEDP, base.ScaledEDP())
	}
	for _, p := range hier.AllPolicies() {
		var energy, edp, l2m, l3m, byp []float64
		for _, wl := range s.opts.Benchmarks {
			sys := s.Run(wl, p)
			energy = append(energy, sys.ScaledFullSystemPJ()/1e6)
			edp = append(edp, sys.ScaledEDP())
			l2m = append(l2m, 100*levelMissRatio(sys, 2))
			l3m = append(l3m, 100*levelMissRatio(sys, 3))
			byp = append(byp, bypassPct(sys))
		}
		r := PolicyRow{
			Policy:        p.String(),
			MeanEnergyUJ:  stats.Mean(energy),
			MeanEDP:       stats.Mean(edp),
			MeanL2MissPct: stats.Mean(l2m),
			MeanL3MissPct: stats.Mean(l3m),
			MeanBypassPct: stats.Mean(byp),
		}
		r.EnergySavePct = stats.Savings(stats.Mean(baseEnergy), r.MeanEnergyUJ)
		r.EDPSavePct = stats.Savings(stats.Mean(baseEDP), r.MeanEDP)
		res.Rows = append(res.Rows, r)
		tb.AddRow(r.Policy, fmt.Sprintf("%.1f", r.MeanEnergyUJ), fmt.Sprintf("%+.1f%%", r.EnergySavePct),
			fmt.Sprintf("%.3g", r.MeanEDP), fmt.Sprintf("%+.1f%%", r.EDPSavePct),
			fmt.Sprintf("%.1f%%", r.MeanL2MissPct), fmt.Sprintf("%.1f%%", r.MeanL3MissPct),
			fmt.Sprintf("%.1f%%", r.MeanBypassPct))
	}
	s.printf("%s\n", tb.String())
	return res
}

// bypassPct is the share of L2 and L3 fills (all cores) that bypassed the
// level, in percent.
func bypassPct(sys *hier.System) float64 {
	var fills, bypasses uint64
	for c := 0; c < sys.Config().NumCores; c++ {
		fills += sys.L2(c).Stats.Fills.Value()
		bypasses += sys.L2(c).Stats.Bypasses.Value()
	}
	fills += sys.L3().Stats.Fills.Value()
	bypasses += sys.L3().Stats.Bypasses.Value()
	if fills+bypasses == 0 {
		return 0
	}
	return 100 * float64(bypasses) / float64(fills+bypasses)
}
