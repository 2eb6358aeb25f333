package experiments

import (
	"strings"
	"testing"

	"repro/internal/policy"
)

// TestPoliciesTable checks the registry-wide policy table: one row per
// registered policy in registry order, a zero-savings baseline row, and
// every registered name in the printed table.
func TestPoliciesTable(t *testing.T) {
	var out strings.Builder
	s := NewSuite(Options{
		Accesses: 20_000, Warmup: 20_000, Seed: 7,
		Benchmarks: []string{"milc", "sphinx3"}, Out: &out,
	})
	res := s.Policies()
	descs := policy.Descriptors()
	if len(res.Rows) != len(descs) {
		t.Fatalf("%d rows, want one per registered policy (%d)", len(res.Rows), len(descs))
	}
	for i, d := range descs {
		r := res.Rows[i]
		if r.Policy != d.Name {
			t.Errorf("row %d is %q, want %q (registry order)", i, r.Policy, d.Name)
		}
		if r.MeanEnergyUJ <= 0 || r.MeanEDP <= 0 {
			t.Errorf("%s: non-positive energy %v / EDP %v", r.Policy, r.MeanEnergyUJ, r.MeanEDP)
		}
		if d.Name == "baseline" && (r.EnergySavePct != 0 || r.EDPSavePct != 0) {
			t.Errorf("baseline savings = %v%% energy, %v%% EDP, want 0", r.EnergySavePct, r.EDPSavePct)
		}
		if !strings.Contains(out.String(), "\n"+d.Name+" ") {
			t.Errorf("printed table has no %q row:\n%s", d.Name, out.String())
		}
	}
}
