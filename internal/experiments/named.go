package experiments

import (
	"fmt"
	"strings"
)

// experimentOrder is the paper's presentation order, then the registry-wide
// policy table and the set-sampling calibration; slipbench's -exp all and
// the slipd /v1/experiments endpoint both follow it.
var experimentOrder = []string{
	"fig1", "fig3", "table2", "htree", "fig9", "fig10", "fig11", "fig12",
	"fig13", "fig14", "fig15", "fig16", "tech22", "binwidth", "sampling",
	"policies", "setsampling",
}

// ExperimentNames returns every experiment name in presentation order.
func ExperimentNames() []string {
	return append([]string(nil), experimentOrder...)
}

// ValidExperiment reports whether name is a known experiment.
func ValidExperiment(name string) bool {
	for _, n := range experimentOrder {
		if n == name {
			return true
		}
	}
	return false
}

// RunNamed runs the named experiment, printing its tables to the suite's
// configured Out, and errors (naming the valid set) on an unknown name.
// Simulations the experiment needs and has not memoized run inline; callers
// that want them cancellable or parallel should PrefetchContext the
// SpecsFor set first.
func (s *Suite) RunNamed(name string) error {
	switch name {
	case "fig1":
		s.Fig1()
	case "fig3":
		s.Fig3()
	case "table2":
		s.Table2()
	case "htree":
		s.HTree()
	case "fig9":
		s.Fig9()
	case "fig10":
		s.Fig10()
	case "fig11":
		s.Fig11()
	case "fig12":
		s.Fig12()
	case "fig13":
		s.Fig13()
	case "fig14":
		s.Fig14()
	case "fig15":
		s.Fig15()
	case "fig16":
		s.Fig16()
	case "tech22":
		s.Tech22()
	case "binwidth":
		s.BinWidth()
	case "sampling":
		s.Sampling()
	case "policies":
		s.Policies()
	case "setsampling":
		s.SetSampling()
	default:
		return fmt.Errorf("experiments: unknown experiment %q (valid: %s)",
			name, strings.Join(experimentOrder, ", "))
	}
	return nil
}
