package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"repro/internal/hier"
	"repro/internal/service"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// outputs is the part of a finished simulation the correctness digest
// covers: every counter and energy total a figure reports, exactly, and
// nothing measured in host time.
type outputs struct {
	Instrs, L2Misses, L3Misses, DRAMTraffic, DRAMDemand uint64
	FullSystemPJ, Cycles                                float64
}

func outputsOf(sys *hier.System) outputs {
	return outputs{
		Instrs:       sys.TotalInstrs(),
		L2Misses:     sys.ScaledL2Misses(true),
		L3Misses:     sys.ScaledL3Misses(true),
		DRAMTraffic:  sys.ScaledDRAMTraffic(),
		DRAMDemand:   sys.DRAMDemandTraffic() * uint64(sys.SampleK()),
		FullSystemPJ: sys.ScaledFullSystemPJ(),
		Cycles:       sys.ScaledMaxCycles(),
	}
}

func outputsOfResult(r *service.RunResult) outputs {
	return outputs{
		Instrs:       r.Instrs,
		L2Misses:     r.L2Misses,
		L3Misses:     r.L3Misses,
		DRAMTraffic:  r.DRAMTraffic,
		DRAMDemand:   r.DRAMDemandTraffic,
		FullSystemPJ: r.FullSystemPJ,
		Cycles:       r.Cycles,
	}
}

func (o outputs) String() string {
	return fmt.Sprintf("%d/%d/%d/%d/%d/%x/%x", o.Instrs, o.L2Misses, o.L3Misses, o.DRAMTraffic,
		o.DRAMDemand, math.Float64bits(o.FullSystemPJ), math.Float64bits(o.Cycles))
}

// digest hashes a set of runs, keyed by spec hash, independent of the
// order they finished in.
func digest(runs map[string]outputs) string {
	h := sha256.New()
	for _, k := range sortedKeys(runs) {
		fmt.Fprintf(h, "%s %s\n", k, runs[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
