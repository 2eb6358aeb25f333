package hier

// Batch-boundary folding of staged reuse-distance evidence.
//
// Evidence sites in accessL2/accessL3 stage observations into PTE.Pend
// instead of applying Dist.Add inline (see stageEvidence). This file folds
// the staged counts into the real distributions in a canonical order —
// cores ascending, pages ascending, L2 vector before L3, bins low to high —
// so that the fold result is a pure function of the *set* of observations
// in the batch, never of the interleaving that produced them. That is the
// property the intra-run sharded executor leans on: S shards observe one
// batch's evidence partitioned by line-address group, exchange their staged
// counts at the batch barrier, and every replica applies this same
// canonical fold, keeping all replicas' page distributions bit-identical
// to each other and to the sequential run.

import (
	"slices"

	"repro/internal/core"
	"repro/internal/mem"
)

// applyPend folds one page's staged counts into its distributions in the
// canonical intra-page order (L2 vector first, bins low to high, each
// observation an individual Add so the saturating halving fires exactly
// where it would in a canonical sequential replay of the batch).
func applyPend(l2, l3 *core.Dist, counts *[2][core.NumBins]uint16) {
	for bin := 0; bin < core.NumBins; bin++ {
		for n := counts[0][bin]; n > 0; n-- {
			l2.Add(bin)
		}
	}
	for bin := 0; bin < core.NumBins; bin++ {
		for n := counts[1][bin]; n > 0; n-- {
			l3.Add(bin)
		}
	}
}

// FoldPending folds all staged reuse-distance evidence into the page
// distributions and clears the staging buffers. RunShardedContext calls it at
// every batch boundary and at stream end; callers driving Access directly
// (benchmark harnesses) must call it themselves every few thousand
// accesses, both to let pages stabilize and to keep the uint16 staging
// counters far from saturation.
func (s *System) FoldPending() {
	for _, cn := range s.cores {
		if len(cn.pendPages) == 0 {
			continue
		}
		sortPages(cn.pendPages)
		for _, page := range cn.pendPages {
			pte := cn.mmu.PTEOf(page)
			applyPend(&pte.L2Dist, &pte.L3Dist, &pte.Pend)
			pte.Pend = [2][core.NumBins]uint16{}
			pte.PendDirty = false
		}
		cn.pendPages = cn.pendPages[:0]
	}
}

// sortPages orders a page list ascending. Staged pages are unique (the
// PendDirty bit gates appends), so the order is total and the fold
// deterministic. slices.Sort is allocation-free, which keeps the whole
// access + fold path at zero allocations per access once its scratch
// buffers are warm (asserted by TestShardedAccessZeroAllocs).
func sortPages(pages []mem.PageID) {
	slices.Sort(pages)
}
