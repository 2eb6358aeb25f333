package hier

import (
	"repro/internal/mem"
	"repro/internal/policy"
)

// Snapshot is a frozen deep copy of a System's mutable state — cache
// contents and tag arrays, replacement and movement-queue state, MMU page
// table and TLB, policy bookkeeping, RNG cursors, DRAM/timing/energy
// counters. A snapshot is immutable once taken: every System() call
// materializes a fresh, independent machine, so one post-warmup snapshot can
// seed any number of measured runs, concurrently, each bit-identical to a
// run that had executed the warmup itself.
type Snapshot struct {
	// frozen is a private clone, never driven; it only ever serves as the
	// copy source for System().
	frozen *System
	size   int
}

// Snapshot captures the system's current state.
func (s *System) Snapshot() *Snapshot {
	frozen := s.clone()
	sz := 512 // struct overhead
	for _, cn := range frozen.cores {
		sz += cn.l1.SizeBytes() + cn.l2.SizeBytes()
		if cn.mmu != nil {
			sz += cn.mmu.SizeBytes()
		}
	}
	sz += frozen.l3.SizeBytes()
	return &Snapshot{frozen: frozen, size: sz}
}

// System materializes an independent live System from the snapshot. The
// snapshot itself is untouched and reusable.
func (sn *Snapshot) System() *System { return sn.frozen.clone() }

// Restore replaces s's entire state with an independent copy of the
// snapshot, as if s had just executed whatever history the snapshot froze.
func (s *System) Restore(sn *Snapshot) { *s = *sn.frozen.clone() }

// SizeBytes estimates the retained footprint of the snapshot, charged by
// byte-budgeted snapshot caches. Cache arrays and the MMU page table
// dominate; each is sized from its layout, so the estimate covers what
// Snapshot allocates and overshoots it by a few percent.
func (sn *Snapshot) SizeBytes() int { return sn.size }

// Config returns the configuration of the snapshotted system.
func (sn *Snapshot) Config() Config { return sn.frozen.cfg }

// clone deep-copies every mutable piece of the system. Immutable
// configuration — energy params, encoders, EOU tables, bin boundaries — is
// shared; everything a simulation step can write is duplicated.
func (s *System) clone() *System {
	c := &System{
		cfg:  s.cfg,
		l3:   s.l3.Clone(),
		d3:   s.d3.Clone(),
		dram: s.dram.Clone(),

		encL2: s.encL2,
		encL3: s.encL3,
		cumL2: s.cumL2,
		cumL3: s.cumL3,

		defCodeL2:   s.defCodeL2,
		defCodeL3:   s.defCodeL3,
		uniformLat2: s.uniformLat2,
		uniformLat3: s.uniformLat3,

		NRHist: s.NRHist,

		L2DemandMisses: s.L2DemandMisses,
		L2MetaAccesses: s.L2MetaAccesses,
		L2MetaMisses:   s.L2MetaMisses,
		L3DemandMisses: s.L3DemandMisses,
		L3MetaAccesses: s.L3MetaAccesses,
		L3MetaMisses:   s.L3MetaMisses,

		EOUOps: s.EOUOps,

		sampleMask:      s.sampleMask,
		shardMask:       s.shardMask,
		SampledAccesses: s.SampledAccesses,
		SkippedAccesses: s.SkippedAccesses,
	}
	if s.eouL2 != nil {
		c.eouL2 = s.eouL2.Clone()
	}
	if s.eouL3 != nil {
		c.eouL3 = s.eouL3.Clone()
	}
	// The typed SLIP pointers must alias the cloned drivers exactly as the
	// originals alias theirs (slipL3 IS d3 when the policy is SLIP).
	if d, ok := c.d3.(*policy.SLIP); ok {
		c.slipL3 = d
	}
	c.cores = make([]*coreNode, len(s.cores))
	for i, cn := range s.cores {
		nc := &coreNode{
			id:           cn.id,
			l1:           cn.l1.Clone(),
			l2:           cn.l2.Clone(),
			d2:           cn.d2.Clone(),
			Instrs:       cn.Instrs,
			demandStalls: cn.demandStalls,
			policyStalls: cn.policyStalls,
		}
		if len(cn.pendPages) > 0 {
			// Staged evidence travels with the clone (PTE.Pend already
			// copied inside mmu.Clone); systems at rest have none.
			nc.pendPages = append([]mem.PageID(nil), cn.pendPages...)
		}
		if cn.mmu != nil {
			nc.mmu = cn.mmu.Clone()
		}
		if d, ok := nc.d2.(*policy.SLIP); ok {
			c.slipL2 = append(c.slipL2, d)
		}
		c.cores[i] = nc
	}
	return c
}
