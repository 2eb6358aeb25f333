// Package mmu models the virtual-memory side of SLIP (Sections 4.1-4.3): a
// page table whose PTEs carry the per-page SLIP codes (3b per level, stored
// in ignored x86-64 PTE bits) and the sampling-state bit, per-page
// reuse-distance distributions (32b per page, resident in DRAM and fetched
// through the cache hierarchy as metadata traffic), a small fully
// associative TLB, and the time-based sampling state machine with
// Nsamp = 16 and Nstab = 256.
package mmu

import (
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Default sampling parameters from Section 4.2: a sampling page turns
// stable with probability 1/Nsamp per TLB miss, a stable page turns
// sampling with probability 1/Nstab, so roughly
// Nsamp/(Nsamp+Nstab) ≈ 6% of TLB misses fetch distribution metadata.
const (
	DefaultNsamp = 16
	DefaultNstab = 256
	// DefaultTLBEntries is the TLB reach used in evaluation.
	DefaultTLBEntries = 64
	// DefaultMinSamples gates the sampling->stable transition: a page may
	// only stabilize once its distributions hold this many observations,
	// so a page cannot freeze onto a policy chosen from a handful of cold
	// first-touch misses. Sixteen is reachable even for single-bin
	// distributions, whose halving keeps each level's total in [8, 30].
	// (One extra 5-bit comparison in the TLB-miss handler; see DESIGN.md.)
	DefaultMinSamples = 16
)

// PTE is one page's extended page-table entry. The architectural storage is
// 6 SLIP bits + 1 state bit in the PTE plus 32 distribution bits in DRAM;
// this struct is the simulator's single source of truth for both.
type PTE struct {
	// L2SLIP and L3SLIP are the 3-bit policy codes for each level.
	L2SLIP uint8
	L3SLIP uint8
	// Sampling is the state bit: distributions are only collected while
	// sampling, and sampling pages insert with the Default SLIP.
	Sampling bool
	// HasPolicy reports whether the EOU has ever assigned codes; pages
	// without a policy use the Default SLIP (warmup rule of Section 3.1).
	HasPolicy bool
	// L2Dist and L3Dist are the page's quantized reuse-distance
	// distributions (4 bits x 4 bins each, Section 4.1).
	L2Dist core.Dist
	L3Dist core.Dist
	// Pend stages reuse-distance observations not yet folded into the
	// distributions: Pend[0] bins feed L2Dist, Pend[1] bins feed L3Dist.
	// The hierarchy buffers observations here during one replay batch and
	// folds them in a canonical order at the batch boundary, because the
	// distributions' saturating halving makes Dist.Add order-sensitive:
	// intra-run shards observe a batch's evidence in different
	// interleavings but fold identical aggregates, so every shard's
	// replicated page state stays bit-identical. Counts cannot overflow
	// uint16 — a batch is at most 4096 accesses, each adding at most two
	// observations. Pend is empty between runs.
	Pend [2][core.NumBins]uint16
	// PendDirty marks a page with staged observations; the hierarchy keeps
	// dirty pages on a list and clears the flag at each fold.
	PendDirty bool
}

// Config parameterizes the MMU.
type Config struct {
	// Nsamp and Nstab are the sampling state-machine constants (defaults
	// applied when zero).
	Nsamp, Nstab int
	// TLBEntries is the TLB capacity (default applied when zero).
	TLBEntries int
	// Seed drives the random state transitions.
	Seed uint64
	// BinBits overrides the distribution counter width (0 = 4 bits),
	// used by the bit-width sensitivity study.
	BinBits uint8
	// MinSamples overrides the stable-transition evidence gate
	// (default applied when zero; negative disables the gate).
	MinSamples int
	// DisableSampling forces every page to remain in the sampling state
	// forever, modelling the always-fetch design whose metadata traffic
	// motivated time-based sampling (Section 4.1).
	DisableSampling bool
}

// Stats counts MMU events.
type Stats struct {
	TLBHits         stats.Counter
	TLBMisses       stats.Counter
	ProfileFetches  stats.Counter // 32b distribution reads on TLB miss
	ProfileWrites   stats.Counter // distribution writebacks on TLB eviction
	ToStable        stats.Counter // sampling -> stable transitions
	ToSampling      stats.Counter // stable -> sampling transitions
	PolicyRecomputs stats.Counter // EOU invocations
}

// MMU is the TLB + page table pair. The TLB is three parallel packed
// slices (page keys, PTE pointers, LRU stamps) rather than a map or a
// struct slice: the hit scan touches only the contiguous page-key array —
// 64 entries fit in eight cache lines — and the LRU victim scan touches
// only the stamp array. Lookup order is a pure performance concern: the
// slot of the previous hit is probed first (accesses burst within a page),
// and each scan hit transposes the entry one slot toward the front so hot
// pages cluster there. Replacement is decided by stamps alone, which are
// unique (one clock tick per translation), so the minimum-stamp victim —
// and therefore every architectural event — is identical no matter how the
// slots are ordered.
type MMU struct {
	cfg       Config
	pages     map[mem.PageID]*PTE
	tlbPages  []mem.PageID
	tlbPTEs   []*PTE
	tlbStamps []uint64
	lastHit   int
	clock     uint64
	rng       *trace.RNG

	Stats Stats
}

// New builds an MMU.
func New(cfg Config) *MMU {
	if cfg.Nsamp <= 0 {
		cfg.Nsamp = DefaultNsamp
	}
	if cfg.Nstab <= 0 {
		cfg.Nstab = DefaultNstab
	}
	if cfg.TLBEntries <= 0 {
		cfg.TLBEntries = DefaultTLBEntries
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = DefaultMinSamples
	}
	return &MMU{
		cfg:       cfg,
		pages:     make(map[mem.PageID]*PTE),
		tlbPages:  make([]mem.PageID, 0, cfg.TLBEntries),
		tlbPTEs:   make([]*PTE, 0, cfg.TLBEntries),
		tlbStamps: make([]uint64, 0, cfg.TLBEntries),
		rng:       trace.NewRNG(cfg.Seed ^ 0x51e9),
	}
}

// PTEOf returns the page's entry, allocating a fresh sampling-state PTE on
// first touch (pages start sampling so their distributions get collected).
func (m *MMU) PTEOf(p mem.PageID) *PTE {
	pte, ok := m.pages[p]
	if !ok {
		pte = &PTE{Sampling: true}
		pte.L2Dist.Bits = m.cfg.BinBits
		pte.L3Dist.Bits = m.cfg.BinBits
		m.pages[p] = pte
	}
	return pte
}

// NumPages returns the number of pages touched so far.
func (m *MMU) NumPages() int { return len(m.pages) }

// TranslateResult reports what a translation did, so the hierarchy driver
// can issue the implied metadata traffic and EOU work.
type TranslateResult struct {
	PTE *PTE
	// TLBMiss reports a page-table walk happened.
	TLBMiss bool
	// FetchProfile is set when the page was sampling at miss time: its 32b
	// distribution must be read through the memory hierarchy (Ë in Fig. 7).
	FetchProfile bool
	// WritebackProfile is the page whose sampled distribution was displaced
	// from the TLB and must be written back; Valid marks presence.
	WritebackProfile mem.PageID
	WritebackValid   bool
	// BecameStable is set when the sampling state machine transitioned the
	// page to stable: the caller must recompute its SLIPs with the EOU
	// (Í in Fig. 7).
	BecameStable bool
}

// Translate looks page p up in the TLB, running the Section 4.2 state
// machine on misses.
func (m *MMU) Translate(p mem.PageID) TranslateResult {
	m.clock++
	// Same-page bursts resolve against the previous hit's slot without a
	// scan; the stamp still advances, so LRU state is exactly as if the
	// full scan had run.
	if li := m.lastHit; li < len(m.tlbPages) && m.tlbPages[li] == p {
		m.tlbStamps[li] = m.clock
		m.Stats.TLBHits.Inc()
		return TranslateResult{PTE: m.tlbPTEs[li]}
	}
	for i, pg := range m.tlbPages {
		if pg == p {
			m.tlbStamps[i] = m.clock
			pte := m.tlbPTEs[i]
			if i > 0 {
				// Transpose toward the front to shorten future scans;
				// order never affects replacement (stamps do).
				j := i - 1
				m.tlbPages[i], m.tlbPages[j] = m.tlbPages[j], m.tlbPages[i]
				m.tlbPTEs[i], m.tlbPTEs[j] = m.tlbPTEs[j], m.tlbPTEs[i]
				m.tlbStamps[i], m.tlbStamps[j] = m.tlbStamps[j], m.tlbStamps[i]
				i = j
			}
			m.lastHit = i
			m.Stats.TLBHits.Inc()
			return TranslateResult{PTE: pte}
		}
	}
	pte := m.PTEOf(p)
	m.Stats.TLBMisses.Inc()
	res := TranslateResult{PTE: pte, TLBMiss: true}
	// Evict the LRU TLB entry when full; a displaced sampling page's
	// distribution counters are written back to DRAM.
	if len(m.tlbPages) >= m.cfg.TLBEntries {
		victim := 0
		for i, st := range m.tlbStamps {
			if st < m.tlbStamps[victim] {
				victim = i
			}
		}
		if vp := m.tlbPTEs[victim]; vp.Sampling {
			m.Stats.ProfileWrites.Inc()
			res.WritebackProfile = m.tlbPages[victim]
			res.WritebackValid = true
		}
		m.tlbPages[victim] = p
		m.tlbPTEs[victim] = pte
		m.tlbStamps[victim] = m.clock
		m.lastHit = victim
	} else {
		m.tlbPages = append(m.tlbPages, p)
		m.tlbPTEs = append(m.tlbPTEs, pte)
		m.tlbStamps = append(m.tlbStamps, m.clock)
		m.lastHit = len(m.tlbPages) - 1
	}
	if pte.Sampling {
		// Distribution metadata is only fetched for sampling pages.
		m.Stats.ProfileFetches.Inc()
		res.FetchProfile = true
	}
	// Random state transition (Ì in Fig. 7).
	if !m.cfg.DisableSampling {
		if pte.Sampling {
			enough := m.cfg.MinSamples < 0 ||
				pte.L2Dist.Total()+pte.L3Dist.Total() >= uint64(m.cfg.MinSamples)
			if enough && m.rng.Bool(1/float64(m.cfg.Nsamp)) {
				pte.Sampling = false
				m.Stats.ToStable.Inc()
				res.BecameStable = true
			}
		} else if m.rng.Bool(1 / float64(m.cfg.Nstab)) {
			pte.Sampling = true
			m.Stats.ToSampling.Inc()
		}
	}
	return res
}

// NotePolicyUpdate counts an EOU recomputation for accounting (the caller
// performs the optimization and stores the codes).
func (m *MMU) NotePolicyUpdate() { m.Stats.PolicyRecomputs.Inc() }

// InTLB reports whether p currently hits in the TLB.
func (m *MMU) InTLB(p mem.PageID) bool {
	for _, pg := range m.tlbPages {
		if pg == p {
			return true
		}
	}
	return false
}

// ProfileBase is the start of the reserved physical region where page
// profiles live.
const ProfileBase = mem.Addr(0xf000_0000_0000)

// ProfileAddr maps a page's 32-bit distribution record to the reserved
// physical region where profiles live, so metadata traffic flows through
// the cache hierarchy like any other access: 16 page profiles share one
// cache line, which is why most metadata requests hit in the L3
// (Section 6, Figure 12 discussion).
func ProfileAddr(p mem.PageID) mem.Addr {
	return ProfileBase + mem.Addr(uint64(p)*4)
}
