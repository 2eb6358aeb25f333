// Package hier assembles the full memory hierarchy the paper simulates:
// per-core L1 and L2, a shared L3, DRAM, the MMU with time-based sampling,
// and the EOU — then drives trace sources through it while accounting
// energy, traffic and a stall-based timing model. It is the trace-driven
// substitute for the paper's MARSSx86 full-system simulation (see
// DESIGN.md for the substitution argument).
package hier

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/cache"
	slipcore "repro/internal/core"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/policy"
)

// PolicyKind is a thin handle onto the policy registry: its numeric value
// is the registering driver's rank (see policy.Register), so the zero
// value stays the baseline and existing call sites keep compiling. All
// naming, parsing and capability questions delegate to the registered
// Descriptor — hier no longer enumerates policies anywhere.
type PolicyKind int

// Named handles for the registered policies: the paper's Section 5
// comparison set plus the post-publication registry additions. The
// constants track the registration ranks; TestPolicyRegistryProjection
// guards the alignment.
const (
	Baseline PolicyKind = iota
	SLIP                // SLIP without the All-Bypass Policy
	SLIPABP             // SLIP with ABP in the candidate pool
	NuRAPID
	LRUPEA
	ReuseBypass // Reuse Detector insertion bypass
	LWRP        // least weighted reuse probability replacement
)

// Descriptor returns the policy's registry entry (nil for an invalid
// handle).
func (p PolicyKind) Descriptor() *policy.Descriptor { return policy.ByIndex(int(p)) }

// String names the policy.
func (p PolicyKind) String() string {
	if d := p.Descriptor(); d != nil {
		return d.Name
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// IsSLIP reports whether the policy uses the SLIP machinery (MMU sampling,
// EOU, PTE codes).
func (p PolicyKind) IsSLIP() bool {
	d := p.Descriptor()
	return d != nil && d.SLIPMachinery
}

// PolicyNames lists the canonical policy names in registry rank order.
func PolicyNames() []string { return policy.Names() }

// AllPolicies lists every registered policy's handle in rank order.
func AllPolicies() []PolicyKind {
	out := make([]PolicyKind, 0, policy.Count())
	for i := 0; i < policy.Count(); i++ {
		if policy.ByIndex(i) != nil {
			out = append(out, PolicyKind(i))
		}
	}
	return out
}

// ParsePolicy is the inverse of PolicyKind.String. It also accepts each
// policy's registered aliases ("slip-abp"/"slipabp" for slip+abp, "lrupea"
// for lru-pea) and is the single parser shared by CLI flags, spec files
// and the slipd wire format.
func ParsePolicy(name string) (PolicyKind, error) {
	if i, _, ok := policy.Resolve(name); ok {
		return PolicyKind(i), nil
	}
	return 0, fmt.Errorf("unknown policy %q (valid: %s)", name, strings.Join(PolicyNames(), ", "))
}

// Config describes a system to simulate. Zero-value fields default to the
// paper's Table 1/2 configuration.
type Config struct {
	Policy PolicyKind
	// NumCores is 1 (default) up to MaxCores; cores get private L1/L2 and
	// share the L3 (the Figure 16 setup).
	NumCores int
	// L2Params/L3Params default to the 45nm presets.
	L2Params *energy.LevelParams
	L3Params *energy.LevelParams
	// L2Bytes/L3Bytes default to 256KB / 2MB.
	L2Bytes, L3Bytes uint64
	// DRAM defaults to the 45nm model.
	DRAM energy.DRAMParams
	// Core defaults to energy.DefaultCore().
	Core energy.CoreParams
	// Seed drives sampling transitions and LRU-PEA randomness.
	Seed uint64
	// BinBits overrides distribution counter width (0 = 4 bits).
	BinBits uint8
	// DisableSampling pins every page to the sampling state (the
	// always-fetch strawman of Section 4.1).
	DisableSampling bool
	// UseRRIP switches the underlying replacement policy to SRRIP
	// (Section 7 extension).
	UseRRIP bool
	// SampleK/SampleMask enable the set-sampled fast path. When SampleK > 1
	// only accesses whose line-address group (line mod 64, i.e. address
	// bits 6..11) has its bit set in SampleMask are simulated; the rest
	// short-circuit with base-CPI timing before any tag/policy/energy work.
	// SampleMask must have exactly 64/SampleK bits set (spec.SampleSelection
	// produces valid masks deterministically). SampleK <= 1 is the
	// full-fidelity path, bit-identical to a config without these fields.
	SampleK    int
	SampleMask uint64
}

// fillDefaults applies the paper configuration to unset fields.
func (c *Config) fillDefaults() {
	if c.NumCores <= 0 {
		c.NumCores = 1
	}
	if c.L2Params == nil {
		c.L2Params = energy.L2Params45()
	}
	if c.L3Params == nil {
		c.L3Params = energy.L3Params45()
	}
	if c.L2Bytes == 0 {
		c.L2Bytes = 256 * mem.KB
	}
	if c.L3Bytes == 0 {
		c.L3Bytes = 2 * mem.MB
	}
	if c.DRAM == (energy.DRAMParams{}) {
		c.DRAM = energy.DRAM45()
	} else if c.DRAM.LatencyCycles == 0 {
		// A partially-specified DRAM keeps its energy model and inherits
		// only the default latency; clobbering the whole struct (the old
		// behavior) silently discarded the caller's PJPerBit.
		c.DRAM.LatencyCycles = energy.DRAM45().LatencyCycles
	}
	if c.Core.PJPerInstr == 0 {
		c.Core = energy.DefaultCore()
	}
}

// coreNode is one core's private slice of the hierarchy.
type coreNode struct {
	id  int
	l1  *cache.Level
	l2  *cache.Level
	d2  policy.Driver
	mmu *mmu.MMU

	// Timing. Cycles are derived, never accumulated: instruction time is
	// Instrs x BaseCPI exactly, and the two integer stall counters hold the
	// rest. Keeping the primitives integral makes timing order-invariant —
	// the sharded merge can sum per-shard stall counts and reproduce the
	// sequential run's cycles bit for bit, where an accumulated float would
	// drift with summation order.
	Instrs uint64
	// demandStalls is exposed memory latency (max(0, lat - OverlapCycles)
	// per access); it accrues only on accesses this replica owns, so the
	// merge sums it across shards.
	demandStalls uint64
	// policyStalls counts the one-cycle TLB blocks for EOU recomputations.
	// The page-grain machinery runs identically on every shard, so the
	// merge takes shard 0's value rather than summing.
	policyStalls uint64

	// pendPages lists pages with staged reuse-distance evidence
	// (PTE.PendDirty); the batch-boundary fold drains it. Scratch: empty
	// whenever the system is at rest.
	pendPages []mem.PageID
}

// stalls returns the core's total stall cycles.
func (cn *coreNode) stalls() uint64 { return cn.demandStalls + cn.policyStalls }

// System is a simulated machine.
type System struct {
	cfg   Config
	cores []*coreNode
	l3    *cache.Level
	d3    policy.Driver
	dram  *dram.DRAM

	eouL2, eouL3 *slipcore.EOU
	encL2, encL3 *slipcore.Encoder
	cumL2, cumL3 []uint64 // distribution bin boundaries in lines

	// defCodeL2/defCodeL3 cache the Default SLIP codes and uniformLat2/
	// uniformLat3 cache the descriptor's UniformLatency bit; both are
	// constant per configuration and sit on the per-access hot path, where
	// an interface dispatch (or worse, a policy re-encoding) per reference
	// is measurable.
	defCodeL2, defCodeL3     uint8
	uniformLat2, uniformLat3 bool

	// slipL2 and slipL3 are the typed SLIP drivers (nil otherwise), kept
	// for insertion-class statistics.
	slipL2 []*policy.SLIP
	slipL3 *policy.SLIP

	// NRHist buckets L3-evicted lines by reuse count: 0, 1, 2, >2 (Fig. 1).
	NRHist [4]uint64

	// Demand/metadata miss split for Figure 12.
	L2DemandMisses, L2MetaAccesses, L2MetaMisses uint64
	L3DemandMisses, L3MetaAccesses, L3MetaMisses uint64

	// EOUOps counts optimizer invocations (two per policy recomputation);
	// energy is derived as EOUOps x energy.EOUOpPJ. An integer count merges
	// exactly across shards (replicated: every shard runs the page-grain
	// machinery in full, so the merge takes shard 0's value).
	EOUOps uint64

	// Set sampling (Config.SampleK > 1): sampleMask selects the simulated
	// line-address groups (zero = sampling off). Reuse distances need no
	// rescaling here — cache.Level keeps per-group timestamps and already
	// reports distances at whole-level scale.
	sampleMask uint64

	// shardMask selects the line-address groups this replica owns during an
	// intra-run sharded execution (zero = owns everything, the ordinary
	// case). Accesses outside the mask short-circuit after the page-grain
	// translate, before any set-indexed work, exactly like the set-sampling
	// fast path — which is what makes the union of S disjoint shard replays
	// reproduce the sequential run state for state partitioned by group.
	shardMask uint64

	// shardWidth is the shard count the last run used (see ShardWidth).
	shardWidth int

	// SampledAccesses/SkippedAccesses split the driven accesses between the
	// simulated sample and the short-circuited remainder (both zero when
	// sampling is off).
	SampledAccesses, SkippedAccesses uint64
}

// New builds a system.
func New(cfg Config) *System {
	cfg.fillDefaults()
	desc := cfg.Policy.Descriptor()
	if desc == nil {
		panic(fmt.Sprintf("hier: unknown policy %v", cfg.Policy))
	}
	if cfg.NumCores > MaxCores {
		panic(fmt.Sprintf("hier: NumCores must be <= MaxCores = %d (got %d)", MaxCores, cfg.NumCores))
	}
	s := &System{cfg: cfg}
	if cfg.SampleK > 1 {
		if cfg.SampleK > 64 || 64%cfg.SampleK != 0 {
			panic(fmt.Sprintf("hier: SampleK must divide 64 (got %d)", cfg.SampleK))
		}
		if got, want := bits.OnesCount64(cfg.SampleMask), 64/cfg.SampleK; got != want {
			panic(fmt.Sprintf("hier: SampleMask must select exactly %d of 64 line-address groups for SampleK=%d (got %d)",
				want, cfg.SampleK, got))
		}
		s.sampleMask = cfg.SampleMask
	}
	s.dram = dram.New(cfg.DRAM)
	s.encL2 = slipcore.NewEncoder(len(cfg.L2Params.SublevelWays))
	s.encL3 = slipcore.NewEncoder(len(cfg.L3Params.SublevelWays))
	s.defCodeL2 = s.encL2.DefaultCode()
	s.defCodeL3 = s.encL3.DefaultCode()

	chargeMeta := desc.UsesMetadata
	s.uniformLat2 = desc.UniformLatency
	s.l3 = cache.New(cache.Config{
		Params:         cfg.L3Params,
		Bytes:          cfg.L3Bytes,
		ChargeMetadata: chargeMeta,
		UseRRIP:        cfg.UseRRIP,
	})
	s.d3 = s.newDriver(3, cfg.Seed)
	s.uniformLat3 = desc.UniformLatency
	if d, ok := s.d3.(*policy.SLIP); ok {
		s.slipL3 = d
	}

	for i := 0; i < cfg.NumCores; i++ {
		cn := &coreNode{id: i}
		cn.l1 = cache.New(cache.Config{
			Params: energy.L1Params(cfg.Core),
			Bytes:  cfg.Core.L1Bytes,
		})
		cn.l2 = cache.New(cache.Config{
			Params:         cfg.L2Params,
			Bytes:          cfg.L2Bytes,
			ChargeMetadata: chargeMeta,
			UseRRIP:        cfg.UseRRIP,
		})
		cn.d2 = s.newDriver(2, cfg.Seed+uint64(i)*977)
		if d, ok := cn.d2.(*policy.SLIP); ok {
			s.slipL2 = append(s.slipL2, d)
		}
		if desc.SLIPMachinery {
			mc := mmu.Config{
				Seed:            cfg.Seed + uint64(i)*31,
				BinBits:         cfg.BinBits,
				DisableSampling: cfg.DisableSampling,
			}
			if cfg.SampleK > 1 {
				// Under 1/K set sampling a page's distributions accumulate
				// observations at 1/K the full-fidelity rate (only sampled-
				// group accesses update them), so the stable-transition
				// evidence gate scales down by K to keep stabilization on
				// the full run's wall-access timeline.
				mc.MinSamples = (mmu.DefaultMinSamples + cfg.SampleK - 1) / cfg.SampleK
			}
			cn.mmu = mmu.New(mc)
		}
		s.cores = append(s.cores, cn)
	}

	if desc.SLIPMachinery {
		allowABP := desc.AllowABP
		l2 := s.cores[0].l2
		geom2 := slipcore.LevelGeom{
			SublevelWays:  cfg.L2Params.SublevelWays,
			SublevelLines: sublevelLines(l2),
			SublevelPJ:    cfg.L2Params.SublevelPJ,
			NextLevelPJ:   cfg.L3Params.BaselineAccessPJ,
		}
		geom3 := slipcore.LevelGeom{
			SublevelWays:  cfg.L3Params.SublevelWays,
			SublevelLines: sublevelLines(s.l3),
			SublevelPJ:    cfg.L3Params.SublevelPJ,
			NextLevelPJ:   s.dram.AccessPJ(),
		}
		var err error
		if s.eouL2, err = slipcore.NewEOU(geom2, allowABP); err != nil {
			panic(err)
		}
		if s.eouL3, err = slipcore.NewEOU(geom3, allowABP); err != nil {
			panic(err)
		}
		s.cumL2 = geom2.CumLines()
		s.cumL3 = geom3.CumLines()
	}
	return s
}

// sublevelLines computes each sublevel's capacity in lines for a level.
func sublevelLines(l *cache.Level) []uint64 {
	out := make([]uint64, len(l.Params().SublevelWays))
	for i, w := range l.Params().SublevelWays {
		out[i] = uint64(w * l.NumSets())
	}
	return out
}

// newDriver instantiates the policy driver for a level (2 or 3) via the
// registered constructor.
func (s *System) newDriver(level int, seed uint64) policy.Driver {
	desc := s.cfg.Policy.Descriptor()
	if desc == nil {
		panic(fmt.Sprintf("hier: unknown policy %v", s.cfg.Policy))
	}
	n := len(s.cfg.L2Params.SublevelWays)
	if level == 3 {
		n = len(s.cfg.L3Params.SublevelWays)
	}
	return desc.New(policy.DriverConfig{Level: level, NumSublevels: n, Seed: seed})
}

// Config returns the (default-filled) configuration.
func (s *System) Config() Config { return s.cfg }

// L2 returns core i's private L2 level.
func (s *System) L2(i int) *cache.Level { return s.cores[i].l2 }

// L1 returns core i's L1 level.
func (s *System) L1(i int) *cache.Level { return s.cores[i].l1 }

// L3 returns the shared L3 level.
func (s *System) L3() *cache.Level { return s.l3 }

// DRAM returns the memory endpoint.
func (s *System) DRAM() *dram.DRAM { return s.dram }

// MMU returns core i's MMU (nil for non-SLIP policies).
func (s *System) MMU(i int) *mmu.MMU { return s.cores[i].mmu }

// EOUL2 exposes the L2 optimizer (nil for non-SLIP policies).
func (s *System) EOUL2() *slipcore.EOU { return s.eouL2 }

// SLIPDriverL2 returns core i's typed SLIP driver (nil otherwise).
func (s *System) SLIPDriverL2(i int) *policy.SLIP {
	if s.slipL2 == nil {
		return nil
	}
	return s.slipL2[i]
}

// SLIPDriverL3 returns the shared L3 SLIP driver (nil otherwise).
func (s *System) SLIPDriverL3() *policy.SLIP { return s.slipL3 }
