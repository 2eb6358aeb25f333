package policy

// lwrp is the second registry-only policy: least weighted reuse
// probability replacement (PAPERS.md #1). Instead of evicting the LRU
// line, the victim is the line with the worst recency x frequency score —
// the oldest line relative to how often it has proven reuse. Placement is
// conventional (no sublevel steering), so the policy isolates the value
// of weighted victim selection on the same energy substrate.

import (
	"repro/internal/cache"
	"repro/internal/mem"
)

func init() {
	Register(6, Descriptor{
		Name:           "lwrp",
		Doc:            "least weighted reuse probability: evict the line with the worst age/(1+reuses) score",
		UsesMetadata:   true,
		UniformLatency: true,
		New:            func(DriverConfig) Driver { return NewLWRP() },
	})
}

// LWRP owns per-way recency stamps and a logical clock; the cache's own
// Reuses counters supply the frequency term. The clock is per line-address
// group: victim scoring only ever compares stamps within one set, whose
// stamps all come from its own group's monotone clock, so choices are
// identical to a single global clock while group-disjoint streams touch
// disjoint state (the property the intra-run shard merge grafts by).
type LWRP struct {
	// stamps[set*ways+way] is the clock value of that way's last touch.
	// Sized by geometry, not keyed to a Level instance: snapshot clones
	// are driven against fresh Level values of identical shape, and the
	// stamps must carry over for bit-identical victim choices.
	stamps []uint64
	clock  [cache.NumGroups]uint64
	ways   int
}

// NewLWRP returns the driver; stamps are sized from the first Level it is
// driven with.
func NewLWRP() *LWRP { return &LWRP{} }

// ensure sizes the stamp array for the level's geometry.
func (p *LWRP) ensure(l *cache.Level) {
	if n := l.NumSets() * l.NumWays(); len(p.stamps) != n {
		p.stamps = make([]uint64, n)
	}
	p.ways = l.NumWays()
}

// OnHit implements Driver: refresh the line's recency stamp.
func (p *LWRP) OnHit(l *cache.Level, set, way int) {
	p.ensure(l)
	g := cache.GroupOf(set)
	p.clock[g]++
	p.stamps[set*l.NumWays()+way] = p.clock[g]
}

// victim picks the worst-scored way of the set: any invalid way first
// (lowest index), otherwise the maximum age/(1+reuses). The comparison
// cross-multiplies in integers — age1/(1+r1) > age2/(1+r2) iff
// age1*(1+r2) > age2*(1+r1) — so scoring is exact and deterministic, with
// ties broken toward the lowest way.
func (p *LWRP) victim(l *cache.Level, set int) int {
	ways := l.NumWays()
	base := set * ways
	clock := p.clock[cache.GroupOf(set)]
	best, bestAge, bestW := -1, uint64(0), uint64(0)
	for w := 0; w < ways; w++ {
		ln := l.LineAt(set, w)
		if !ln.Valid {
			return w
		}
		age := clock - p.stamps[base+w]
		weight := 1 + uint64(ln.Reuses)
		// The cross products fit in uint64: age and weight are each
		// bounded by the level's access count, so overflow needs a single
		// run of 2^32+ accesses per level — three orders of magnitude
		// beyond the largest configuration the harness drives.
		if best == -1 || age*bestW > bestAge*weight {
			best, bestAge, bestW = w, age, weight
		}
	}
	return best
}

// Insert implements Driver: fill over the worst-scored victim, stamping
// the new line's recency; no movement, no bypass.
func (p *LWRP) Insert(l *cache.Level, a mem.LineAddr, dirty bool, meta cache.Meta) Outcome {
	p.ensure(l)
	set := l.SetOf(a)
	way := p.victim(l, set)
	g := cache.GroupOf(set)
	p.clock[g]++
	p.stamps[set*l.NumWays()+way] = p.clock[g]
	ev := l.Fill(set, way, a, dirty, meta)
	if ev.Valid {
		finishEviction(l, ev, way)
	}
	return Outcome{Evicted: ev}
}

// Clone implements Driver: stamps and clocks are deep-copied so the clone
// scores victims identically.
func (p *LWRP) Clone() Driver {
	return &LWRP{stamps: append([]uint64(nil), p.stamps...), clock: p.clock, ways: p.ways}
}

// Adopt implements Driver: graft group g's stamp rows and clock. A
// receiver that was never driven (empty stamp array) sizes itself from
// src, so merges into a fresh system work.
func (p *LWRP) Adopt(src Driver, g int) {
	o := src.(*LWRP)
	if len(p.stamps) != len(o.stamps) {
		p.stamps = make([]uint64, len(o.stamps))
	}
	if o.ways > 0 {
		p.ways = o.ways
		sets := len(p.stamps) / p.ways
		for set := g; set < sets; set += cache.NumGroups {
			copy(p.stamps[set*p.ways:(set+1)*p.ways], o.stamps[set*p.ways:(set+1)*p.ways])
		}
	}
	p.clock[g] = o.clock[g]
}
