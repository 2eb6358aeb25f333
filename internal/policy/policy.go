// Package policy implements the per-level insertion/movement policies the
// paper evaluates: the conventional baseline, SLIP itself (with and without
// the All-Bypass Policy), and the two NUCA comparison points NuRAPID and
// LRU-PEA. All drivers run against the same cache.Level mechanism, so the
// energy comparisons in the experiments isolate pure policy effects.
package policy

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Outcome reports what an insertion did.
type Outcome struct {
	// Bypassed is set when the policy refused to insert the line at all.
	Bypassed bool
	// Evicted is the line that left the level as a result (Valid reports
	// presence); the hierarchy writes it back if dirty.
	Evicted cache.Line
}

// Driver is one level's insertion/movement policy. The hierarchy calls
// OnHit after every hit (promotion policies move lines there) and Insert on
// every demand miss fill.
type Driver interface {
	// OnHit may promote the line that just hit at (set, way).
	OnHit(l *cache.Level, set, way int)
	// Insert places line a (with its sidecar metadata) into the level,
	// cascading displacements per the policy, and reports the outcome.
	Insert(l *cache.Level, a mem.LineAddr, dirty bool, meta cache.Meta) Outcome
	// Clone returns an independent deep copy of the driver's mutable state
	// (RNG cursors, class counters), used when snapshotting a hierarchy.
	Clone() Driver
	// Adopt grafts line-address group g's driver state — LWRP's recency
	// stamps and group clock, LRU-PEA's RNG cursor, reuse-bypass's reuse
	// window — from src, a driver of the same type and geometry that
	// simulated group g's accesses. The level's own replacement order and
	// demotion bits travel with cache.Level.AdoptGroup. It is the policy
	// half of the intra-run sharded merge: because every driver keys its
	// mutable state by set (hence group) or by group directly, adopting
	// each group from the shard that owned it reconstructs exactly the
	// state of a sequential run. Global event counters (e.g. SLIP's
	// insertion classes) are not group state; the merge sums those
	// separately. Stateless drivers no-op.
	Adopt(src Driver, g int)
}

// finishEviction charges the writeback read for a dirty line leaving the
// level and records the eviction.
func finishEviction(l *cache.Level, ln cache.Line, way int) {
	if ln.Dirty {
		l.EvictionRead(way)
	}
	l.NoteEviction(ln.Dirty)
}

func init() {
	Register(0, Descriptor{
		Name:           "baseline",
		Doc:            "conventional hierarchy: global LRU insertion, no movement, no metadata",
		UniformLatency: true,
		New:            func(DriverConfig) Driver { return NewBaseline() },
	})
	Register(3, Descriptor{
		Name:         "nurapid",
		Doc:          "NuRAPID distance associativity: nearest d-group insertion, outward demotion, promotion on hit",
		UsesMetadata: true,
		EvalOrder:    1,
		New:          func(DriverConfig) Driver { return NewNuRAPID() },
	})
	Register(4, Descriptor{
		Name:         "lru-pea",
		Aliases:      []string{"lrupea"},
		Doc:          "LRU-PEA: random capacity-weighted sublevel insertion, stepwise promotion, demoted-first eviction",
		UsesMetadata: true,
		EvalOrder:    2,
		New:          func(cfg DriverConfig) Driver { return NewLRUPEA(cfg.Seed) },
	})
}

// Baseline is the conventional cache: insert anywhere (global LRU victim),
// never move lines, no SLIP metadata.
type Baseline struct{}

// NewBaseline returns the conventional-hierarchy driver.
func NewBaseline() *Baseline { return &Baseline{} }

// OnHit implements Driver (the baseline never moves lines).
func (*Baseline) OnHit(*cache.Level, int, int) {}

// Insert implements Driver.
func (*Baseline) Insert(l *cache.Level, a mem.LineAddr, dirty bool, meta cache.Meta) Outcome {
	set := l.SetOf(a)
	way := l.VictimIn(set, cache.FullMask(l.NumWays()))
	ev := l.Fill(set, way, a, dirty, meta)
	if ev.Valid {
		finishEviction(l, ev, way)
	}
	return Outcome{Evicted: ev}
}

// Adopt implements Driver (the baseline is stateless).
func (*Baseline) Adopt(Driver, int) {}

// NuRAPID models Chishti et al.'s distance-associativity policy with
// d-groups equal to the SLIP sublevels (Section 5's fair-comparison
// configuration): lines are inserted into the nearest d-group, demoted one
// d-group outward when displaced, and promoted back to the nearest d-group
// upon a hit (by swapping with that group's LRU line).
type NuRAPID struct{}

// NewNuRAPID returns the NuRAPID driver.
func NewNuRAPID() *NuRAPID { return &NuRAPID{} }

// OnHit implements Driver: generational promotion to d-group 0.
func (n *NuRAPID) OnHit(l *cache.Level, set, way int) {
	if l.Params().WaySublevel(way) == 0 {
		return
	}
	near := l.SublevelMask(0)
	victim := l.VictimIn(set, near)
	if !l.LineAt(set, victim).Valid {
		// An empty near slot: plain move, nothing to demote.
		l.Move(set, way, victim)
		return
	}
	l.Swap(set, way, victim)
	l.MarkDemoted(set, way, true) // the displaced line now sits farther out
}

// Insert implements Driver: insert into the nearest d-group; the displaced
// line is demoted into any farther d-group in a single movement (distance
// associativity lets data sit in any group), and the replacement candidate
// there leaves the cache.
func (n *NuRAPID) Insert(l *cache.Level, a mem.LineAddr, dirty bool, meta cache.Meta) Outcome {
	numSub := len(l.Params().SublevelWays)
	return insertWithDemotion(l, a, dirty, meta, 0, l.ChunkMask(1, numSub-1))
}

// Adopt implements Driver (NuRAPID keeps all state in the cache lines).
func (*NuRAPID) Adopt(Driver, int) {}

// insertWithDemotion fills sublevel first, demoting the displaced line into
// the demoteTo way mask in a single movement; the line displaced *there*
// leaves the level. An empty mask evicts the victim directly.
func insertWithDemotion(l *cache.Level, a mem.LineAddr, dirty bool, meta cache.Meta, first int, demoteTo cache.WayMask) Outcome {
	set := l.SetOf(a)
	way := l.VictimPrefer(set, l.SublevelMask(first))
	var out Outcome
	if l.LineAt(set, way).Valid && demoteTo != 0 && !demoteTo.Has(way) {
		dest := l.VictimPrefer(set, demoteTo)
		displaced, _ := l.Move(set, way, dest)
		l.MarkDemoted(set, dest, true)
		if displaced.Valid {
			out.Evicted = displaced
			finishEviction(l, displaced, dest)
		}
	}
	ev := l.Fill(set, way, a, dirty, meta)
	if ev.Valid {
		out.Evicted = ev
		finishEviction(l, ev, way)
	}
	return out
}

// LRUPEA models Lira et al.'s LRU-PEA: lines are inserted into a random
// sublevel (weighted by capacity, standing in for the random bank of the
// original), promoted one sublevel nearer on each hit, and victims are
// preferentially chosen among demoted lines. The bank-selection RNG is
// kept per line-address group, so each group's insertion draws form an
// independent deterministic sequence: a group sees the same draws whether
// it ran sequentially, under a sampling mask, or inside an intra-run
// shard.
type LRUPEA struct {
	rngs [cache.NumGroups]*trace.RNG
}

// NewLRUPEA returns the LRU-PEA driver; each group's RNG stream is derived
// from the seed and the group index.
func NewLRUPEA(seed uint64) *LRUPEA {
	p := &LRUPEA{}
	for g := range p.rngs {
		p.rngs[g] = trace.NewRNG(seed ^ 0x9ea ^ uint64(g)*0x9e3779b97f4a7c15)
	}
	return p
}

// OnHit implements Driver: promote one sublevel nearer.
func (p *LRUPEA) OnHit(l *cache.Level, set, way int) {
	sub := l.Params().WaySublevel(way)
	if sub == 0 {
		return
	}
	nearer := l.SublevelMask(sub - 1)
	victim := l.VictimPrefer(set, nearer)
	if !l.LineAt(set, victim).Valid {
		l.Move(set, way, victim)
		return
	}
	l.Swap(set, way, victim)
	l.MarkDemoted(set, way, true)
	l.MarkDemoted(set, victim, false) // promoted line is no longer demoted
}

// Insert implements Driver: random capacity-weighted sublevel insertion
// (standing in for the random bank mapping of the original); the displaced
// line is demoted one sublevel outward, and the line displaced *there* —
// preferentially an already-demoted one — is evicted.
func (p *LRUPEA) Insert(l *cache.Level, a mem.LineAddr, dirty bool, meta cache.Meta) Outcome {
	subWays := l.Params().SublevelWays
	total := 0
	for _, w := range subWays {
		total += w
	}
	pick := p.rngs[cache.GroupOf(l.SetOf(a))].Intn(total)
	sub := 0
	for i, w := range subWays {
		if pick < w {
			sub = i
			break
		}
		pick -= w
	}
	var demoteMask cache.WayMask // empty: last-sublevel victims are evicted
	if sub+1 < len(subWays) {
		demoteMask = l.SublevelMask(sub + 1)
	}
	return insertWithDemotion(l, a, dirty, meta, sub, demoteMask)
}

// Adopt implements Driver: graft group g's RNG cursor.
func (p *LRUPEA) Adopt(src Driver, g int) {
	rng := *src.(*LRUPEA).rngs[g]
	p.rngs[g] = &rng
}
