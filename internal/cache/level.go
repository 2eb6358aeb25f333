package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/stats"
)

// Meta is the 12-bit per-line metadata of Section 4.3: the line's SLIP code
// for each lower level (3b each, copied alongside the line so evictions
// never probe the TLB) plus the 6-bit timestamp TL. Sampling marks lines
// whose page was in the sampling state at insertion.
type Meta struct {
	L2Code   uint8
	L3Code   uint8
	TL       uint8
	Sampling bool
}

// Line is one cache line's state. Fields are ordered widest first so the
// struct packs into 24 bytes.
type Line struct {
	Addr mem.LineAddr
	// Reuses counts hits since insertion into this level (for the Figure 1
	// reuse-number breakdown).
	Reuses uint32
	Meta   Meta
	Valid  bool
	Dirty  bool
}

// NumGroups is the number of line-address groups every per-group structure
// in a level is indexed by. Group membership is set&63, which equals
// line&63 whenever the level has at least 64 sets — the invariant behind
// both the 1/K set-sampling mask and the intra-run shard partition: state
// indexed by group is touched only by accesses to that group, so disjoint
// group subsets can be simulated independently and grafted back together.
const NumGroups = 64

// GroupOf returns the line-address group of a set index.
func GroupOf(set int) int { return set & (NumGroups - 1) }

// Config describes one cache level.
type Config struct {
	// Params carries capacity-independent energy/latency constants.
	Params *energy.LevelParams
	// Bytes is the level capacity.
	Bytes uint64
	// ChargeMetadata enables the 12b-metadata access energy on every hit,
	// fill and movement (on for SLIP and the NUCA policies, off for the
	// metadata-free baseline).
	ChargeMetadata bool
	// UseRRIP selects SRRIP replacement instead of true LRU (the Section 7
	// extension).
	UseRRIP bool
	// MovementQueueCap overrides the 16-entry default when positive.
	MovementQueueCap int
}

// Stats aggregates the per-level accounting every experiment reads.
type Stats struct {
	Accesses   stats.Counter
	Hits       stats.Counter
	Misses     stats.Counter
	Fills      stats.Counter
	Bypasses   stats.Counter
	Movements  stats.Counter
	Evictions  stats.Counter
	Writebacks stats.Counter

	// HitsPerSublevel feeds the Figure 15 access-fraction breakdown.
	HitsPerSublevel []uint64

	// AccessPJ is hit-servicing read energy (Figure 11 "access").
	AccessPJ stats.Energy
	// MovementPJ covers inter-sublevel movements, insertions and writeback
	// reads (Figure 11 "movement").
	MovementPJ stats.Energy
	// MetadataPJ is the 12b metadata and movement-queue overhead energy.
	MetadataPJ stats.Energy
}

// TotalPJ returns all energy charged at this level.
func (s *Stats) TotalPJ() float64 {
	return s.AccessPJ.PJ() + s.MovementPJ.PJ() + s.MetadataPJ.PJ()
}

// Reset zeroes every counter and energy bucket (cache contents are
// untouched); used to discard warmup before measuring steady state.
func (s *Stats) Reset() {
	s.Accesses.Reset()
	s.Hits.Reset()
	s.Misses.Reset()
	s.Fills.Reset()
	s.Bypasses.Reset()
	s.Movements.Reset()
	s.Evictions.Reset()
	s.Writebacks.Reset()
	for i := range s.HitsPerSublevel {
		s.HitsPerSublevel[i] = 0
	}
	s.AccessPJ.Reset()
	s.MovementPJ.Reset()
	s.MetadataPJ.Reset()
}

// Merge folds another Stats into this one, counter by counter. Energies
// are fixed-point integers, so the fold is exact: summing the per-shard
// deltas of an intra-run sharded replay reproduces precisely the totals a
// sequential run would have accumulated.
func (s *Stats) Merge(o *Stats) {
	s.Accesses.Add(o.Accesses.Value())
	s.Hits.Add(o.Hits.Value())
	s.Misses.Add(o.Misses.Value())
	s.Fills.Add(o.Fills.Value())
	s.Bypasses.Add(o.Bypasses.Value())
	s.Movements.Add(o.Movements.Value())
	s.Evictions.Add(o.Evictions.Value())
	s.Writebacks.Add(o.Writebacks.Value())
	for i := range s.HitsPerSublevel {
		s.HitsPerSublevel[i] += o.HitsPerSublevel[i]
	}
	s.AccessPJ.Add(o.AccessPJ)
	s.MovementPJ.Add(o.MovementPJ)
	s.MetadataPJ.Add(o.MetadataPJ)
}

// Level is one set-associative, energy-asymmetric cache level.
type Level struct {
	cfg     Config
	name    string
	numSets int
	ways    int
	repl    Repl
	mq      *MQBank
	est     *core.RDEstimator
	// lines holds every line of the level, set by set: the line at (set,
	// way) is lines[set*ways+way].
	lines []Line
	// tags is the packed tag array: tags[i] mirrors lines[i].Addr. Lookups
	// scan this contiguous row instead of the much larger Line structs, so
	// a 16-way probe touches two cache lines instead of six.
	tags []mem.LineAddr
	// valid mirrors per-line Valid bits as one mask per set, letting lookup
	// and victim selection skip invalid ways with bit arithmetic.
	valid []WayMask
	// demoted marks, per set, the valid lines that were moved to a farther
	// sublevel; LRU-PEA and NuRAPID evict such lines first. It is the only
	// copy of the demotion bit and always a subset of valid.
	demoted []WayMask
	// T holds one access counter per line-address group, driving the
	// Section 4.1 timestamps group-locally. A group's counter advances only
	// on that group's traffic, so it is identical whether the group ran in
	// a sequential replay, under a 1/K sampling mask (the group either
	// receives its full stream or none of it), or inside an intra-run
	// shard — the property that makes timestamps exactly mergeable.
	T [NumGroups]uint64

	Stats Stats
}

// New builds a level from cfg.
func New(cfg Config) *Level {
	if cfg.Params == nil {
		panic("cache: Config.Params is required")
	}
	ways := cfg.Params.NumWays()
	if cfg.Bytes == 0 || cfg.Bytes%(uint64(ways)*mem.LineBytes) != 0 {
		panic(fmt.Sprintf("cache: capacity %d not divisible into %d ways of lines", cfg.Bytes, ways))
	}
	numSets := int(cfg.Bytes / (uint64(ways) * mem.LineBytes))
	if !mem.IsPow2(uint64(numSets)) {
		panic(fmt.Sprintf("cache: set count %d must be a power of two", numSets))
	}
	l := &Level{
		cfg:     cfg,
		name:    cfg.Params.Name,
		numSets: numSets,
		ways:    ways,
	}
	l.lines = make([]Line, numSets*ways)
	l.tags = make([]mem.LineAddr, numSets*ways)
	l.valid = make([]WayMask, numSets)
	l.demoted = make([]WayMask, numSets)
	if cfg.UseRRIP {
		l.repl = NewRRIP(numSets, ways, 2)
	} else {
		l.repl = NewLRU(numSets, ways)
	}
	mqCap := cfg.MovementQueueCap
	if mqCap <= 0 {
		mqCap = 16
	}
	l.mq = NewMQBank(mqCap, 4)
	// The estimator is sized for one group's share of the capacity: its
	// ticks count group-local accesses (T[g]) and its distances are
	// rescaled x64 back to whole-level lines in Access. A group sees 1/64
	// of the level's traffic over 1/64 of its lines regardless of how many
	// groups are masked off or sharded away, so the estimate's resolution
	// (granule x 64 = 4C/64 whole-level lines per tick) is invariant under
	// both set sampling and intra-run sharding.
	estLines := uint64(numSets*ways) / NumGroups
	if estLines == 0 {
		estLines = 1
	}
	l.est = core.NewRDEstimator(estLines)
	l.Stats.HitsPerSublevel = make([]uint64, len(cfg.Params.SublevelWays))
	return l
}

// Name returns the level name (e.g. "L2").
func (l *Level) Name() string { return l.name }

// NumSets returns the set count.
func (l *Level) NumSets() int { return l.numSets }

// NumWays returns the associativity.
func (l *Level) NumWays() int { return l.ways }

// Lines returns the level capacity in cache lines.
func (l *Level) Lines() uint64 { return uint64(l.numSets * l.ways) }

// Params returns the energy/latency constants.
func (l *Level) Params() *energy.LevelParams { return l.cfg.Params }

// Repl exposes the replacement policy (drivers notify promotion hits).
func (l *Level) Repl() Repl { return l.repl }

// MQ exposes the movement-queue bank for occupancy checks in tests.
func (l *Level) MQ() *MQBank { return l.mq }

// Estimator returns the timestamp-based reuse-distance estimator.
func (l *Level) Estimator() *core.RDEstimator { return l.est }

// SetOf returns the set index for a line address.
func (l *Level) SetOf(a mem.LineAddr) int {
	return int(uint64(a) & uint64(l.numSets-1))
}

// SublevelMask returns the way mask of sublevel i.
func (l *Level) SublevelMask(i int) WayMask {
	first := 0
	for k := 0; k < i; k++ {
		first += l.cfg.Params.SublevelWays[k]
	}
	return RangeMask(first, first+l.cfg.Params.SublevelWays[i]-1)
}

// ChunkMask returns the way mask for a chunk spanning sublevels
// [first, last].
func (l *Level) ChunkMask(first, last int) WayMask {
	var m WayMask
	for s := first; s <= last; s++ {
		m |= l.SublevelMask(s)
	}
	return m
}

// LineAt returns a copy of the line at (set, way).
func (l *Level) LineAt(set, way int) Line { return l.lines[set*l.ways+way] }

// Demoted reports whether the line at (set, way) is valid and was demoted.
func (l *Level) Demoted(set, way int) bool { return l.demoted[set].Has(way) }

// chargeMeta adds the per-line metadata access energy when enabled.
func (l *Level) chargeMeta() {
	if l.cfg.ChargeMetadata {
		l.Stats.MetadataPJ.AddPJ(l.cfg.Params.MetadataPJ)
	}
}

// chargeMQ probes group g's movement-queue lane (policies with movements
// must check it on every access).
func (l *Level) chargeMQ(g int) {
	if l.cfg.ChargeMetadata {
		l.Stats.MetadataPJ.AddPJ(l.mq.Lookup(g, l.T[g]))
	}
}

// AccessResult reports the outcome of a lookup.
type AccessResult struct {
	Hit bool
	// Way and Set locate the line on a hit.
	Way, Set int
	// Sublevel is the sublevel of Way on a hit.
	Sublevel int
	// RDLines is the timestamp-estimated reuse distance of this hit in
	// whole-level lines (Section 4.1): the group-local estimate rescaled
	// x64, since a group holds 1/64 of the capacity and sees 1/64 of the
	// traffic. Only meaningful on hits.
	RDLines uint64
	// WasSampling reports whether the hit line was inserted while its page
	// was sampling (its reuse should be recorded).
	WasSampling bool
}

// Access performs a lookup for line a, updating recency, timestamps and
// energy accounting. On a hit the line is read (its way energy is charged)
// and dirtied when store is set. On a miss only the access counter
// advances; insertion is a separate policy decision.
func (l *Level) Access(a mem.LineAddr, store bool) AccessResult {
	set := l.SetOf(a)
	g := GroupOf(set)
	l.T[g]++
	l.Stats.Accesses.Inc()
	l.chargeMQ(g)
	if w := l.findWay(set, a); w >= 0 {
		ln := &l.lines[set*l.ways+w]
		l.Stats.Hits.Inc()
		sub := l.cfg.Params.WaySublevel(w)
		l.Stats.HitsPerSublevel[sub]++
		l.Stats.AccessPJ.AddPJ(l.cfg.Params.WayAccessPJ[w])
		l.chargeMeta()
		rd := l.est.RDLines(l.T[g], ln.Meta.TL) * NumGroups
		wasSampling := ln.Meta.Sampling
		ln.Meta.TL = l.est.Stamp(l.T[g])
		ln.Reuses++
		if store {
			ln.Dirty = true
		}
		l.repl.OnHit(set, w)
		return AccessResult{Hit: true, Way: w, Set: set, Sublevel: sub,
			RDLines: rd, WasSampling: wasSampling}
	}
	l.Stats.Misses.Inc()
	return AccessResult{Hit: false, Set: set}
}

// findWay returns the way holding line a in set, or -1. It scans the packed
// tag row restricted to valid ways — the innermost loop of the simulator.
func (l *Level) findWay(set int, a mem.LineAddr) int {
	row := l.tags[set*l.ways : set*l.ways+l.ways]
	for v := uint32(l.valid[set]); v != 0; v &= v - 1 {
		w := bits.TrailingZeros32(v)
		if row[w] == a {
			return w
		}
	}
	return -1
}

// Probe reports whether a is resident without touching any state (the
// lookup used by invalidations and by tests).
func (l *Level) Probe(a mem.LineAddr) (way int, hit bool) {
	set := l.SetOf(a)
	if w := l.findWay(set, a); w >= 0 {
		return w, true
	}
	return -1, false
}

// VictimIn picks the way to replace within mask: an invalid way when one
// exists, otherwise the replacement policy's choice.
func (l *Level) VictimIn(set int, mask WayMask) int {
	if mask == 0 {
		panic("cache: VictimIn with empty mask")
	}
	if free := mask &^ l.valid[set]; free != 0 {
		return bits.TrailingZeros32(uint32(free))
	}
	return l.repl.Victim(set, mask)
}

// VictimPrefer picks a victim within mask like VictimIn, but when any line
// in the mask is demoted, the replacement choice is restricted to the
// demoted lines — the mechanism behind LRU-PEA's preferential eviction of
// demoted lines.
func (l *Level) VictimPrefer(set int, mask WayMask) int {
	if mask == 0 {
		panic("cache: VictimPrefer with empty mask")
	}
	if free := mask &^ l.valid[set]; free != 0 {
		return bits.TrailingZeros32(uint32(free))
	}
	if preferred := mask & l.demoted[set]; preferred != 0 {
		return l.repl.Victim(set, preferred)
	}
	return l.repl.Victim(set, mask)
}

// MarkDemoted sets or clears the demotion flag of the line at (set, way).
func (l *Level) MarkDemoted(set, way int, demoted bool) {
	if !l.valid[set].Has(way) {
		panic("cache: marking an invalid line")
	}
	if demoted {
		l.demoted[set] |= 1 << way
	} else {
		l.demoted[set] &^= 1 << way
	}
}

// Fill installs line a at (set, way), returning the displaced line (whose
// Valid reports whether there was one). The write energy is charged as
// movement energy (insertions count as movement in Figure 11); the caller
// handles the displaced line per its own policy.
func (l *Level) Fill(set, way int, a mem.LineAddr, dirty bool, meta Meta) (evicted Line) {
	ln := &l.lines[set*l.ways+way]
	evicted = *ln
	meta.TL = l.est.Stamp(l.T[GroupOf(set)])
	*ln = Line{Valid: true, Addr: a, Dirty: dirty, Meta: meta}
	l.tags[set*l.ways+way] = a
	l.valid[set] |= 1 << way
	l.demoted[set] &^= 1 << way
	l.Stats.Fills.Inc()
	l.Stats.MovementPJ.AddPJ(l.cfg.Params.WayAccessPJ[way])
	l.chargeMeta()
	l.repl.OnFill(set, way)
	return evicted
}

// Move relocates the line at (set, from) to (set, to), charging the
// movement read+write and enqueueing in the movement queue. The displaced
// line at the destination is returned for the caller to handle. It reports
// whether the queue stalled.
func (l *Level) Move(set, from, to int) (displaced Line, stalled bool) {
	src := &l.lines[set*l.ways+from]
	if !src.Valid {
		panic("cache: moving an invalid line")
	}
	if from == to {
		panic("cache: moving a line onto itself")
	}
	moved := *src
	src.Valid = false
	dst := &l.lines[set*l.ways+to]
	displaced = *dst
	*dst = moved
	l.tags[set*l.ways+to] = moved.Addr
	l.valid[set] = l.valid[set]&^(1<<from) | 1<<to
	dem := l.demoted[set]
	l.demoted[set] = dem&^(1<<from|1<<to) | (dem>>from&1)<<to
	l.Stats.Movements.Inc()
	l.Stats.MovementPJ.AddPJ(l.cfg.Params.WayAccessPJ[from] + l.cfg.Params.WayAccessPJ[to])
	l.chargeMeta()
	g := GroupOf(set)
	stalled = l.mq.Enqueue(g, l.T[g])
	l.repl.OnFill(set, to)
	return displaced, stalled
}

// Swap exchanges the lines at (set, w1) and (set, w2) — the promotion
// primitive of NuRAPID and LRU-PEA, which demote the displaced line into
// the promoted line's old location. Both lines are read and rewritten, so
// the energy is twice a single movement; two entries occupy the movement
// queue. It reports whether the queue stalled.
func (l *Level) Swap(set, w1, w2 int) (stalled bool) {
	if w1 == w2 {
		panic("cache: swapping a way with itself")
	}
	i1, i2 := set*l.ways+w1, set*l.ways+w2
	a, b := &l.lines[i1], &l.lines[i2]
	if !a.Valid || !b.Valid {
		panic("cache: swapping an invalid line")
	}
	*a, *b = *b, *a
	l.tags[i1], l.tags[i2] = l.tags[i2], l.tags[i1]
	if d := l.demoted[set]; d.Has(w1) != d.Has(w2) {
		l.demoted[set] = d ^ (1<<w1 | 1<<w2)
	}
	l.Stats.Movements.Add(2)
	l.Stats.MovementPJ.AddPJ(2 * (l.cfg.Params.WayAccessPJ[w1] + l.cfg.Params.WayAccessPJ[w2]))
	l.chargeMeta()
	g := GroupOf(set)
	s1 := l.mq.Enqueue(g, l.T[g])
	s2 := l.mq.Enqueue(g, l.T[g])
	l.repl.OnFill(set, w1)
	l.repl.OnFill(set, w2)
	return s1 || s2
}

// EvictionRead charges the read required to write back or demote an evicted
// dirty line out of this level (the read half of a writeback; the write
// half is charged where the data lands).
func (l *Level) EvictionRead(way int) {
	l.Stats.MovementPJ.AddPJ(l.cfg.Params.WayAccessPJ[way])
}

// NoteEviction counts a line leaving the level entirely.
func (l *Level) NoteEviction(dirty bool) {
	l.Stats.Evictions.Inc()
	if dirty {
		l.Stats.Writebacks.Inc()
	}
}

// NoteBypass counts an insertion the policy suppressed entirely.
func (l *Level) NoteBypass() { l.Stats.Bypasses.Inc() }

// WritebackTo merges a writeback from an upper level into this level's copy
// of a, charging the data write but leaving recency untouched (a writeback
// is not a demand reference). It reports whether the line was resident.
func (l *Level) WritebackTo(a mem.LineAddr) bool {
	set := l.SetOf(a)
	if w := l.findWay(set, a); w >= 0 {
		l.lines[set*l.ways+w].Dirty = true
		l.Stats.MovementPJ.AddPJ(l.cfg.Params.WayAccessPJ[w])
		l.chargeMeta()
		return true
	}
	return false
}

// Invalidate drops line a if resident, returning the line so callers can
// handle dirty data. The movement queue is probed for correctness, as
// invalidations must also check in-flight lines.
func (l *Level) Invalidate(a mem.LineAddr) (Line, bool) {
	set := l.SetOf(a)
	if l.cfg.ChargeMetadata {
		g := GroupOf(set)
		l.Stats.MetadataPJ.AddPJ(l.mq.Lookup(g, l.T[g]))
	}
	if w := l.findWay(set, a); w >= 0 {
		ln := &l.lines[set*l.ways+w]
		out := *ln
		ln.Valid = false
		l.valid[set] &^= 1 << w
		l.demoted[set] &^= 1 << w
		return out, true
	}
	return Line{}, false
}

// AdoptGroup grafts line-address group g — every set ≡ g (mod NumGroups):
// lines, tags, valid and demoted masks, the group's access counter,
// replacement order and movement-queue lane — from src, which must share
// this level's geometry. Because all of that state is touched only by
// group-g traffic, adopting each group from the shard that owned it
// reconstructs exactly the level a sequential replay would have produced.
// Stats are global, not per-group, and are merged separately (Stats.Merge).
func (l *Level) AdoptGroup(src *Level, g int) {
	if l.numSets != src.numSets || l.ways != src.ways {
		panic("cache: AdoptGroup across mismatched geometries")
	}
	for set := g; set < l.numSets; set += NumGroups {
		row := set * l.ways
		copy(l.lines[row:row+l.ways], src.lines[row:row+l.ways])
		copy(l.tags[row:row+l.ways], src.tags[row:row+l.ways])
		l.valid[set] = src.valid[set]
		l.demoted[set] = src.demoted[set]
	}
	l.T[g] = src.T[g]
	l.repl.Adopt(src.repl, g)
	l.mq.AdoptLane(src.mq, g)
}

// ForEachLine visits every valid line (for end-of-run statistics such as
// Figure 1's resident-line reuse counts).
func (l *Level) ForEachLine(f func(set, way int, ln Line)) {
	for i, ln := range l.lines {
		if ln.Valid {
			f(i/l.ways, i%l.ways, ln)
		}
	}
}
