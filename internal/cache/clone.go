package cache

import (
	"unsafe"

	"repro/internal/mem"
)

// Clone returns a deep copy of the level: the line, tag, valid and demoted
// arrays, replacement state, movement queue and statistics are all
// duplicated so the copy can be driven independently (and concurrently) of
// the original. The immutable pieces — Config, energy params and the
// reuse-distance estimator, none of which mutate after New — are shared.
// This is the primitive behind warm-state snapshots: capture a level once
// after warmup, then hand each measured run its own copy.
func (l *Level) Clone() *Level {
	c := *l
	c.repl = l.repl.Clone()
	c.mq = l.mq.Clone()
	c.lines = append([]Line(nil), l.lines...)
	c.tags = append([]mem.LineAddr(nil), l.tags...)
	c.valid = append([]WayMask(nil), l.valid...)
	c.demoted = append([]WayMask(nil), l.demoted...)
	c.Stats.HitsPerSublevel = append([]uint64(nil), l.Stats.HitsPerSublevel...)
	return &c
}

// SizeBytes is the retained footprint of a cloned level, charged by
// byte-budgeted snapshot caches: everything Clone allocates — the level,
// its line, tag and per-set mask arrays, the replacement state and the
// movement-queue bank.
func (l *Level) SizeBytes() int {
	perLine := unsafe.Sizeof(Line{}) + unsafe.Sizeof(mem.LineAddr(0))
	perSet := 2 * unsafe.Sizeof(WayMask(0)) // valid, demoted
	return int(unsafe.Sizeof(*l)) +
		l.numSets*(l.ways*int(perLine)+int(perSet)) +
		len(l.Stats.HitsPerSublevel)*8 +
		l.repl.sizeBytes() + l.mq.sizeBytes()
}

// Clone implements Repl.
func (l *lru) Clone() Repl {
	c := *l
	c.order = append([]uint64(nil), l.order...)
	return &c
}

// Clone implements Repl.
func (r *rrip) Clone() Repl {
	c := &rrip{max: r.max}
	c.rrpv = make([][]uint8, len(r.rrpv))
	flat := make([]uint8, 0, len(r.rrpv)*len(r.rrpv[0]))
	for i, row := range r.rrpv {
		flat = append(flat, row...)
		c.rrpv[i] = flat[i*len(row) : (i+1)*len(row) : (i+1)*len(row)]
	}
	return c
}

// Clone returns an independent copy of the queue, in-flight entries
// included.
func (q *MovementQueue) Clone() *MovementQueue {
	c := *q
	c.entries = append([]uint64(nil), q.entries...)
	return &c
}

// Clone returns an independent copy of the bank, lane by lane.
func (b *MQBank) Clone() *MQBank {
	c := &MQBank{}
	for g, q := range b.lanes {
		c.lanes[g] = q.Clone()
	}
	return c
}

// sizeBytes bounds what Clone allocates for the bank: every lane with a
// full queue.
func (b *MQBank) sizeBytes() int {
	n := int(unsafe.Sizeof(*b))
	for _, q := range b.lanes {
		n += int(unsafe.Sizeof(*q)) + q.capacity*8
	}
	return n
}
