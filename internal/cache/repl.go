package cache

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Repl chooses victims within a set, restricted to a way mask — the form of
// replacement SLIP needs (Section 7): a victim from any subset of ways.
// Implementations carry their own per-line state.
type Repl interface {
	// Name identifies the policy in reports.
	Name() string
	// OnHit updates recency state for a hit at (set, way).
	OnHit(set, way int)
	// OnFill updates state when a line is installed at (set, way).
	OnFill(set, way int)
	// Victim picks the replacement way within mask for the set. The caller
	// guarantees the mask is non-empty and all candidate ways hold valid
	// lines (invalid ways are filled first by the level).
	Victim(set int, mask WayMask) int
	// Clone returns an independent deep copy of the policy state, used when
	// snapshotting a level for warm-state reuse.
	Clone() Repl
	// Adopt grafts line-address group g — the per-set state of every set
	// ≡ g (mod NumGroups) — from src, which must be the same policy type
	// over the same geometry. It is the merge primitive of the intra-run
	// sharded executor.
	Adopt(src Repl, g int)
	// sizeBytes is the retained footprint of the policy state, charged by
	// Level.SizeBytes.
	sizeBytes() int
}

// lru is the true-LRU policy the paper evaluates with. Each set's recency
// order is one packed word: sixteen 4-bit way indices, the least recent in
// the low nibble and the most recent in the high one. A touch moves the
// way's nibble to the top; Victim takes the lowest nibble whose way is in
// the mask. Levels with fewer than 16 ways park the unused indices
// (ways..15) in the low nibbles, where no touch ever disturbs them and
// Victim skips them by shifting them out.
//
// The order starts in way-index order, so ways never touched are victimized
// lowest-first, and touched ways are ordered by their last touch: exactly
// the choices of a per-line timestamp LRU whose untouched lines tie at
// stamp 0.
type lru struct {
	order []uint64
	// skip is 4 x the number of parked indices below the real ways.
	skip uint
	ways int
}

// nibbleOnes has a 1 in every nibble; w*nibbleOnes repeats w sixteen times.
const nibbleOnes = 0x1111111111111111

// NewLRU builds true-LRU state for sets x ways lines. The packed order
// holds at most 16 ways.
func NewLRU(sets, ways int) Repl {
	if ways < 1 || ways > 16 {
		panic(fmt.Sprintf("cache: LRU way count %d out of range [1, 16]", ways))
	}
	// From the identity order, touching ways 0..ways-1 in turn leaves the
	// parked indices at the bottom and the real ways above them in index
	// order.
	init := uint64(0xfedcba9876543210)
	for w := 0; w < ways; w++ {
		init = toTop(init, w)
	}
	order := make([]uint64, sets)
	for i := range order {
		order[i] = init
	}
	return &lru{order: order, skip: uint(4 * (16 - ways)), ways: ways}
}

// Name implements Repl.
func (l *lru) Name() string { return "lru" }

// toTop moves way's nibble to the most-recent end of order o. The way's
// position is found with a SWAR zero-nibble search: x has a zero nibble
// exactly where way sits, and the lowest flagged nibble of the classic
// (x - ones) &^ x & highs test is always a true zero (only nibbles above a
// zero can be false positives, through the borrow).
func toTop(o uint64, way int) uint64 {
	x := o ^ uint64(way)*nibbleOnes
	shift := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&(nibbleOnes<<3))) &^ 3
	below := o & (1<<shift - 1)
	above := o >> (shift + 4) // a shift of 64 yields 0
	return below | above<<shift | uint64(way)<<60
}

// OnHit implements Repl.
func (l *lru) OnHit(set, way int) { l.order[set] = toTop(l.order[set], way) }

// OnFill implements Repl.
func (l *lru) OnFill(set, way int) { l.order[set] = toTop(l.order[set], way) }

// Adopt implements Repl.
func (l *lru) Adopt(src Repl, g int) {
	o := src.(*lru)
	for set := g; set < len(l.order); set += NumGroups {
		l.order[set] = o.order[set]
	}
}

// Victim implements Repl: the least recent way inside mask.
func (l *lru) Victim(set int, mask WayMask) int {
	o := l.order[set] >> l.skip
	for i := 0; i < l.ways; i++ {
		if w := int(o & 15); mask.Has(w) {
			return w
		}
		o >>= 4
	}
	panic(fmt.Sprintf("cache: Victim called with mask %v holding no way of %d", mask, l.ways))
}

func (l *lru) sizeBytes() int { return len(l.order) * int(unsafe.Sizeof(l.order[0])) }

// rrip is the SRRIP policy of Jaleel et al., adapted to masked victim
// selection as Section 7 describes: re-reference prediction values (RRPV)
// per line; victims are lines with the maximum RRPV inside the mask, aging
// the masked lines when none qualifies.
type rrip struct {
	rrpv [][]uint8
	max  uint8
}

// NewRRIP builds an M-bit SRRIP policy (M=2 gives RRPVs 0..3).
func NewRRIP(sets, ways int, mbits uint) Repl {
	if mbits < 1 || mbits > 4 {
		panic(fmt.Sprintf("cache: RRIP width %d out of range", mbits))
	}
	r := &rrip{max: uint8(1<<mbits - 1)}
	r.rrpv = make([][]uint8, sets)
	for i := range r.rrpv {
		row := make([]uint8, ways)
		for j := range row {
			row[j] = r.max
		}
		r.rrpv[i] = row
	}
	return r
}

// Name implements Repl.
func (r *rrip) Name() string { return "rrip" }

// Adopt implements Repl. RRIP state is purely per-line, so grafting the
// group's set rows is the whole job.
func (r *rrip) Adopt(src Repl, g int) {
	o := src.(*rrip)
	for set := g; set < len(r.rrpv); set += NumGroups {
		copy(r.rrpv[set], o.rrpv[set])
	}
}

func (r *rrip) sizeBytes() int {
	return len(r.rrpv) * (int(unsafe.Sizeof(r.rrpv[0])) + len(r.rrpv[0]))
}

// OnHit implements Repl: hit promotion to RRPV 0.
func (r *rrip) OnHit(set, way int) { r.rrpv[set][way] = 0 }

// OnFill implements Repl: insert with long re-reference interval (max-1).
func (r *rrip) OnFill(set, way int) { r.rrpv[set][way] = r.max - 1 }

// Victim implements Repl.
func (r *rrip) Victim(set int, mask WayMask) int {
	if mask == 0 {
		panic("cache: Victim called with empty mask")
	}
	row := r.rrpv[set]
	for {
		for v := uint32(mask); v != 0; v &= v - 1 {
			if w := bits.TrailingZeros32(v); row[w] == r.max {
				return w
			}
		}
		// Age only the masked ways; unmasked sublevels keep their own
		// recency state, preserving per-sublevel scan resistance.
		for v := uint32(mask); v != 0; v &= v - 1 {
			row[bits.TrailingZeros32(v)]++
		}
	}
}
