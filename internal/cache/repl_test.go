package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// stampLRU is the reference true-LRU the packed order must reproduce: a
// per-line stamp from a monotone clock, the victim being the lowest stamp
// in the mask, ties (untouched lines at stamp 0) broken toward the lowest
// way.
type stampLRU struct {
	stamp [][]uint64
	clock uint64
}

func newStampLRU(sets, ways int) *stampLRU {
	s := make([][]uint64, sets)
	for i := range s {
		s[i] = make([]uint64, ways)
	}
	return &stampLRU{stamp: s}
}

func (l *stampLRU) touch(set, way int) {
	l.clock++
	l.stamp[set][way] = l.clock
}

func (l *stampLRU) victim(set int, mask WayMask) int {
	best, bestStamp := -1, ^uint64(0)
	for v := uint32(mask); v != 0; v &= v - 1 {
		w := bits.TrailingZeros32(v)
		if s := l.stamp[set][w]; best == -1 || s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// checkAllMasks asserts that the packed and stamp LRUs agree on the victim
// of every non-empty mask of the set.
func checkAllMasks(t *testing.T, packed Repl, ref *stampLRU, set, ways int, step string) {
	t.Helper()
	for m := WayMask(1); m <= FullMask(ways); m++ {
		if got, want := packed.Victim(set, m), ref.victim(set, m); got != want {
			t.Fatalf("%s: set %d mask %v: victim %d, stamp oracle %d", step, set, m, got, want)
		}
	}
}

// TestPackedLRUMatchesStamps drives the packed LRU and the stamp oracle
// through the same random hit/fill sequences and compares their victim for
// every non-empty mask.
func TestPackedLRUMatchesStamps(t *testing.T) {
	for _, ways := range []int{1, 2, 8, 16} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			const sets = 3
			rng := rand.New(rand.NewSource(int64(ways)))
			packed, ref := NewLRU(sets, ways), newStampLRU(sets, ways)
			// All 2^16-1 masks per check is costly; check the wide set
			// less often.
			every := 1
			if ways > 8 {
				every = 97
			}
			for set := 0; set < sets; set++ {
				checkAllMasks(t, packed, ref, set, ways, "untouched")
			}
			for op := 0; op < 3000; op++ {
				set, way := rng.Intn(sets), rng.Intn(ways)
				if rng.Intn(2) == 0 {
					packed.OnHit(set, way)
				} else {
					packed.OnFill(set, way)
				}
				ref.touch(set, way)
				if op%every == 0 {
					checkAllMasks(t, packed, ref, set, ways, fmt.Sprintf("op %d", op))
				}
			}
			for set := 0; set < sets; set++ {
				checkAllMasks(t, packed, ref, set, ways, "end")
			}
		})
	}
}

// FuzzPackedLRU checks the packed LRU against the stamp oracle over
// arbitrary geometry, touch sequence and victim mask. Each op byte names a
// set (bit 7) and a way (low nibble, reduced modulo the way count).
func FuzzPackedLRU(f *testing.F) {
	f.Add(uint8(15), []byte{0, 1, 2, 3, 0x83, 0x81}, uint16(0xffff))
	f.Add(uint8(7), []byte{7, 6, 5, 4, 3, 2, 1, 0, 4}, uint16(0x0f0))
	f.Add(uint8(0), []byte{0, 0x80}, uint16(1))
	f.Fuzz(func(t *testing.T, w uint8, ops []byte, m uint16) {
		ways := 1 + int(w)%16
		packed, ref := NewLRU(2, ways), newStampLRU(2, ways)
		for _, op := range ops {
			set, way := int(op>>7), int(op&15)%ways
			packed.OnHit(set, way)
			ref.touch(set, way)
		}
		for set := 0; set < 2; set++ {
			for _, mask := range []WayMask{WayMask(m) & FullMask(ways), FullMask(ways)} {
				if mask == 0 {
					continue
				}
				if got, want := packed.Victim(set, mask), ref.victim(set, mask); got != want {
					t.Fatalf("ways %d ops %x set %d mask %v: victim %d, stamp oracle %d",
						ways, ops, set, mask, got, want)
				}
			}
		}
		// A clone evolves independently of its source.
		c := packed.Clone()
		c.OnHit(0, ways-1)
		if got, want := packed.Victim(0, FullMask(ways)), ref.victim(0, FullMask(ways)); got != want {
			t.Fatalf("touching a clone moved the source: victim %d, want %d", got, want)
		}
	})
}

// TestNewLRUWayRange pins that the packed order refuses geometries it
// cannot hold, naming the way count.
func TestNewLRUWayRange(t *testing.T) {
	for _, ways := range []int{0, 17, 32} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprint(ways)) {
					t.Errorf("NewLRU(1, %d) panic = %v, want one naming %d", ways, r, ways)
				}
			}()
			NewLRU(1, ways)
		}()
	}
}

func TestLRUVictimIsLeastRecent(t *testing.T) {
	r := NewLRU(1, 4)
	for w := 0; w < 4; w++ {
		r.OnFill(0, w)
	}
	r.OnHit(0, 0) // way 0 most recent; way 1 now least recent
	if v := r.Victim(0, FullMask(4)); v != 1 {
		t.Errorf("victim = %d, want 1", v)
	}
}

func TestLRURespectsMask(t *testing.T) {
	r := NewLRU(1, 4)
	for w := 0; w < 4; w++ {
		r.OnFill(0, w)
	}
	// Way 0 is globally LRU, but the mask excludes it.
	if v := r.Victim(0, RangeMask(2, 3)); v != 2 {
		t.Errorf("victim = %d, want 2", v)
	}
}

func TestLRUPerSetIndependence(t *testing.T) {
	r := NewLRU(2, 2)
	r.OnFill(0, 0)
	r.OnFill(0, 1)
	r.OnFill(1, 1)
	r.OnFill(1, 0)
	if v := r.Victim(0, FullMask(2)); v != 0 {
		t.Errorf("set 0 victim = %d, want 0", v)
	}
	if v := r.Victim(1, FullMask(2)); v != 1 {
		t.Errorf("set 1 victim = %d, want 1", v)
	}
}

func TestLRUEmptyMaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty mask did not panic")
		}
	}()
	NewLRU(1, 2).Victim(0, 0)
}

func TestRRIPHitPromotionAndVictim(t *testing.T) {
	r := NewRRIP(1, 4, 2)
	for w := 0; w < 4; w++ {
		r.OnFill(0, w) // RRPV = 2
	}
	r.OnHit(0, 3) // RRPV(3) = 0
	// First victim requires aging: ways 0..2 reach 3 first; way 0 picked.
	if v := r.Victim(0, FullMask(4)); v != 0 {
		t.Errorf("victim = %d, want 0", v)
	}
}

func TestRRIPMaskedAging(t *testing.T) {
	r := NewRRIP(1, 4, 2)
	for w := 0; w < 4; w++ {
		r.OnFill(0, w)
	}
	r.OnHit(0, 0)
	r.OnHit(0, 1)
	// Victim restricted to {0,1}: both at RRPV 0, so the policy must age
	// within the mask and pick way 0; ways 2,3 outside stay at RRPV 2.
	if v := r.Victim(0, RangeMask(0, 1)); v != 0 {
		t.Errorf("victim = %d, want 0", v)
	}
}

func TestRRIPWidthValidation(t *testing.T) {
	for _, m := range []uint{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RRIP width %d did not panic", m)
				}
			}()
			NewRRIP(1, 2, m)
		}()
	}
}

func TestReplNames(t *testing.T) {
	if NewLRU(1, 1).Name() != "lru" || NewRRIP(1, 1, 2).Name() != "rrip" {
		t.Error("names wrong")
	}
}
