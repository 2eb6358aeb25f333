package policy

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mem"
)

// newL2 builds a paper-configured L2 level.
func newL2(meta bool) *cache.Level {
	return cache.New(cache.Config{
		Params:         energy.L2Params45(),
		Bytes:          256 * mem.KB,
		ChargeMetadata: meta,
	})
}

// addrInSet returns the i-th distinct line that maps to set 0.
func addrInSet(i int) mem.LineAddr { return mem.LineAddr(i * 256) }

// codeFor returns the 3-bit code of a SLIP built from chunk sizes.
func codeFor(sizes ...int) uint8 {
	return core.CodeOf(core.NewSLIP(sizes...), 3)
}

func TestBaselineInsertAndEvict(t *testing.T) {
	l := newL2(false)
	b := NewBaseline()
	// Fill one set beyond capacity.
	for i := 0; i < 17; i++ {
		out := b.Insert(l, addrInSet(i), false, cache.Meta{})
		if i < 16 && out.Evicted.Valid {
			t.Fatalf("insert %d evicted early", i)
		}
		if i == 16 && !out.Evicted.Valid {
			t.Fatal("17th insert into a 16-way set did not evict")
		}
	}
	if l.Stats.Movements.Value() != 0 {
		t.Error("baseline moved lines")
	}
	if l.Stats.Evictions.Value() != 1 {
		t.Errorf("evictions = %d", l.Stats.Evictions.Value())
	}
}

func TestBaselineEvictsLRU(t *testing.T) {
	l := newL2(false)
	b := NewBaseline()
	for i := 0; i < 16; i++ {
		b.Insert(l, addrInSet(i), false, cache.Meta{})
	}
	l.Access(addrInSet(0), false) // refresh line 0
	out := b.Insert(l, addrInSet(99), false, cache.Meta{})
	if out.Evicted.Addr != addrInSet(1) {
		t.Errorf("evicted %v, want the LRU line %v", out.Evicted.Addr, addrInSet(1))
	}
}

func TestSLIPBypass(t *testing.T) {
	l := newL2(true)
	d := NewSLIP(3, 2)
	abp := core.CodeOf(core.AllBypass(), 3)
	out := d.Insert(l, addrInSet(0), false, cache.Meta{L2Code: abp})
	if !out.Bypassed || out.Evicted.Valid {
		t.Fatalf("ABP outcome = %+v", out)
	}
	if _, hit := l.Probe(addrInSet(0)); hit {
		t.Error("bypassed line is resident")
	}
	if l.Stats.Bypasses.Value() != 1 {
		t.Error("bypass not counted")
	}
	if d.InsertClasses[core.ClassABP] != 1 {
		t.Errorf("classes = %v", d.InsertClasses)
	}
}

func TestSLIPInsertsIntoFirstChunk(t *testing.T) {
	l := newL2(true)
	d := NewSLIP(3, 2)
	code := codeFor(1, 2) // {[0],[1,2]}
	for i := 0; i < 4; i++ {
		d.Insert(l, addrInSet(i), false, cache.Meta{L2Code: code})
		w, hit := l.Probe(addrInSet(i))
		if !hit || w > 3 {
			t.Fatalf("line %d at way %d, want sublevel 0 (ways 0-3)", i, w)
		}
	}
}

func TestSLIPDemotesIntoNextChunk(t *testing.T) {
	l := newL2(true)
	d := NewSLIP(3, 2)
	code := codeFor(1, 2) // {[0],[1,2]}
	for i := 0; i < 5; i++ {
		d.Insert(l, addrInSet(i), false, cache.Meta{L2Code: code})
	}
	// Line 0 was the LRU of chunk 0; it must now live in ways 4..15.
	w, hit := l.Probe(addrInSet(0))
	if !hit {
		t.Fatal("demoted line was evicted instead of moved")
	}
	if w < 4 {
		t.Errorf("demoted line at way %d, want >= 4", w)
	}
	if l.Stats.Movements.Value() != 1 {
		t.Errorf("movements = %d, want 1", l.Stats.Movements.Value())
	}
}

func TestSLIPSingleChunkEvictsOnDisplacement(t *testing.T) {
	l := newL2(true)
	d := NewSLIP(3, 2)
	code := codeFor(1) // {[0]}: bypass sublevels 1-2 entirely
	var evictions int
	for i := 0; i < 6; i++ {
		out := d.Insert(l, addrInSet(i), false, cache.Meta{L2Code: code})
		if out.Evicted.Valid {
			evictions++
		}
	}
	// 6 inserts into a 4-way chunk: 2 lines must have left the level.
	if evictions != 2 {
		t.Errorf("evictions = %d, want 2", evictions)
	}
	if l.Stats.Movements.Value() != 0 {
		t.Error("{[0]} must never move lines outward")
	}
	// No line may sit outside sublevel 0.
	l.ForEachLine(func(set, way int, ln cache.Line) {
		if way > 3 {
			t.Errorf("line at way %d despite {[0]}", way)
		}
	})
}

func TestSLIPThreeChunkCascade(t *testing.T) {
	l := newL2(true)
	d := NewSLIP(3, 2)
	code := codeFor(1, 1, 1) // {[0],[1],[2]}
	// 4 fills occupy sublevel 0; the 5th demotes one line to sublevel 1;
	// keep going until sublevel 1 (4 ways) overflows into sublevel 2.
	for i := 0; i < 9; i++ {
		d.Insert(l, addrInSet(i), false, cache.Meta{L2Code: code})
	}
	bySub := [3]int{}
	l.ForEachLine(func(set, way int, ln cache.Line) {
		bySub[l.Params().WaySublevel(way)]++
	})
	if bySub[0] != 4 || bySub[1] != 4 || bySub[2] != 1 {
		t.Errorf("sublevel occupancy = %v, want [4 4 1]", bySub)
	}
}

func TestSLIPDefaultBehavesLikeSingleChunk(t *testing.T) {
	l := newL2(true)
	d := NewSLIP(3, 2)
	def := d.DefaultCode()
	for i := 0; i < 17; i++ {
		d.Insert(l, addrInSet(i), false, cache.Meta{L2Code: def})
	}
	if l.Stats.Movements.Value() != 0 {
		t.Error("Default SLIP must not generate movements")
	}
	if l.Stats.Evictions.Value() != 1 {
		t.Errorf("evictions = %d, want 1", l.Stats.Evictions.Value())
	}
	if d.InsertClasses[core.ClassDefault] != 17 {
		t.Errorf("classes = %v", d.InsertClasses)
	}
}

func TestSLIPMixedPoliciesVictimFollowsOwnSLIP(t *testing.T) {
	l := newL2(true)
	d := NewSLIP(3, 2)
	// Park a {[0]} line in sublevel 0, then displace it with a {[0],[1,2]}
	// line: the victim's own SLIP has no next chunk, so it must leave.
	d.Insert(l, addrInSet(0), false, cache.Meta{L2Code: codeFor(1)})
	for i := 1; i < 4; i++ {
		d.Insert(l, addrInSet(i), false, cache.Meta{L2Code: codeFor(1)})
	}
	out := d.Insert(l, addrInSet(9), false, cache.Meta{L2Code: codeFor(1, 2)})
	if !out.Evicted.Valid || out.Evicted.Addr != addrInSet(0) {
		t.Errorf("outcome = %+v, want eviction of line 0", out)
	}
	if _, hit := l.Probe(addrInSet(0)); hit {
		t.Error("{[0]} victim still resident")
	}
}

func TestSLIPDirtyEvictionChargesRead(t *testing.T) {
	l := newL2(true)
	d := NewSLIP(3, 2)
	code := codeFor(1)
	d.Insert(l, addrInSet(0), true, cache.Meta{L2Code: code}) // dirty
	for i := 1; i < 5; i++ {
		d.Insert(l, addrInSet(i), false, cache.Meta{L2Code: code})
	}
	if l.Stats.Writebacks.Value() != 1 {
		t.Errorf("writebacks = %d, want 1", l.Stats.Writebacks.Value())
	}
}

func TestSLIPLevelSelection(t *testing.T) {
	l := newL2(true)
	d3 := NewSLIP(3, 3)
	// A driver for level 3 must read L3Code, not L2Code.
	out := d3.Insert(l, addrInSet(0), false, cache.Meta{
		L2Code: core.CodeOf(core.AllBypass(), 3),
		L3Code: d3.DefaultCode(),
	})
	if out.Bypassed {
		t.Error("L3 driver read the L2 code")
	}
}

func TestSLIPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad level did not panic")
		}
	}()
	NewSLIP(3, 4)
}

func TestNuRAPIDInsertsNearAndPromotes(t *testing.T) {
	l := newL2(true)
	n := NewNuRAPID()
	// Fill sublevel 0, then demote one line by inserting a 5th.
	for i := 0; i < 5; i++ {
		n.Insert(l, addrInSet(i), false, cache.Meta{})
	}
	w, hit := l.Probe(addrInSet(0))
	if !hit || l.Params().WaySublevel(w) != 1 {
		t.Fatalf("line 0 at way %d, want demoted to sublevel 1", w)
	}
	if !l.Demoted(l.SetOf(addrInSet(0)), w) {
		t.Error("demoted line not marked")
	}
	// A hit must promote it back to sublevel 0 via swap.
	set := l.SetOf(addrInSet(0))
	r := l.Access(addrInSet(0), false)
	n.OnHit(l, set, r.Way)
	w2, _ := l.Probe(addrInSet(0))
	if l.Params().WaySublevel(w2) != 0 {
		t.Errorf("after hit, line at sublevel %d, want 0", l.Params().WaySublevel(w2))
	}
}

func TestNuRAPIDPromotionSwapsNotEvicts(t *testing.T) {
	l := newL2(true)
	n := NewNuRAPID()
	for i := 0; i < 5; i++ {
		n.Insert(l, addrInSet(i), false, cache.Meta{})
	}
	evBefore := l.Stats.Evictions.Value()
	r := l.Access(addrInSet(0), false) // resident in sublevel 1
	n.OnHit(l, l.SetOf(addrInSet(0)), r.Way)
	if l.Stats.Evictions.Value() != evBefore {
		t.Error("promotion evicted a line")
	}
	// All five lines still resident.
	for i := 0; i < 5; i++ {
		if _, hit := l.Probe(addrInSet(i)); !hit {
			t.Errorf("line %d lost during promotion", i)
		}
	}
}

func TestNuRAPIDNearHitNoMovement(t *testing.T) {
	l := newL2(true)
	n := NewNuRAPID()
	n.Insert(l, addrInSet(0), false, cache.Meta{})
	before := l.Stats.Movements.Value()
	r := l.Access(addrInSet(0), false)
	n.OnHit(l, l.SetOf(addrInSet(0)), r.Way)
	if l.Stats.Movements.Value() != before {
		t.Error("hit in sublevel 0 caused movement")
	}
}

func TestNuRAPIDCascadeEvictsFromLastSublevel(t *testing.T) {
	l := newL2(true)
	n := NewNuRAPID()
	evictions := 0
	for i := 0; i < 20; i++ {
		if out := n.Insert(l, addrInSet(i), false, cache.Meta{}); out.Evicted.Valid {
			evictions++
		}
	}
	if evictions != 4 {
		t.Errorf("evictions = %d, want 4 (20 inserts, 16 ways)", evictions)
	}
}

func TestLRUPEAWeightedRandomInsertion(t *testing.T) {
	l := newL2(true)
	p := NewLRUPEA(7)
	counts := [3]int{}
	// Use distinct sets so no displacement happens.
	for i := 0; i < 3000; i++ {
		a := mem.LineAddr(i)
		p.Insert(l, a, false, cache.Meta{})
		w, hit := l.Probe(a)
		if !hit {
			t.Fatal("inserted line missing")
		}
		counts[l.Params().WaySublevel(w)]++
	}
	// Expected proportions 4:4:8.
	if counts[0] < 600 || counts[0] > 900 || counts[2] < 1300 || counts[2] > 1700 {
		t.Errorf("sublevel insertion counts = %v, want ≈ [750 750 1500]", counts)
	}
}

func TestLRUPEAPromotionOneStep(t *testing.T) {
	l := newL2(true)
	p := NewLRUPEA(7)
	// Place a line directly in sublevel 2 and fill sublevel 1 so promotion
	// must swap.
	a := addrInSet(0)
	set := l.SetOf(a)
	l.Fill(set, 10, a, false, cache.Meta{})
	b := addrInSet(1)
	l.Fill(set, 4, b, false, cache.Meta{})
	r := l.Access(a, false)
	p.OnHit(l, set, r.Way)
	w, _ := l.Probe(a)
	if l.Params().WaySublevel(w) != 1 {
		t.Errorf("promoted line at sublevel %d, want 1", l.Params().WaySublevel(w))
	}
}

func TestLRUPEAPrefersEvictingDemoted(t *testing.T) {
	l := newL2(true)
	set := 0
	// Fill sublevel 0 (ways 0-3); mark way 2 demoted. Way 0 is LRU, but
	// preferential eviction must pick way 2.
	for w := 0; w < 4; w++ {
		l.Fill(set, w, addrInSet(w), false, cache.Meta{})
	}
	l.MarkDemoted(set, 2, true)
	v := l.VictimPrefer(set, cache.RangeMask(0, 3))
	if v != 2 {
		t.Errorf("victim = %d, want demoted way 2", v)
	}
}
