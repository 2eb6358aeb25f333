package cache

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/mem"
)

// testLevel builds a paper-configured L2 (256KB, 16 way).
func testLevel(meta bool) *Level {
	return New(Config{
		Params:         energy.L2Params45(),
		Bytes:          256 * mem.KB,
		ChargeMetadata: meta,
	})
}

func TestLevelGeometry(t *testing.T) {
	l := testLevel(false)
	if l.NumSets() != 256 || l.NumWays() != 16 {
		t.Fatalf("geometry = %d sets x %d ways", l.NumSets(), l.NumWays())
	}
	if l.Lines() != 4096 {
		t.Errorf("Lines = %d", l.Lines())
	}
	if l.Name() != "L2" {
		t.Errorf("Name = %s", l.Name())
	}
}

func TestLevelConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"nil params": {Bytes: 256 * mem.KB},
		"bad bytes":  {Params: energy.L2Params45(), Bytes: 100},
		"non-pow2-sets": {Params: energy.L2Params45(),
			Bytes: 3 * 16 * 64 * mem.KB / mem.KB * mem.KB},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	l := testLevel(false)
	a := mem.Addr(0x10000).Line()
	if r := l.Access(a, false); r.Hit {
		t.Fatal("cold access hit")
	}
	set := l.SetOf(a)
	way := l.VictimIn(set, FullMask(16))
	ev := l.Fill(set, way, a, false, Meta{})
	if ev.Valid {
		t.Fatal("cold fill displaced a line")
	}
	r := l.Access(a, false)
	if !r.Hit || r.Way != way {
		t.Fatalf("refetch: hit=%v way=%d", r.Hit, r.Way)
	}
	if r.Sublevel != l.Params().WaySublevel(way) {
		t.Error("sublevel mismatch")
	}
	if l.Stats.Hits.Value() != 1 || l.Stats.Misses.Value() != 1 || l.Stats.Fills.Value() != 1 {
		t.Errorf("stats: %+v", l.Stats)
	}
}

func TestVictimPrefersInvalidWay(t *testing.T) {
	l := testLevel(false)
	set := 0
	l.Fill(set, 0, mem.LineAddr(0), false, Meta{})
	// Ways 1.. are invalid; victim in the full mask must be one of them.
	if v := l.VictimIn(set, FullMask(16)); v != 1 {
		t.Errorf("victim = %d, want first invalid way 1", v)
	}
	// Restricted to way 0 only, the valid line must be chosen.
	if v := l.VictimIn(set, RangeMask(0, 0)); v != 0 {
		t.Errorf("victim = %d, want 0", v)
	}
}

func TestStoreDirtiesLine(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(42)
	set := l.SetOf(a)
	l.Fill(set, 0, a, false, Meta{})
	l.Access(a, true)
	if !l.LineAt(set, 0).Dirty {
		t.Error("store hit did not dirty the line")
	}
}

func TestHitEnergyMatchesWay(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(7)
	set := l.SetOf(a)
	l.Fill(set, 12, a, false, Meta{}) // way 12: sublevel 2, 50 pJ
	before := l.Stats.AccessPJ.PJ()
	l.Access(a, false)
	if got := l.Stats.AccessPJ.PJ() - before; got != 50 {
		t.Errorf("hit energy = %v pJ, want 50", got)
	}
	if l.Stats.HitsPerSublevel[2] != 1 {
		t.Errorf("sublevel hit counters = %v", l.Stats.HitsPerSublevel)
	}
}

func TestFillEnergyIsMovement(t *testing.T) {
	l := testLevel(false)
	l.Fill(0, 0, mem.LineAddr(0), false, Meta{}) // way 0: 21 pJ write
	if got := l.Stats.MovementPJ.PJ(); got != 21 {
		t.Errorf("fill energy = %v pJ, want 21", got)
	}
}

func TestMetadataChargedOnlyWhenEnabled(t *testing.T) {
	plain, meta := testLevel(false), testLevel(true)
	a := mem.LineAddr(3)
	for _, l := range []*Level{plain, meta} {
		l.Fill(l.SetOf(a), 0, a, false, Meta{})
		l.Access(a, false)
	}
	if plain.Stats.MetadataPJ.PJ() != 0 {
		t.Errorf("baseline charged metadata: %v", plain.Stats.MetadataPJ.PJ())
	}
	if meta.Stats.MetadataPJ.PJ() <= 0 {
		t.Error("metadata-enabled level charged nothing")
	}
}

func TestMoveTransfersLineAndCharges(t *testing.T) {
	l := testLevel(true)
	a := mem.LineAddr(9)
	set := l.SetOf(a)
	l.Fill(set, 2, a, true, Meta{L2Code: 5})
	before := l.Stats.MovementPJ.PJ()
	displaced, _ := l.Move(set, 2, 10)
	if displaced.Valid {
		t.Error("move into empty way displaced something")
	}
	if got := l.Stats.MovementPJ.PJ() - before; got != 21+50 {
		t.Errorf("move energy = %v pJ, want 71 (read way2 + write way10)", got)
	}
	if w, hit := l.Probe(a); !hit || w != 10 {
		t.Errorf("after move: way=%d hit=%v", w, hit)
	}
	ln := l.LineAt(set, 10)
	if !ln.Dirty || ln.Meta.L2Code != 5 {
		t.Error("move lost dirty bit or metadata")
	}
	if l.LineAt(set, 2).Valid {
		t.Error("source way still valid after move")
	}
	if l.Stats.Movements.Value() != 1 {
		t.Error("movement not counted")
	}
}

func TestMoveDisplacedLineReturned(t *testing.T) {
	l := testLevel(false)
	a, b := mem.LineAddr(0), mem.LineAddr(256) // same set (256 sets)
	set := l.SetOf(a)
	if l.SetOf(b) != set {
		t.Fatal("test addresses must share a set")
	}
	l.Fill(set, 0, a, false, Meta{})
	l.Fill(set, 5, b, true, Meta{})
	displaced, _ := l.Move(set, 0, 5)
	if !displaced.Valid || displaced.Addr != b || !displaced.Dirty {
		t.Errorf("displaced = %+v", displaced)
	}
}

func TestMovePanics(t *testing.T) {
	l := testLevel(false)
	l.Fill(0, 0, mem.LineAddr(0), false, Meta{})
	for name, f := range map[string]func(){
		"invalid source": func() { l.Move(0, 3, 4) },
		"self move":      func() { l.Move(0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReuseCounting(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(11)
	set := l.SetOf(a)
	l.Fill(set, 0, a, false, Meta{})
	for i := 0; i < 3; i++ {
		l.Access(a, false)
	}
	if got := l.LineAt(set, 0).Reuses; got != 3 {
		t.Errorf("Reuses = %d, want 3", got)
	}
	// Fill over it: the evicted copy carries the reuse count.
	ev := l.Fill(set, 0, mem.LineAddr(a+256), false, Meta{})
	if !ev.Valid || ev.Reuses != 3 {
		t.Errorf("evicted = %+v", ev)
	}
}

func TestTimestampRDEstimation(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(1)
	set := l.SetOf(a)
	l.Fill(set, 0, a, false, Meta{})
	// Touch many other lines to advance T by ~2 granules (granule = 256).
	for i := 0; i < 512; i++ {
		l.Access(mem.LineAddr(uint64(i)*999+7), false)
	}
	r := l.Access(a, false)
	if !r.Hit {
		t.Fatal("expected hit")
	}
	// T advanced 513 accesses ≈ 2 granules; the estimate is granular, so
	// accept [256, 1024).
	if r.RDLines < 256 || r.RDLines >= 1024 {
		t.Errorf("RDLines = %d, want ≈ 512", r.RDLines)
	}
}

func TestSublevelAndChunkMasks(t *testing.T) {
	l := testLevel(false)
	if l.SublevelMask(0) != RangeMask(0, 3) {
		t.Errorf("sublevel 0 mask = %v", l.SublevelMask(0))
	}
	if l.SublevelMask(2) != RangeMask(8, 15) {
		t.Errorf("sublevel 2 mask = %v", l.SublevelMask(2))
	}
	if l.ChunkMask(1, 2) != RangeMask(4, 15) {
		t.Errorf("chunk mask = %v", l.ChunkMask(1, 2))
	}
}

func TestInvalidate(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(77)
	l.Fill(l.SetOf(a), 3, a, true, Meta{})
	ln, ok := l.Invalidate(a)
	if !ok || !ln.Dirty || ln.Addr != a {
		t.Errorf("invalidate = %+v ok=%v", ln, ok)
	}
	if _, hit := l.Probe(a); hit {
		t.Error("line still resident after invalidate")
	}
	if _, ok := l.Invalidate(a); ok {
		t.Error("double invalidate succeeded")
	}
}

func TestForEachLine(t *testing.T) {
	l := testLevel(false)
	for i := 0; i < 5; i++ {
		a := mem.LineAddr(i * 1000)
		l.Fill(l.SetOf(a), i, a, false, Meta{})
	}
	n := 0
	l.ForEachLine(func(set, way int, ln Line) {
		if !ln.Valid {
			t.Error("visited invalid line")
		}
		n++
	})
	if n != 5 {
		t.Errorf("visited %d lines, want 5", n)
	}
}

func TestEvictionAccounting(t *testing.T) {
	l := testLevel(false)
	l.NoteEviction(true)
	l.NoteEviction(false)
	l.NoteBypass()
	if l.Stats.Evictions.Value() != 2 || l.Stats.Writebacks.Value() != 1 || l.Stats.Bypasses.Value() != 1 {
		t.Errorf("stats: %+v", l.Stats)
	}
	l.EvictionRead(15)
	if l.Stats.MovementPJ.PJ() != 50 {
		t.Errorf("eviction read = %v pJ, want 50", l.Stats.MovementPJ.PJ())
	}
}

func TestTotalPJSums(t *testing.T) {
	l := testLevel(true)
	a := mem.LineAddr(5)
	l.Fill(l.SetOf(a), 0, a, false, Meta{})
	l.Access(a, false)
	s := &l.Stats
	if s.TotalPJ() != s.AccessPJ.PJ()+s.MovementPJ.PJ()+s.MetadataPJ.PJ() {
		t.Error("TotalPJ does not sum components")
	}
}

func TestWritebackTo(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(31)
	set := l.SetOf(a)
	l.Fill(set, 6, a, false, Meta{})
	before := l.Stats.MovementPJ.PJ()
	if !l.WritebackTo(a) {
		t.Fatal("resident line not found for writeback")
	}
	ln := l.LineAt(set, 6)
	if !ln.Dirty {
		t.Error("writeback did not dirty the line")
	}
	// Way 6 is sublevel 1: 33 pJ write charged as movement energy.
	if got := l.Stats.MovementPJ.PJ() - before; got != 33 {
		t.Errorf("writeback energy = %v, want 33", got)
	}
	if l.WritebackTo(mem.LineAddr(9999)) {
		t.Error("writeback hit a non-resident line")
	}
}

func TestSwap(t *testing.T) {
	l := testLevel(false)
	a, b := mem.LineAddr(0), mem.LineAddr(256)
	set := l.SetOf(a)
	l.Fill(set, 0, a, true, Meta{L2Code: 1})
	l.Fill(set, 12, b, false, Meta{L2Code: 2})
	before := l.Stats.MovementPJ.PJ()
	l.Swap(set, 0, 12)
	// Swap reads and rewrites both lines: 2*(21+50) pJ.
	if got := l.Stats.MovementPJ.PJ() - before; got != 2*(21+50) {
		t.Errorf("swap energy = %v, want 142", got)
	}
	if w, _ := l.Probe(a); w != 12 {
		t.Errorf("line a at way %d after swap", w)
	}
	if w, _ := l.Probe(b); w != 0 {
		t.Errorf("line b at way %d after swap", w)
	}
	if !l.LineAt(set, 12).Dirty || l.LineAt(set, 0).Dirty {
		t.Error("dirty bits did not travel with the lines")
	}
	if l.Stats.Movements.Value() != 2 {
		t.Errorf("movements = %d, want 2", l.Stats.Movements.Value())
	}
}

func TestSwapPanics(t *testing.T) {
	l := testLevel(false)
	l.Fill(0, 0, mem.LineAddr(0), false, Meta{})
	for name, f := range map[string]func(){
		"self":    func() { l.Swap(0, 0, 0) },
		"invalid": func() { l.Swap(0, 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s swap did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStatsReset(t *testing.T) {
	l := testLevel(true)
	a := mem.LineAddr(5)
	l.Fill(l.SetOf(a), 0, a, false, Meta{})
	l.Access(a, false)
	l.Stats.Reset()
	if l.Stats.TotalPJ() != 0 || l.Stats.Hits.Value() != 0 || l.Stats.Fills.Value() != 0 {
		t.Error("Reset left residue")
	}
	// Cache contents survive a stats reset.
	if _, hit := l.Probe(a); !hit {
		t.Error("Reset dropped cache contents")
	}
}

func TestRRIPLevelConstruction(t *testing.T) {
	l := New(Config{Params: energy.L2Params45(), Bytes: 256 * mem.KB, UseRRIP: true})
	if l.Repl().Name() != "rrip" {
		t.Error("UseRRIP ignored")
	}
}

// TestDemotedFollowsLine pins the per-set demoted mask to the line that
// carries it: a move takes the bit along, a swap exchanges it, and a fill
// or invalidation over the way clears it.
func TestDemotedFollowsLine(t *testing.T) {
	l := testLevel(true)
	set := 0
	addr := func(w int) mem.LineAddr { return mem.LineAddr(w * l.NumSets()) }
	for w := 0; w < 4; w++ {
		l.Fill(set, w, addr(w), false, Meta{})
	}
	want := func(step string, demoted ...int) {
		t.Helper()
		var m WayMask
		for _, w := range demoted {
			m |= 1 << w
		}
		for w := 0; w < l.NumWays(); w++ {
			if l.Demoted(set, w) != m.Has(w) {
				t.Fatalf("%s: Demoted(%d) = %v, want demoted ways %v", step, w, l.Demoted(set, w), demoted)
			}
		}
	}
	l.MarkDemoted(set, 1, true)
	want("mark", 1)
	l.Move(set, 1, 8) // into an empty way
	want("move", 8)
	l.Move(set, 0, 8) // over the demoted line: the mover is not demoted
	want("move over")
	l.MarkDemoted(set, 2, true)
	l.Swap(set, 2, 3)
	want("swap", 3)
	l.Swap(set, 8, 3)
	want("swap back", 8)
	l.Fill(set, 8, addr(9), false, Meta{})
	want("fill")
	l.MarkDemoted(set, 3, true) // way 3 now holds line 0
	if _, ok := l.Invalidate(addr(0)); !ok {
		t.Fatal("line 0 not resident")
	}
	want("invalidate")
	if v := l.VictimPrefer(set, RangeMask(2, 3)); v != 3 {
		t.Errorf("VictimPrefer over an invalidated way = %d, want the free way 3", v)
	}
}
