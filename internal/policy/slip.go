package policy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

// SLIP is the paper's policy driver for one cache level. Every line arrives
// with its page's SLIP code in the sidecar metadata (copied there by the
// hierarchy from the TLB, step Ð of Figure 7); the driver decodes it,
// inserts into chunk C0, and on displacement moves victims into *their own*
// SLIPs' next chunks (step Ñ), cascading strictly outward.
type SLIP struct {
	// slips is the canonical enumeration, indexed by the 3-bit code.
	slips []core.SLIP
	// level selects which code field of the metadata applies here (2 or 3).
	level  int
	numSub int

	// InsertClasses counts insertions by SLIP class for Figure 14.
	InsertClasses [4]uint64

	// Per-level lookup tables, built on the first Insert against a level
	// (tabLevel remembers which). They fold the per-insertion
	// decode/bounds/mask arithmetic into three array reads; the values are
	// pure functions of the SLIP enumeration and the level geometry, so
	// behaviour is identical to computing them inline.
	tabLevel *cache.Level
	class    []uint8           // Classify(numSub) per code
	mask0    []cache.WayMask   // chunk-0 mask per code; 0 marks bypass
	nextMask [][]cache.WayMask // [code][sublevel] mask of the chunk after
	// the one holding that sublevel; 0 when the line leaves the level
	waySub []int // sublevel of each way
	chain  []int // displacement-chain scratch (len <= numSub+1)
}

func init() {
	// SLIP and SLIP+ABP share the driver: ABP changes only which SLIPs the
	// EOU may pick, which the AllowABP capability bit communicates to the
	// hierarchy.
	newSLIP := func(cfg DriverConfig) Driver { return NewSLIP(cfg.NumSublevels, cfg.Level) }
	Register(1, Descriptor{
		Name:          "slip",
		Doc:           "SLIP reuse-predicted placement without the All-Bypass Policy",
		UsesMetadata:  true,
		SLIPMachinery: true,
		EvalOrder:     3,
		New:           newSLIP,
	})
	Register(2, Descriptor{
		Name:          "slip+abp",
		Aliases:       []string{"slip-abp", "slipabp"},
		Doc:           "SLIP with the All-Bypass Policy in the EOU candidate pool",
		UsesMetadata:  true,
		SLIPMachinery: true,
		AllowABP:      true,
		EvalOrder:     4,
		New:           newSLIP,
	})
}

// NewSLIP builds the driver for a level with numSublevels sublevels;
// level (2 or 3) selects the metadata code field.
func NewSLIP(numSublevels, level int) *SLIP {
	if level != 2 && level != 3 {
		panic(fmt.Sprintf("policy: SLIP level must be 2 or 3, got %d", level))
	}
	return &SLIP{
		slips:  core.Enumerate(numSublevels),
		level:  level,
		numSub: numSublevels,
	}
}

// OnHit implements Driver: SLIP deliberately never promotes on hit — lines
// are placed by reuse prediction instead (the core energy argument of
// Section 1).
func (*SLIP) OnHit(*cache.Level, int, int) {}

// codeOf extracts this level's 3-bit code from the metadata.
func (s *SLIP) codeOf(meta cache.Meta) uint8 {
	if s.level == 2 {
		return meta.L2Code
	}
	return meta.L3Code
}

// Decode maps a code to its SLIP.
func (s *SLIP) Decode(code uint8) core.SLIP {
	if int(code) >= len(s.slips) {
		panic(fmt.Sprintf("policy: SLIP code %d out of range", code))
	}
	return s.slips[code]
}

// DefaultCode returns the code of the Default SLIP.
func (s *SLIP) DefaultCode() uint8 {
	return core.CodeOf(core.DefaultSLIP(s.numSub), s.numSub)
}

// chunkMask returns the way mask of chunk i of sl.
func chunkMask(l *cache.Level, sl core.SLIP, i int) cache.WayMask {
	first, last := sl.ChunkBounds(i)
	return l.ChunkMask(first, last)
}

// buildTables precomputes the per-code lookup tables for level l.
func (s *SLIP) buildTables(l *cache.Level) {
	s.tabLevel = l
	s.class = make([]uint8, len(s.slips))
	s.mask0 = make([]cache.WayMask, len(s.slips))
	s.nextMask = make([][]cache.WayMask, len(s.slips))
	for code, sl := range s.slips {
		s.class[code] = uint8(sl.Classify(s.numSub))
		if !sl.IsBypass() {
			s.mask0[code] = chunkMask(l, sl, 0)
		}
		row := make([]cache.WayMask, s.numSub)
		for sub := 0; sub < s.numSub; sub++ {
			if chunk := sl.ChunkOf(sub); chunk >= 0 && chunk+1 < sl.NumChunks() {
				row[sub] = chunkMask(l, sl, chunk+1)
			}
		}
		s.nextMask[code] = row
	}
	s.waySub = make([]int, l.NumWays())
	for w := range s.waySub {
		s.waySub[w] = l.Params().WaySublevel(w)
	}
	s.chain = make([]int, 0, s.numSub+1)
}

// Insert implements Driver: the SLIP state machine of Figure 6.
func (s *SLIP) Insert(l *cache.Level, a mem.LineAddr, dirty bool, meta cache.Meta) Outcome {
	if s.tabLevel != l {
		s.buildTables(l)
	}
	code := s.codeOf(meta)
	s.InsertClasses[s.class[code]]++
	m0 := s.mask0[code]
	if m0 == 0 { // bypass SLIPs have no chunk-0 mask
		l.NoteBypass()
		return Outcome{Bypassed: true}
	}
	set := l.SetOf(a)
	// Build the displacement chain. Each displaced line moves into the
	// next chunk of its *own* SLIP; sublevel indices increase strictly
	// along the chain, so it terminates within numSub steps (the scratch
	// slice never reallocates).
	chain := append(s.chain[:0], l.VictimIn(set, m0))
	for {
		w := chain[len(chain)-1]
		cur := l.LineAt(set, w)
		if !cur.Valid {
			break // empty way absorbs the chain
		}
		next := s.nextMask[s.codeOf(cur.Meta)][s.waySub[w]]
		if next == 0 {
			// The line's SLIP has no farther chunk (or no longer covers its
			// resident sublevel after a policy update): it leaves the level.
			break
		}
		chain = append(chain, l.VictimIn(set, next))
	}
	var out Outcome
	for k := len(chain) - 1; k >= 1; k-- {
		displaced, _ := l.Move(set, chain[k-1], chain[k])
		if k == len(chain)-1 && displaced.Valid {
			out.Evicted = displaced
			finishEviction(l, displaced, chain[k])
		}
	}
	ev := l.Fill(set, chain[0], a, dirty, meta)
	if len(chain) == 1 && ev.Valid {
		out.Evicted = ev
		finishEviction(l, ev, chain[0])
	}
	return out
}
