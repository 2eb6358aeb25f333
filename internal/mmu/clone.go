package mmu

import (
	"unsafe"

	"repro/internal/mem"
)

// Clone returns a deep copy of the MMU: the page table, the TLB arrays and
// the RNG cursor are all duplicated so the copy evolves independently. PTE
// pointer aliasing is preserved — a TLB slot in the clone points at the
// clone's copy of the same page entry, never at the original's — which is
// what makes a cloned system bit-identical to the original under further
// simulation.
func (m *MMU) Clone() *MMU {
	c := &MMU{
		cfg:     m.cfg,
		lastHit: m.lastHit,
		clock:   m.clock,
		Stats:   m.Stats,
	}
	rng := *m.rng
	c.rng = &rng
	c.pages = make(map[mem.PageID]*PTE, len(m.pages))
	flat := make([]PTE, 0, len(m.pages))
	for p, pte := range m.pages {
		flat = append(flat, *pte)
		c.pages[p] = &flat[len(flat)-1]
	}
	c.tlbPages = append(make([]mem.PageID, 0, cap(m.tlbPages)), m.tlbPages...)
	c.tlbStamps = append(make([]uint64, 0, cap(m.tlbStamps)), m.tlbStamps...)
	c.tlbPTEs = make([]*PTE, len(m.tlbPTEs), cap(m.tlbPTEs))
	for i, p := range m.tlbPages {
		if m.pages[p] != m.tlbPTEs[i] {
			panic("mmu: TLB entry points at a PTE that is not its page's table entry")
		}
		c.tlbPTEs[i] = c.pages[p]
	}
	return c
}

// SizeBytes is the retained footprint of a cloned MMU, charged by
// byte-budgeted snapshot caches: the page table — one PTE plus one map
// slot per page — and the TLB arrays.
func (m *MMU) SizeBytes() int {
	pte := unsafe.Sizeof(PTE{})
	// A Go map keeps its slots at most 7/8 full, in power-of-two tables.
	// A slot is the key, the value, a control byte and about one more
	// byte of table headers and allocation rounding.
	slot := unsafe.Sizeof(mem.PageID(0)) + unsafe.Sizeof((*PTE)(nil)) + 2
	slots := 8
	for slots*7 < len(m.pages)*8 {
		slots *= 2
	}
	tlb := unsafe.Sizeof(mem.PageID(0)) + unsafe.Sizeof((*PTE)(nil)) + unsafe.Sizeof(uint64(0))
	return int(unsafe.Sizeof(*m)+unsafe.Sizeof(*m.rng)+tlb*uintptr(m.cfg.TLBEntries)) +
		len(m.pages)*int(pte) + slots*int(slot)
}
