package hier

// Intra-run parallel execution: one run's 64 line-address groups are
// partitioned round-robin over S shard replicas, each replica replays the
// full trace on its own goroutine doing set-indexed work (tags, policy,
// energy, timing) only for the groups it owns, and the replicas are merged
// back into the receiver with a result bit-identical to the sequential
// run. The partition works because group = line mod 64 indexes every
// level's sets consistently (all levels have >= 64 sets), so a line's
// entire demand path — L1 set, L2 set, L3 set, eviction, writeback —
// stays inside its group, and every piece of set-indexed simulator state
// is keyed by group (cache rows, per-group timestamp and replacement
// clocks, movement-queue lanes, policy clocks/RNGs/windows).
//
// The page-grain machinery (TLB, sampling state machine, EOU) is the
// deliberate exception: every replica runs it for every access, exactly as
// the set-sampling fast path already did, because thinning it would change
// its trajectory. Its state is therefore *replicated* — identical on all
// shards — and the merge takes shard 0's copy. The one coupling from
// set-indexed work back into page state, reuse-distance evidence, is
// staged per batch and folded canonically on every replica at each batch
// barrier (see pending.go), which is what keeps the replicas' page
// machinery in lockstep.
//
// Merge taxonomy, by how state accumulates:
//   - group-grafted: owner shard's copy adopted wholesale (no zeroing —
//     replicas clone the receiver, so the owner carries base+delta):
//     cache rows/tags/valid, per-group timestamps, replacement rows and
//     clocks, movement-queue lanes with their counters, policy group
//     state via Driver.Adopt.
//   - owned-summed: zeroed in replicas post-clone, receiver += each
//     shard's delta: level stats, DRAM stats, NR histogram, demand/meta
//     miss counters, sampled/skipped counts, demand stalls, SLIP
//     insertion classes.
//   - replicated: identical on every shard, receiver takes shard 0's:
//     instruction counts, policy stalls, EOU op counts and objects, the
//     whole MMU.

import (
	"slices"
	"sync"

	"repro/internal/cache"
	slipcore "repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// MaxShards caps the shard count at the group count: beyond 64 shards some
// replicas would own nothing.
const MaxShards = cache.NumGroups

// Shardable reports whether this configuration supports intra-run
// sharding: every level's set count must be a multiple of the group count,
// so that a line's group indexes the same state partition at every level.
// The paper's configurations all qualify (L1 has exactly 64 sets); only
// deliberately tiny test geometries do not.
func (s *System) Shardable() bool {
	ok := func(l *cache.Level) bool {
		return l.NumSets() >= cache.NumGroups && l.NumSets()%cache.NumGroups == 0
	}
	if !ok(s.l3) {
		return false
	}
	for _, cn := range s.cores {
		if !ok(cn.l1) || !ok(cn.l2) {
			return false
		}
	}
	return true
}

// shardGroupMask selects the groups shard i of n owns (round-robin).
func shardGroupMask(i, n int) uint64 {
	var m uint64
	for g := i; g < cache.NumGroups; g += n {
		m |= 1 << uint(g)
	}
	return m
}

// pendEntry is one page's staged reuse-distance counts in transit between
// a shard and the batch-barrier aggregate.
type pendEntry struct {
	page   mem.PageID
	counts [2][slipcore.NumBins]uint16
}

// shardCmd drives a shard worker's phase loop.
type shardCmd struct {
	op int // opProcess, opApply, opExit
	k  int // batch length for opProcess
}

const (
	opProcess = iota
	opApply
	opExit
)

// shardWorker is one shard's goroutine-side state.
type shardWorker struct {
	rep  *System
	cmds chan shardCmd
	// pend[c] is core c's evidence drained from this shard after each
	// process phase, sorted by page; the coordinator aggregates it and the
	// worker truncates it during the apply phase.
	pend [][]pendEntry
}

// collectPending drains the replica's staged evidence into the worker's
// exchange buffers (sorted by page, counts copied out, staging cleared).
func (w *shardWorker) collectPending() {
	for c, cn := range w.rep.cores {
		if len(cn.pendPages) == 0 {
			continue
		}
		sortPages(cn.pendPages)
		buf := w.pend[c]
		for _, page := range cn.pendPages {
			pte := cn.mmu.PTEOf(page)
			buf = append(buf, pendEntry{page: page, counts: pte.Pend})
			pte.Pend = [2][slipcore.NumBins]uint16{}
			pte.PendDirty = false
		}
		w.pend[c] = buf
		cn.pendPages = cn.pendPages[:0]
	}
}

// applyAggregate folds the batch's full cross-shard evidence into this
// replica's page distributions, in the same canonical order on every
// shard.
func (w *shardWorker) applyAggregate(agg [][]pendEntry) {
	for c := range agg {
		if len(agg[c]) == 0 {
			continue
		}
		mmuC := w.rep.cores[c].mmu
		for i := range agg[c] {
			e := &agg[c][i]
			pte := mmuC.PTEOf(e.page)
			applyPend(&pte.L2Dist, &pte.L3Dist, &e.counts)
		}
		w.pend[c] = w.pend[c][:0]
	}
}

// loop is the worker goroutine: process a batch, then apply the fold, in
// lockstep with the coordinator's barriers.
func (w *shardWorker) loop(wg *sync.WaitGroup, batch []trace.Access, coreIDs []int, agg [][]pendEntry) {
	for cmd := range w.cmds {
		switch cmd.op {
		case opProcess:
			w.rep.replay(batch[:cmd.k], coreIDs)
			w.collectPending()
		case opApply:
			w.applyAggregate(agg)
		case opExit:
			return
		}
		wg.Done()
	}
}

// shardPool is the parallel side of a sharded run: one replica and one
// worker goroutine per shard, driven through two barriers per batch.
type shardPool struct {
	workers []*shardWorker
	agg     [][]pendEntry
	wg      sync.WaitGroup
}

// startShards clones the receiver into `shards` replicas, each owning its
// round-robin share of the groups, and starts their workers over the
// coordinator's decode buffers.
func (s *System) startShards(shards int, batch []trace.Access, coreIDs []int) *shardPool {
	numCores := len(s.cores)
	p := &shardPool{workers: make([]*shardWorker, shards), agg: make([][]pendEntry, numCores)}
	for i := range p.workers {
		rep := s.clone()
		rep.shardMask = shardGroupMask(i, shards)
		rep.zeroOwnedCounters()
		w := &shardWorker{rep: rep, cmds: make(chan shardCmd, 1), pend: make([][]pendEntry, numCores)}
		p.workers[i] = w
		go w.loop(&p.wg, batch, coreIDs, p.agg)
	}
	return p
}

// step replays the batch's first k accesses on every shard. Barrier 1:
// every shard replays the batch (set-indexed work only for its own
// groups) and drains its staged evidence; the coordinator aggregates it
// into one canonical per-core list. Barrier 2: every shard applies the
// identical fold, keeping all replicas' page machinery in lockstep.
func (p *shardPool) step(k int) {
	p.broadcast(shardCmd{op: opProcess, k: k})
	aggregatePending(p.agg, p.workers)
	p.broadcast(shardCmd{op: opApply})
}

// broadcast runs one phase on every worker and waits for all of them.
func (p *shardPool) broadcast(cmd shardCmd) {
	p.wg.Add(len(p.workers))
	for _, w := range p.workers {
		w.cmds <- cmd
	}
	p.wg.Wait()
}

// stop ends the worker goroutines; the replicas stay readable.
func (p *shardPool) stop() {
	for _, w := range p.workers {
		w.cmds <- shardCmd{op: opExit}
	}
}

// aggregatePending merges every worker's drained evidence into agg: per
// core, all shards' entries sorted by page with duplicate pages' counts
// summed. Counts cannot overflow — a batch contributes at most one L2 and
// one L3 observation per access across all shards (the groups partition
// the accesses), far below uint16 for a 4096-access batch.
func aggregatePending(agg [][]pendEntry, workers []*shardWorker) {
	for c := range agg {
		buf := agg[c][:0]
		for _, w := range workers {
			buf = append(buf, w.pend[c]...)
		}
		if len(buf) > 1 {
			slices.SortFunc(buf, func(a, b pendEntry) int {
				switch {
				case a.page < b.page:
					return -1
				case a.page > b.page:
					return 1
				}
				return 0
			})
			out := buf[:1]
			for _, e := range buf[1:] {
				last := &out[len(out)-1]
				if e.page == last.page {
					for which := range e.counts {
						for bin, v := range e.counts[which] {
							last.counts[which][bin] += v
						}
					}
					continue
				}
				out = append(out, e)
			}
			buf = out
		}
		agg[c] = buf
	}
}

// zeroOwnedCounters clears the owned-summed statistics on a fresh shard
// replica, so that after the run each replica holds exactly its own delta
// and the merge can add deltas onto the receiver's base. Replicated and
// group-grafted state is deliberately left alone.
func (s *System) zeroOwnedCounters() {
	for _, cn := range s.cores {
		cn.l1.Stats.Reset()
		cn.l2.Stats.Reset()
		cn.demandStalls = 0
	}
	s.l3.Stats.Reset()
	s.dram.Stats.Reads.Reset()
	s.dram.Stats.Writes.Reset()
	s.dram.Stats.MetadataReads.Reset()
	s.dram.Stats.MetadataWrites.Reset()
	s.dram.Stats.EnergyPJ.Reset()
	s.NRHist = [4]uint64{}
	s.L2DemandMisses, s.L2MetaAccesses, s.L2MetaMisses = 0, 0, 0
	s.L3DemandMisses, s.L3MetaAccesses, s.L3MetaMisses = 0, 0, 0
	s.SampledAccesses, s.SkippedAccesses = 0, 0
	for _, d := range s.slipL2 {
		d.InsertClasses = [4]uint64{}
	}
	if s.slipL3 != nil {
		s.slipL3.InsertClasses = [4]uint64{}
	}
}

// mergeShards folds the shard replicas back into the receiver per the
// merge taxonomy at the top of this file.
func (s *System) mergeShards(workers []*shardWorker) {
	r0 := workers[0].rep
	// Replicated state: every shard computed the same values; take shard
	// 0's (pointer adoption is safe — the replicas are discarded here).
	s.EOUOps = r0.EOUOps
	s.eouL2, s.eouL3 = r0.eouL2, r0.eouL3
	for c, cn := range s.cores {
		rcn := r0.cores[c]
		cn.Instrs = rcn.Instrs
		cn.policyStalls = rcn.policyStalls
		cn.mmu = rcn.mmu
	}
	// Owned-summed deltas.
	for _, w := range workers {
		r := w.rep
		for c, cn := range s.cores {
			cn.l1.Stats.Merge(&r.cores[c].l1.Stats)
			cn.l2.Stats.Merge(&r.cores[c].l2.Stats)
			cn.demandStalls += r.cores[c].demandStalls
		}
		s.l3.Stats.Merge(&r.l3.Stats)
		s.dram.Stats.Reads.Add(r.dram.Stats.Reads.Value())
		s.dram.Stats.Writes.Add(r.dram.Stats.Writes.Value())
		s.dram.Stats.MetadataReads.Add(r.dram.Stats.MetadataReads.Value())
		s.dram.Stats.MetadataWrites.Add(r.dram.Stats.MetadataWrites.Value())
		s.dram.Stats.EnergyPJ.Add(r.dram.Stats.EnergyPJ)
		for i, v := range r.NRHist {
			s.NRHist[i] += v
		}
		s.L2DemandMisses += r.L2DemandMisses
		s.L2MetaAccesses += r.L2MetaAccesses
		s.L2MetaMisses += r.L2MetaMisses
		s.L3DemandMisses += r.L3DemandMisses
		s.L3MetaAccesses += r.L3MetaAccesses
		s.L3MetaMisses += r.L3MetaMisses
		s.SampledAccesses += r.SampledAccesses
		s.SkippedAccesses += r.SkippedAccesses
		for i, d := range s.slipL2 {
			for k, v := range r.slipL2[i].InsertClasses {
				d.InsertClasses[k] += v
			}
		}
		if s.slipL3 != nil {
			for k, v := range r.slipL3.InsertClasses {
				s.slipL3.InsertClasses[k] += v
			}
		}
	}
	// Group-grafted state: adopt each group from the shard that owned it.
	for g := 0; g < cache.NumGroups; g++ {
		owner := workers[g%len(workers)].rep
		for c, cn := range s.cores {
			cn.l1.AdoptGroup(owner.cores[c].l1, g)
			cn.l2.AdoptGroup(owner.cores[c].l2, g)
			cn.d2.Adopt(owner.cores[c].d2, g)
		}
		s.l3.AdoptGroup(owner.l3, g)
		s.d3.Adopt(owner.d3, g)
	}
}
