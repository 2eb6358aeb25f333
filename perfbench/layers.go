package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// layerCap bounds the captured access stream the trace-independent layer
// timings (MMU, cache levels, policies) replay; the hier pass always
// drives the whole spec.
const layerCap = 1_000_000

// batchLen is the hierarchy's replay batch: RunContext folds staged
// evidence after every batch of this many accesses, so the benchmark's own
// Access loop must fold at the same points to reproduce its digest.
const batchLen = 4096

// clockOverhead is the cost of one time.Now/time.Since pair, subtracted
// from per-call timings.
func clockOverhead() time.Duration {
	const n = 10_000
	t0 := time.Now()
	for range n {
		time.Since(time.Now())
	}
	return time.Since(t0) / n
}

// perCall turns a sum of n individually timed calls into ns per call net
// of the clock overhead.
func perCall(total time.Duration, n int, overhead time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return max(0, float64(total-time.Duration(n)*overhead)/float64(n))
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// streamBattery measures the simulator layers one by one over sp's input:
// trace recording and replay, the hierarchy driven access by access
// (whose outputs must equal ref, the same spec's run through the engine),
// snapshot/restore, the sharded executor, and captured MMU, cache and
// policy streams. Every layer is driven through its package's public API.
func streamBattery(ctx context.Context, cfg runConfig, rep *report, sp spec.Spec, ref outputs) error {
	m, tr := rep.metrics, cfg.tr
	root := tr.begin("battery.stream", 0)
	defer tr.end(root)
	c, err := sp.Canonical()
	if err != nil {
		return err
	}
	hcfg, err := c.Build()
	if err != nil {
		return err
	}
	wl, _ := workloads.ByName(c.Workload)
	warm, acc := *c.Warmup, c.Accesses
	total := warm + acc

	// trace: generation+recording, replay decode, encoded size.
	s := tr.begin("trace.record", root)
	t0 := time.Now()
	buf := trace.Record(wl.Build(c.Seed), total)
	m.set("trace.record_ns_per_access", nsPer(time.Since(t0), int(total)), "ns")
	tr.end(s)
	m.set("trace.bytes_per_access", float64(buf.Size())/float64(total), "B")
	s = tr.begin("trace.replay", root)
	batch := make([]trace.Access, batchLen)
	t0 = time.Now()
	for src := buf.Replay(); trace.FillBatch(src, batch) > 0; {
	}
	m.set("trace.replay_ns_per_access", nsPer(time.Since(t0), int(total)), "ns")
	tr.end(s)

	// hier: construction, the access-by-access pass, snapshot/restore.
	var news []float64
	for range 5 {
		s = tr.begin("hier.new", root)
		t0 = time.Now()
		hier.New(hcfg)
		news = append(news, float64(time.Since(t0))/1e6)
		tr.end(s)
	}
	m.set("hier.new_ms", median(news), "ms")
	sys, err := hierPass(cfg, m, hcfg, buf, warm, acc, root)
	if err != nil {
		return err
	}
	rep.attempted++
	if got := outputsOf(sys); got != ref {
		rep.fail("hier access pass: outputs %s, engine run %s", got, ref)
	}
	m.set("hier.model.l2_misses", float64(sys.L2Misses(true)), "count")
	m.set("hier.model.l3_misses", float64(sys.L3Misses(true)), "count")
	m.set("hier.model.dram_reads", float64(sys.DRAM().Stats.Reads.Value()), "count")
	m.set("hier.model.eou_ops", float64(sys.EOUOps), "count")
	m.set("hier.model.ipc", sys.IPC(0), "instr/cycle")
	m.set("hier.model.full_system_uj", sys.FullSystemPJ()/1e6, "uJ")

	// hier: RunShardedContext at S=1 and S=2, interleaved.
	var seq, par []float64
	for i := range 4 {
		shards := 1 + i%2
		s = tr.begin(fmt.Sprintf("hier.run_sharded.s%d", shards), root)
		d, err := shardedRun(ctx, hcfg, buf, warm, acc, shards, ref, rep)
		tr.end(s)
		if err != nil {
			return err
		}
		if shards == 1 {
			seq = append(seq, d)
		} else {
			par = append(par, d)
		}
	}
	m.set("hier.shard2_speedup", median(seq)/median(par), "x")

	accs := trace.Collect(buf.Replay(), int(min(total, layerCap)))
	overhead := clockOverhead()
	mmuLayer(m, tr, root, hcfg, accs)
	l1miss, l2miss := cacheLayer(m, tr, root, sys, accs)
	policyLayer(m, tr, root, sys, l1miss, l2miss, overhead)
	return eouLayer(m, tr, root, hcfg, sys, accs)
}

// hierPass drives a fresh hierarchy access by access exactly as
// RunContext does (fold at every batch boundary, statistics reset after
// the warmup), snapshots the warm state and continues the measured window
// on a restored copy, which is how the engine's warm-state path runs.
func hierPass(cfg runConfig, m metrics, hcfg hier.Config, buf *trace.Buffer, warm, acc uint64, root int) (*hier.System, error) {
	tr := cfg.tr
	sys := hier.New(hcfg)
	src := buf.Replay()
	batch := make([]trace.Access, batchLen)
	var access, fold time.Duration
	var accesses, folds int
	phase := func(n uint64) {
		lim := trace.Limit(src, n)
		for {
			k := trace.FillBatch(lim, batch)
			t0 := time.Now()
			for i := 0; i < k; i++ {
				sys.Access(0, batch[i])
			}
			t1 := time.Now()
			sys.FoldPending()
			fold += time.Since(t1)
			access += t1.Sub(t0)
			accesses += k
			folds++
			if k < len(batch) {
				return
			}
		}
	}
	s := tr.begin("hier.access.warmup", root)
	phase(warm)
	sys.ResetStats()
	tr.end(s)

	s = tr.begin("hier.snapshot", root)
	t0 := time.Now()
	sn := sys.Snapshot()
	m.set("hier.snapshot_ms", float64(time.Since(t0))/1e6, "ms")
	tr.end(s)
	s = tr.begin("hier.restore", root)
	t0 = time.Now()
	sys = sn.System()
	m.set("hier.restore_ms", float64(time.Since(t0))/1e6, "ms")
	tr.end(s)

	s = tr.begin("hier.access.measured", root)
	phase(acc)
	tr.end(s)
	m.set("hier.access_ns", nsPer(access, accesses), "ns")
	m.set("hier.fold_us_per_batch", nsPer(fold, folds)/1e3, "us")
	return sys, nil
}

// shardedRun times one straight-through run (warmup, reset, window) with
// the sharded executor at the given width and checks its outputs.
func shardedRun(ctx context.Context, hcfg hier.Config, buf *trace.Buffer, warm, acc uint64, shards int, ref outputs, rep *report) (float64, error) {
	src := buf.Replay()
	t0 := time.Now()
	sys := hier.New(hcfg)
	if err := sys.RunShardedContext(ctx, shards, nil, trace.Limit(src, warm)); err != nil {
		return 0, err
	}
	sys.ResetStats()
	if err := sys.RunShardedContext(ctx, shards, nil, trace.Limit(src, acc)); err != nil {
		return 0, err
	}
	d := time.Since(t0).Seconds()
	rep.attempted++
	if got := outputsOf(sys); got != ref {
		rep.fail("sharded run S=%d: outputs %s, engine run %s", shards, got, ref)
	}
	return d, nil
}

// mmuLayer translates the captured page stream on a fresh MMU.
func mmuLayer(m metrics, tr *tracer, root int, hcfg hier.Config, accs []trace.Access) {
	s := tr.begin("mmu.translate", root)
	defer tr.end(s)
	u := mmu.New(mmu.Config{Seed: hcfg.Seed, BinBits: hcfg.BinBits, DisableSampling: hcfg.DisableSampling})
	t0 := time.Now()
	for _, a := range accs {
		u.Translate(a.Addr.Page())
	}
	m.set("mmu.translate_ns", nsPer(time.Since(t0), len(accs)), "ns")
	hits, misses := u.Stats.TLBHits.Value(), u.Stats.TLBMisses.Value()
	m.set("mmu.tlb_miss_ratio", ratio(misses, hits+misses), "ratio")
	m.set("mmu.profile_fetches", float64(u.Stats.ProfileFetches.Value()), "count")
}

type lineRef struct {
	line  mem.LineAddr
	store bool
}

// levelPass probes a fresh level with stream, filling every miss into an
// LRU victim (VictimIn+Fill), and returns the miss stream. The access time
// is the whole loop less a fill-only replay of the misses on another fresh
// level, which is also the fill time.
func levelPass(m metrics, tr *tracer, root int, name string, newLevel func() *cache.Level, stream []lineRef) []lineRef {
	s := tr.begin("cache."+name, root)
	defer tr.end(s)
	fill := func(l *cache.Level, r lineRef) {
		set := l.SetOf(r.line)
		l.Fill(set, l.VictimIn(set, cache.FullMask(l.NumWays())), r.line, r.store, cache.Meta{})
	}
	misses := make([]lineRef, 0, len(stream))
	l := newLevel()
	t0 := time.Now()
	for _, r := range stream {
		if !l.Access(r.line, r.store).Hit {
			misses = append(misses, lineRef{line: r.line})
			fill(l, r)
		}
	}
	all := time.Since(t0)
	l = newLevel()
	t0 = time.Now()
	for _, r := range misses {
		fill(l, r)
	}
	fills := time.Since(t0)
	m.set("cache."+name+"_access_ns", nsPer(all-fills, len(stream)), "ns")
	if name == "l1" {
		m.set("cache.l1_fill_ns", nsPer(fills, len(misses)), "ns")
	}
	m.set("cache."+name+"_hit_ratio", ratio(uint64(len(stream)-len(misses)), uint64(len(stream))), "ratio")
	return misses
}

// emptyLike returns a fresh, empty level with l's geometry and energy
// parameters.
func emptyLike(l *cache.Level, chargeMeta bool) *cache.Level {
	return cache.New(cache.Config{Params: l.Params(), Bytes: l.Lines() * mem.LineBytes, ChargeMetadata: chargeMeta})
}

// cacheLayer runs the captured line stream through L1, its miss stream
// through L2 and that miss stream through L3, each a fresh level of the
// run's geometry with LRU fills.
func cacheLayer(m metrics, tr *tracer, root int, sys *hier.System, accs []trace.Access) (l1miss, l2miss []lineRef) {
	lines := make([]lineRef, len(accs))
	for i, a := range accs {
		lines[i] = lineRef{line: a.Addr.Line(), store: a.Store}
	}
	l1miss = levelPass(m, tr, root, "l1", func() *cache.Level { return emptyLike(sys.L1(0), false) }, lines)
	l2miss = levelPass(m, tr, root, "l2", func() *cache.Level { return emptyLike(sys.L2(0), false) }, l1miss)
	levelPass(m, tr, root, "l3", func() *cache.Level { return emptyLike(sys.L3(), false) }, l2miss)
	return l1miss, l2miss
}

// policyLayer drives every registered policy's Insert and OnHit at L2
// (over the L1-miss stream) and L3 (over the L2-miss stream), timing each
// call. Inserted lines carry the Default SLIP codes, the metadata a
// sampling page's lines carry.
func policyLayer(m metrics, tr *tracer, root int, sys *hier.System, l1miss, l2miss []lineRef, overhead time.Duration) {
	s2, s3 := len(sys.L2(0).Params().SublevelWays), len(sys.L3().Params().SublevelWays)
	meta := cache.Meta{
		L2Code: core.NewEncoder(s2).Code(core.DefaultSLIP(s2)),
		L3Code: core.NewEncoder(s3).Code(core.DefaultSLIP(s3)),
	}
	for _, d := range policy.Descriptors() {
		for _, lv := range []struct {
			level  int
			like   *cache.Level
			stream []lineRef
		}{{2, sys.L2(0), l1miss}, {3, sys.L3(), l2miss}} {
			name := fmt.Sprintf("policy.%s.l%d", metricName(d.Name), lv.level)
			s := tr.begin(name, root)
			l := emptyLike(lv.like, d.UsesMetadata)
			drv := d.New(policy.DriverConfig{Level: lv.level, NumSublevels: len(lv.like.Params().SublevelWays), Seed: sys.Config().Seed})
			var ins, hit time.Duration
			var nIns, nHit int
			for _, r := range lv.stream {
				if res := l.Access(r.line, false); res.Hit {
					t := time.Now()
					drv.OnHit(l, res.Set, res.Way)
					hit += time.Since(t)
					nHit++
				} else {
					t := time.Now()
					drv.Insert(l, r.line, false, meta)
					ins += time.Since(t)
					nIns++
				}
			}
			tr.end(s)
			m.set(name+".insert_ns", perCall(ins, nIns, overhead), "ns")
			m.set(name+".onhit_ns", perCall(hit, nHit, overhead), "ns")
		}
	}
}

// eouLayer re-optimizes the distributions the finished run left in its
// page table, for both levels, on copies of the run's optimizers.
func eouLayer(m metrics, tr *tracer, root int, hcfg hier.Config, sys *hier.System, accs []trace.Access) error {
	s := tr.begin("core.eou_optimize", root)
	defer tr.end(s)
	eou2 := sys.EOUL2()
	u := sys.MMU(0)
	if eou2 == nil || u == nil {
		return fmt.Errorf("eou layer: spec has no SLIP machinery")
	}
	_, desc, _ := policy.Resolve(hcfg.Policy.String())
	l3 := sys.L3()
	p3 := l3.Params()
	lines := make([]uint64, len(p3.SublevelWays))
	for i, w := range p3.SublevelWays {
		lines[i] = uint64(w * l3.NumSets())
	}
	eou3, err := core.NewEOU(core.LevelGeom{
		SublevelWays:  p3.SublevelWays,
		SublevelLines: lines,
		SublevelPJ:    p3.SublevelPJ,
		NextLevelPJ:   sys.DRAM().AccessPJ(),
	}, desc.AllowABP)
	if err != nil {
		return err
	}
	seen := map[mem.PageID]bool{}
	var pages []mem.PageID
	for _, a := range accs {
		if p := a.Addr.Page(); !seen[p] {
			seen[p] = true
			pages = append(pages, p)
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	var d2, d3 []core.Dist
	for _, p := range pages {
		if pte := u.PTEOf(p); pte != nil {
			d2, d3 = append(d2, pte.L2Dist), append(d3, pte.L3Dist)
		}
	}
	e2 := eou2.Clone()
	var ops int
	t0 := time.Now()
	for reps := 0; ops < 100_000 && len(d2) > 0; reps++ {
		for i := range d2 {
			e2.Optimize(&d2[i])
			eou3.Optimize(&d3[i])
		}
		ops += 2 * len(d2)
	}
	m.set("core.eou_optimize_ns", nsPer(time.Since(t0), ops), "ns")
	m.set("core.eou_ops", float64(sys.EOUOps), "count")
	return nil
}
