package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/castore"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/hier"
	"repro/internal/spec"
)

// The traced run of every workload reports the same per-layer metric set:
//   - bench.trace_overhead_frac: the workload's traced pass against an
//     untraced pass in the same process;
//   - experiments.*: the workload's own engine pass (for slipd-mix, the
//     daemon's caches plus an engine pass over the round's specs);
//   - trace, hier, mmu, cache, policy, core: the stream battery over the
//     workload's primary spec;
//   - service, castore, spec, gateway: one slipd-mix round at the same seed
//     (the workload's own, for slipd-mix).

func tracedFig9(ctx context.Context, cfg runConfig) (*report, error) {
	opts := fig9Options(cfg)
	p, _ := hier.ParsePolicy(lonePolicy)
	primary := spec.Single(loneWorkload, p)
	primary.Accesses, primary.Warmup, primary.Seed = opts.Accesses, &opts.Warmup, opts.Seed
	return tracedEngine(ctx, cfg, "fig9-matrix", opts, fig9Specs, primary)
}

func tracedLone(ctx context.Context, cfg runConfig) (*report, error) {
	sp := loneSpec(cfg)
	return tracedEngine(ctx, cfg, "lone-run", experiments.Options{},
		func(*experiments.Suite) []spec.Spec { return []spec.Spec{sp} }, sp)
}

func tracedEngine(ctx context.Context, cfg runConfig, name string, opts experiments.Options, specsOf func(*experiments.Suite) []spec.Spec, primary spec.Spec) (*report, error) {
	rep := &report{metrics: metrics{}}
	// After an untraced warm-up pass, traced and untraced passes run in
	// the order T U U T, so neither side gets the cold first pass or the
	// drift of the host alone. The last traced pass supplies the metrics.
	var ref, p *enginePass
	var walls [2][]float64 // untraced, traced
	for i, traced := range tracedOrder {
		runtime.GC()
		tr, root := (*tracer)(nil), 0
		if traced {
			tr = cfg.tr
			root = tr.begin("workload."+name, 0)
		}
		q, err := runEngine(ctx, opts, specsOf, tr, root)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		rep.attempted += len(q.runs)
		if i == 0 {
			ref = q
			checkPinned(rep, name, cfg.seed, digest(ref.runs), len(ref.runs))
			continue
		}
		compareRuns(rep, ref.runs, q.runs)
		walls[b2i(traced)] = append(walls[b2i(traced)], q.wall)
		p = q
	}
	rep.metrics.set("bench.trace_overhead_frac", median(walls[1])/median(walls[0])-1, "ratio")
	engineMetrics(rep.metrics, p, ratio(p.traceStats.Hits, p.traceStats.Hits+p.traceStats.Misses),
		ratio(p.warmStats.Hits, p.warmStats.Hits+p.warmStats.Misses))

	refOut, ok := ref.runs[primary.MustHash()]
	if !ok {
		return nil, fmt.Errorf("primary spec %s is not among the workload's runs", primary.Label())
	}
	if err := streamBattery(ctx, cfg, rep, primary, refOut); err != nil {
		return nil, err
	}
	sid := cfg.tr.begin("battery.service", 0)
	round, err := runSlipdRound(ctx, cfg, rep, sid, true)
	cfg.tr.end(sid)
	if err != nil {
		return nil, err
	}
	return rep, serviceBattery(ctx, cfg, rep, round)
}

// tracedOrder is the pass sequence of a traced run: an untraced warm-up,
// then traced (true) and untraced passes in ABBA order.
var tracedOrder = []bool{false, true, false, false, true}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func engineMetrics(m metrics, p *enginePass, traceHit, warmHit float64) {
	m.set("experiments.trace_cache_hit_ratio", traceHit, "ratio")
	m.set("experiments.warm_cache_hit_ratio", warmHit, "ratio")
	m.set("experiments.pool_busy_frac", p.busyFrac, "ratio")
	m.set("experiments.run_p50_ms", median(p.runMS), "ms")
}

func tracedSlipd(ctx context.Context, cfg runConfig) (*report, error) {
	rep := &report{metrics: metrics{}}
	// Rounds run in tracedEngine's order; the last, traced round's daemon
	// stays up for the service battery.
	var ref map[string]outputs
	var round *slipdRound
	var walls [2][]float64 // untraced, traced
	for i, traced := range tracedOrder {
		runtime.GC()
		rc, root := runConfig{seed: cfg.seed, workers: cfg.workers}, 0
		if traced {
			rc.tr = cfg.tr
			root = rc.tr.begin("workload.slipd-mix", 0)
		}
		r, err := runSlipdRound(ctx, rc, rep, root, i == len(tracedOrder)-1)
		rc.tr.end(root)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ref = r.runs
			checkPinned(rep, "slipd-mix", cfg.seed, digest(ref), len(r.reqs))
			continue
		}
		compareRuns(rep, ref, r.runs)
		walls[b2i(traced)] = append(walls[b2i(traced)], r.wall)
		round = r
	}
	rep.metrics.set("bench.trace_overhead_frac", median(walls[1])/median(walls[0])-1, "ratio")

	// The same specs through the engine alone: the service's results must
	// equal the engine's, and the pass gives the pool and per-run spans.
	byKey := map[string]spec.Spec{}
	for _, script := range round.scripts {
		for _, s := range script {
			byKey[s.spec.MustHash()] = s.spec
		}
	}
	specs := make([]spec.Spec, 0, len(byKey))
	for _, k := range sortedKeys(byKey) {
		specs = append(specs, byKey[k])
	}
	eid := cfg.tr.begin("battery.engine", 0)
	p, err := runEngine(ctx, experiments.Options{Parallelism: cfg.workers},
		func(*experiments.Suite) []spec.Spec { return specs }, cfg.tr, eid)
	cfg.tr.end(eid)
	if err != nil {
		round.daemon.stop()
		return nil, err
	}
	rep.attempted += len(p.runs)
	compareRuns(rep, p.runs, round.runs)
	engineMetrics(rep.metrics, p, round.traceHits, round.warmHits)

	primary := round.scripts[0][0].spec
	primary.Policy = lonePolicy
	engine, err := runEngine(ctx, experiments.Options{},
		func(*experiments.Suite) []spec.Spec { return []spec.Spec{primary} }, nil, 0)
	if err == nil {
		err = streamBattery(ctx, cfg, rep, primary, engine.runs[primary.MustHash()])
	}
	if err != nil {
		round.daemon.stop()
		return nil, err
	}
	return rep, serviceBattery(ctx, cfg, rep, round)
}

// serviceBattery reports the service-side layers of a slipd round whose
// daemon is still running: request-path metrics, castore I/O over the
// round's result payloads, spec hashing and the gateway's proxy overhead.
// It stops the daemon.
func serviceBattery(ctx context.Context, cfg runConfig, rep *report, r *slipdRound) error {
	defer r.daemon.stop()
	m, tr := rep.metrics, cfg.tr
	root := tr.begin("battery.layers", 0)
	defer tr.end(root)

	var posts, waits []float64
	polls, sims := 0, 0
	for _, rr := range r.reqs {
		if rr.err != nil {
			continue
		}
		posts = append(posts, float64(rr.post)/1e3)
		if !rr.cached {
			waits = append(waits, float64(rr.queueWait)/1e6)
			polls += rr.polls
			sims++
		}
	}
	lat := classLatencies(r.reqs)
	m.set("service.post_us", median(posts), "us")
	m.set("service.queue_wait_ms", median(waits), "ms")
	m.set("service.polls_per_job", float64(polls)/float64(max(sims, 1)), "count")
	m.set("service.store_hit_ratio", r.storeHit, "ratio")
	m.set("service.shard_runs", r.shardRuns, "count")
	m.set("service.fresh_p50_ms", median(lat[kindFresh]), "ms")
	m.set("service.fresh_p90_ms", quantile(lat[kindFresh], 0.9), "ms")
	m.set("service.rewindow_p50_ms", median(lat[kindRewindow]), "ms")
	m.set("service.hit_p50_us", median(lat[kindRepeat])*1e3, "us")
	m.set("service.fresh_count", float64(len(lat[kindFresh])), "count")
	m.set("service.rewindow_count", float64(len(lat[kindRewindow])), "count")
	m.set("service.hit_count", float64(len(lat[kindRepeat])), "count")

	if err := castoreLayer(m, tr, root, r.payloads); err != nil {
		return err
	}
	var hashes []float64
	for _, script := range r.scripts {
		for _, s := range script {
			t0 := time.Now()
			for range 20 {
				s.spec.MustHash()
			}
			hashes = append(hashes, float64(time.Since(t0))/20/1e3)
		}
	}
	m.set("spec.canonical_hash_us", median(hashes), "us")
	return gatewayLayer(ctx, m, tr, root, r)
}

// castoreLayer writes the round's result payloads into a fresh store,
// reopens the populated directory and reads every entry back.
func castoreLayer(m metrics, tr *tracer, root int, payloads map[string][]byte) error {
	dir := filepath.Join(workDir, fmt.Sprintf("castore-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := castore.Open(dir, castore.Options{})
	if err != nil {
		return err
	}
	var puts, gets, opens []float64
	s := tr.begin("castore.put", root)
	for _, k := range sortedKeys(payloads) {
		t0 := time.Now()
		if err := st.Put(k, payloads[k]); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t0))/1e6)
	}
	tr.end(s)
	if err := st.Close(); err != nil {
		return err
	}
	for range 5 {
		s = tr.begin("castore.open", root)
		t0 := time.Now()
		st, err = castore.Open(dir, castore.Options{})
		opens = append(opens, float64(time.Since(t0))/1e6)
		tr.end(s)
		if err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	if st, err = castore.Open(dir, castore.Options{}); err != nil {
		return err
	}
	defer st.Close()
	s = tr.begin("castore.get", root)
	for _, k := range sortedKeys(payloads) {
		t0 := time.Now()
		if _, ok := st.Get(k); !ok {
			return fmt.Errorf("castore: entry %s missing after reopen", k)
		}
		gets = append(gets, float64(time.Since(t0))/1e6)
	}
	tr.end(s)
	m.set("castore.put_ms", median(puts), "ms")
	m.set("castore.get_ms", median(gets), "ms")
	m.set("castore.open_ms", median(opens), "ms")
	return nil
}

// gatewayLayer fetches every stored result through a one-backend gateway
// and directly from the daemon, alternating, and reports the difference of
// the medians.
func gatewayLayer(ctx context.Context, m metrics, tr *tracer, root int, r *slipdRound) error {
	gw, err := gateway.New(gateway.Config{Backends: []string{r.daemon.url}})
	if err != nil {
		return err
	}
	gw.Start()
	defer gw.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: gw.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	defer func() {
		_ = hs.Shutdown(ctx)
		<-done
	}()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	get := func(url string) (float64, error) {
		t0 := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
		}
		return float64(time.Since(t0)) / 1e3, nil
	}
	var direct, proxied []float64
	s := tr.begin("gateway.results", root)
	defer tr.end(s)
	for range 5 {
		for _, k := range sortedKeys(r.payloads) {
			d, err := get(r.daemon.url + "/v1/results/" + k)
			if err != nil {
				return err
			}
			g, err := get("http://" + ln.Addr().String() + "/v1/results/" + k)
			if err != nil {
				return err
			}
			direct, proxied = append(direct, d), append(proxied, g)
		}
	}
	m.set("gateway.proxy_overhead_us", median(proxied)-median(direct), "us")
	return nil
}
