package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/castore"
	"repro/internal/hier"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// slipdWindow is the measured window of a fresh slipd-mix request (the
// warmup is the same length); rewindow requests lengthen it.
const slipdWindow = 40_000

// freshPerWorkload is how many fresh requests a client's script makes per
// workload it owns.
const freshPerWorkload = 2

// slipdSetupTarget is the set-up time one setup_s sample of slipd-mix
// holds (setupSampler). Each set-up leaves a daemon to stop and a store
// directory to remove, so it is smaller than the engine workloads'.
const slipdSetupTarget = 2 * time.Millisecond

// pollEvery is the closed-loop client's GET /v1/runs/{id} period.
const pollEvery = 2 * time.Millisecond

// Request kinds of a slipd-mix script.
const (
	kindFresh    = "fresh"    // a new spec: trace, warmup and window all simulated
	kindRewindow = "rewindow" // an earlier fresh spec with another window: warm-snapshot restore
	kindRepeat   = "repeat"   // an exact earlier request: answered from the result store
)

type scripted struct {
	kind string
	spec spec.Spec
	ref  int // index of the earlier request a rewindow or repeat derives from
}

// slipdShares is how many disjoint shares of the workloads a slipd-mix
// round's scripts cover, one script per share. It is fixed, so the
// requests, and the digest pinned for a seed, do not depend on the host's
// CPU count; the round runs the scripts on min(nproc, slipdShares)
// closed-loop clients.
const slipdShares = 2

// makeScript builds the request script of share c. Each share owns a
// disjoint set of the workloads, so no two clients ever race on one spec
// and every cache-hit count is deterministic. The work is the same for
// every seed. Each owned workload is requested fresh freshPerWorkload
// times, under policies dealt round-robin over every registered policy,
// and its first fresh request is rewindowed once. One repeat follows
// every second fresh request. The seed draws the order, the trace seeds
// and the repeat targets. README.md ("The slipd-mix request mix is
// assumed") gives the reasons for these proportions and windows.
func makeScript(seed uint64, c int) []scripted {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(c)))
	var mine []string
	for i, n := range workloads.Names() {
		if i%slipdShares == c {
			mine = append(mine, n)
		}
	}
	policies := hier.PolicyNames()
	var order []int // owned workload index x freshPerWorkload + occurrence
	for i := range len(mine) * freshPerWorkload {
		order = append(order, i)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	var out []scripted
	var sims, pending []int // requests that simulated; fresh requests awaiting a rewindow
	add := func(s scripted) {
		if s.kind != kindRepeat {
			sims = append(sims, len(out))
		}
		out = append(out, s)
	}
	rewindow := func() {
		f := pending[0]
		pending = pending[1:]
		sp := out[f].spec
		sp.Accesses = slipdWindow + slipdWindow/4
		add(scripted{kind: kindRewindow, spec: sp, ref: f})
	}
	for i, o := range order {
		w := uint64(slipdWindow)
		if o%freshPerWorkload == 0 {
			pending = append(pending, len(out))
		}
		add(scripted{kind: kindFresh, spec: spec.Spec{
			Policy:   policies[o%len(policies)],
			Workload: mine[o/freshPerWorkload],
			Accesses: w,
			Warmup:   &w,
			Seed:     seed*1_000_000 + uint64(c)*10_000 + uint64(i) + 1,
		}})
		if i%2 == 0 {
			continue
		}
		if len(pending) > 0 {
			rewindow()
		}
		// Repeat a request that finished at least one request ago: the
		// daemon publishes a job's completed state a moment before it
		// stores the result (see README.md), and a repeat aimed at the
		// request just polled to completion could race it.
		ref := sims[rng.Intn(len(sims)-1)]
		add(scripted{kind: kindRepeat, spec: out[ref].spec, ref: ref})
	}
	for len(pending) > 0 {
		rewindow()
	}
	return out
}

// daemon is one in-process slipd: castore disk tier, service.Server with
// Workers = nproc, HTTP on a loopback listener.
type daemon struct {
	dir  string
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

var storeSeq int

// openStore opens a castore over a new, empty directory under workDir.
func openStore() (*castore.Store, string, error) {
	storeSeq++
	dir := filepath.Join(workDir, fmt.Sprintf("store-%d-%d", os.Getpid(), storeSeq))
	if err := os.RemoveAll(dir); err != nil {
		return nil, "", err
	}
	cas, err := castore.Open(dir, castore.Options{})
	return cas, dir, err
}

// startDaemon starts a daemon over an opened store, which it takes over.
func startDaemon(cas *castore.Store, dir string, workers int) (*daemon, error) {
	srv := service.New(service.Config{Workers: workers, DiskStore: cas})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		_ = os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return d, nil
}

// stop shuts the listener and the daemon down, waits for both, and
// removes the store directory.
func (d *daemon) stop() {
	ctx := context.Background()
	_ = d.hs.Shutdown(ctx)
	<-d.done
	_ = d.srv.Shutdown(ctx)
	_ = os.RemoveAll(d.dir)
}

// metric reads one sample from the daemon's /metrics exposition.
func (d *daemon) metric(client *http.Client, name string) (float64, error) {
	resp, err := client.Get(d.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}

// reqResult is one scripted request as the client saw it.
type reqResult struct {
	kind      string
	key       string
	latency   time.Duration // POST sent to result in hand
	post      time.Duration // the POST round trip alone
	queueWait time.Duration // POST sent to first poll that saw the job leave the queue
	polls     int
	cached    bool
	result    *service.RunResult
	err       error
}

// do runs one request closed-loop: POST, then poll until the job is done.
func do(ctx context.Context, client *http.Client, base string, sp spec.Spec, tr *tracer, parent int) reqResult {
	var rr reqResult
	body, _ := json.Marshal(service.RunRequest{Spec: sp})
	t0 := time.Now()
	ps := tr.begin("service.post", parent)
	view, status, err := call(ctx, client, http.MethodPost, base+"/v1/runs", body)
	tr.end(ps)
	rr.post = time.Since(t0)
	if err == nil && status != http.StatusOK && status != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/runs: HTTP %d", status)
	}
	if err != nil {
		rr.err = err
		return rr
	}
	rr.key, rr.cached = view.Key, view.Cached
	for view.State == service.StateQueued || view.State == service.StateRunning {
		if view.State == service.StateRunning && rr.queueWait == 0 {
			rr.queueWait = time.Since(t0)
		}
		time.Sleep(pollEvery)
		gs := tr.begin("service.poll", parent)
		view, status, err = call(ctx, client, http.MethodGet, base+"/v1/runs/"+view.ID, nil)
		tr.end(gs)
		rr.polls++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET /v1/runs: HTTP %d", status)
		}
		if err != nil {
			rr.err = err
			return rr
		}
	}
	rr.latency = time.Since(t0)
	if rr.queueWait == 0 {
		rr.queueWait = rr.latency
	}
	if view.State != service.StateCompleted || view.Result == nil {
		rr.err = fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
		return rr
	}
	rr.result = view.Result
	return rr
}

func call(ctx context.Context, client *http.Client, method, url string, body []byte) (service.JobView, int, error) {
	var view service.JobView
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return view, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return view, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return view, 0, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.Unmarshal(b, &view)
	}
	return view, resp.StatusCode, err
}

// slipdRound is one daemon brought up, driven by every client's script,
// and torn down.
type slipdRound struct {
	wall      float64
	reqs      []reqResult
	scripts   [][]scripted
	runs      map[string]outputs // by spec hash, every completed request
	storeHit  float64            // slipd_result_cache_hit_ratio
	shardRuns float64            // slip_shard_runs_total
	traceHits float64            // trace-cache hit ratio of the daemon
	warmHits  float64            // warm-cache hit ratio of the daemon
	payloads  map[string][]byte  // result JSON by key, for the castore battery
	daemon    *daemon            // still running when keep is set
}

// runSlipdRound brings a daemon up, runs the clients' scripts
// concurrently (timed), checks every result and tears the daemon down,
// unless keep is set and the round succeeds: then the caller stops it.
func runSlipdRound(ctx context.Context, cfg runConfig, rep *report, parent int, keep bool) (_ *slipdRound, err error) {
	r := &slipdRound{runs: map[string]outputs{}, payloads: map[string][]byte{}}
	for c := range slipdShares {
		r.scripts = append(r.scripts, makeScript(cfg.seed, c))
	}
	clients := min(cfg.workers, slipdShares)
	cas, dir, err := openStore()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cas, dir, cfg.workers)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	defer func() {
		if keep && err == nil {
			r.daemon = d
		} else {
			d.stop()
		}
	}()

	results := make([][]reqResult, slipdShares) // by share
	var wg sync.WaitGroup
	t1 := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := cfg.tr.begin("slipd.client", parent)
			defer cfg.tr.end(cs)
			for sh := c; sh < slipdShares; sh += clients {
				for _, s := range r.scripts[sh] {
					rs := cfg.tr.begin("slipd.request."+s.kind, cs)
					rr := do(ctx, client, d.url, s.spec, cfg.tr, rs)
					cfg.tr.end(rs)
					rr.kind = s.kind
					results[sh] = append(results[sh], rr)
				}
			}
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(t1).Seconds()

	for c, script := range r.scripts {
		for i, rr := range results[c] {
			rep.attempted++
			r.reqs = append(r.reqs, rr)
			if rr.err != nil {
				rep.fail("share %d request %d (%s): %v", c, i, rr.kind, rr.err)
				continue
			}
			if script[i].kind == kindRepeat {
				orig := results[c][script[i].ref].result
				if !sameResult(orig, rr.result) {
					rep.fail("share %d request %d: repeat differs from request %d", c, i, script[i].ref)
				}
				if !rr.cached {
					rep.fail("share %d request %d: repeat of request %d was not answered from the store", c, i, script[i].ref)
				}
			}
			r.runs[rr.key] = outputsOfResult(rr.result)
			if _, ok := r.payloads[rr.key]; !ok {
				r.payloads[rr.key], _ = json.Marshal(rr.result)
			}
		}
	}
	if r.storeHit, err = d.metric(client, "slipd_result_cache_hit_ratio"); err != nil {
		return nil, err
	}
	if r.shardRuns, err = d.metric(client, "slip_shard_runs_total"); err != nil {
		return nil, err
	}
	ts, ws := d.srv.TraceCacheStats(), d.srv.WarmCacheStats()
	r.traceHits = ratio(ts.Hits, ts.Hits+ts.Misses)
	r.warmHits = ratio(ws.Hits, ws.Hits+ws.Misses)
	return r, nil
}

// sameResult compares two results field by field, ignoring the host-time
// field sim_seconds.
func sameResult(a, b *service.RunResult) bool {
	if a == nil || b == nil {
		return false
	}
	x, y := *a, *b
	x.SimSeconds, y.SimSeconds = 0, 0
	return reflect.DeepEqual(x, y)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// classLatencies splits a round's request latencies by kind, in ms.
func classLatencies(reqs []reqResult) map[string][]float64 {
	out := map[string][]float64{}
	for _, rr := range reqs {
		if rr.err == nil {
			out[rr.kind] = append(out[rr.kind], float64(rr.latency)/1e6)
		}
	}
	return out
}

func runSlipd(ctx context.Context, cfg runConfig) (*report, error) {
	rep := &report{metrics: metrics{}}
	var walls []float64
	var ref map[string]outputs
	lat := map[string][]float64{}
	requests := 0
	// Set-up is starting the daemon over an opened, empty store. Opening
	// the store is left out: it is filesystem-bound and its cost drifts
	// from 0.1 to 3 ms between runs on one host. castore.open_ms in the
	// traced run reports it. Each call opens its store before it starts
	// the clock.
	setup := &setupSampler{target: slipdSetupTarget, setup: func() (time.Duration, func(), error) {
		cas, dir, err := openStore()
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		d, err := startDaemon(cas, dir, cfg.workers)
		took := time.Since(t0)
		if err != nil {
			return 0, nil, err
		}
		return took, d.stop, nil
	}}
	err := timedLoop(cfg.seconds, func() error {
		r, err := runSlipdRound(ctx, cfg, rep, 0, false)
		if err != nil {
			return err
		}
		if err := setup.take(setupPerPass); err != nil {
			return err
		}
		walls = append(walls, r.wall)
		requests += len(r.reqs)
		for k, v := range classLatencies(r.reqs) {
			lat[k] = append(lat[k], v...)
		}
		if ref == nil {
			ref = r.runs
			checkPinned(rep, "slipd-mix", cfg.seed, digest(ref), len(r.reqs))
			return nil
		}
		compareRuns(rep, ref, r.runs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	setupS, err := setup.median()
	if err != nil {
		return nil, err
	}
	rep.metrics.set("setup_s", setupS, "s")
	rep.metrics.set("wall_s", median(walls), "s")
	rep.note("pass walls (s): %.3f", walls)
	rep.note("jobs_per_s=%.3f (requests of the median round over its wall)", float64(requests/len(walls))/median(walls))
	rep.metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.note("rounds=%d requests=%d digest=%s", len(walls), requests, digest(ref))
	for _, k := range []string{kindFresh, kindRewindow, kindRepeat} {
		v := lat[k]
		rep.note("latency %-8s n=%-4d p50=%.3fms p90=%.3fms", k, len(v), median(v), quantile(v, 0.9))
	}
	return rep, nil
}
