package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testServer builds a started server plus an httptest front end.
func testServer(t *testing.T, cfg Config, hook func(*Job)) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DefaultAccesses == 0 {
		cfg.DefaultAccesses = 20_000
	}
	srv := New(cfg)
	srv.testHookJobStart = hook
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// postRun submits a run body and decodes the response.
func postRun(t *testing.T, ts *httptest.Server, body string) (int, JobView, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v JobView
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode, v, resp.Header
}

// pollJob polls GET /v1/runs/{id} until the job leaves queued/running.
func pollJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.State != StateQueued && v.State != StateRunning {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobView{}
}

// TestEndToEndRunAndResultCache drives the acceptance path: POST queues a
// small run, GET reports completion with a non-empty result, and an
// identical second POST is answered from the result store with the
// cache-hit counter in /metrics observing it.
func TestEndToEndRunAndResultCache(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 2, QueueDepth: 8}, nil)

	body := `{"workload":"milc","policy":"slip+abp","accesses":20000,"warmup":20000,"seed":7}`
	code, v, _ := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	if v.ID == "" || v.State != StateQueued {
		t.Fatalf("POST view = %+v, want queued with id", v)
	}

	done := pollJob(t, ts, v.ID)
	if done.State != StateCompleted {
		t.Fatalf("job finished %s (%s), want completed", done.State, done.Error)
	}
	res := done.Result
	if res == nil || res.FullSystemPJ <= 0 || res.Cycles <= 0 || res.Instrs == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.L2HitRate < 0 || res.L2HitRate > 1 || res.L3HitRate < 0 || res.L3HitRate > 1 {
		t.Errorf("hit rates out of range: %+v", res)
	}
	if done.Progress != done.Total || done.Total != 40_000 {
		t.Errorf("progress/total = %d/%d, want 40000/40000", done.Progress, done.Total)
	}

	code, v2, _ := postRun(t, ts, body)
	if code != http.StatusOK || !v2.Cached {
		t.Fatalf("identical POST = %d cached=%v, want 200 from the result store", code, v2.Cached)
	}
	if v2.Result == nil || v2.Result.FullSystemPJ != res.FullSystemPJ {
		t.Errorf("cached result differs: %+v vs %+v", v2.Result, res)
	}
	if hits := srv.metrics.cacheHits.Value(); hits != 1 {
		t.Errorf("cache hits = %v, want 1", hits)
	}

	metrics := getBody(t, ts, "/metrics")
	for _, want := range []string{
		"slipd_result_cache_hits_total 1",
		"slipd_jobs_total{state=\"completed\"} 1",
		"slipd_run_seconds_count 1",
		"slipd_sim_accesses_total 40000",
		"slipd_queue_capacity 8",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// getBody fetches a path and returns its body.
func getBody(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return buf.String()
}

// TestQueueFullReturns429: with one blocked worker and a depth-1 queue,
// the third distinct request must be refused with Retry-After.
func TestQueueFullReturns429(t *testing.T) {
	started := make(chan *Job, 4)
	release := make(chan struct{})
	hook := func(j *Job) {
		started <- j
		<-release
	}
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 1}, hook)
	defer close(release)

	body := func(seed int) string {
		return fmt.Sprintf(`{"workload":"milc","policy":"baseline","accesses":20000,"warmup":0,"seed":%d}`, seed)
	}
	code, _, _ := postRun(t, ts, body(1))
	if code != http.StatusAccepted {
		t.Fatalf("POST 1 = %d", code)
	}
	<-started // worker has claimed job 1 and is parked in the hook
	if code, _, _ = postRun(t, ts, body(2)); code != http.StatusAccepted {
		t.Fatalf("POST 2 = %d, want 202 (fills the queue)", code)
	}
	code, _, hdr := postRun(t, ts, body(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("POST 3 = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestPendingDeduplication: an identical POST while the first is still
// in flight must join the existing job, not queue a duplicate.
func TestPendingDeduplication(t *testing.T) {
	started := make(chan *Job, 2)
	release := make(chan struct{})
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 4}, func(j *Job) {
		started <- j
		<-release
	})
	defer close(release)

	body := `{"workload":"milc","policy":"baseline","accesses":20000,"warmup":0,"seed":9}`
	_, v1, _ := postRun(t, ts, body)
	<-started
	code, v2, _ := postRun(t, ts, body)
	if code != http.StatusAccepted || v2.ID != v1.ID {
		t.Fatalf("duplicate POST = %d id %q, want 202 joining job %q", code, v2.ID, v1.ID)
	}
}

// TestRepeatAfterCompletedIsCached repeats each request the moment its
// job reads completed: the result must already be in the store, so every
// repeat is answered "cached" without queueing a new job.
func TestRepeatAfterCompletedIsCached(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 2, QueueDepth: 8}, nil)
	const n = 40
	for seed := 1; seed <= n; seed++ {
		body := fmt.Sprintf(`{"workload":"milc","policy":"baseline","accesses":2000,"warmup":0,"seed":%d}`, seed)
		code, v, _ := postRun(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("seed %d: POST = %d, want 202", seed, code)
		}
		for {
			resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID)
			if err != nil {
				t.Fatal(err)
			}
			var st JobView
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.State == StateCompleted {
				break
			}
			if st.State != StateQueued && st.State != StateRunning {
				t.Fatalf("seed %d: job finished %s (%s)", seed, st.State, st.Error)
			}
		}
		code, again, _ := postRun(t, ts, body)
		if code != http.StatusOK || !again.Cached || again.ID != "" {
			t.Fatalf("seed %d: repeat POST = %d cached=%v id=%q, want 200 cached with no job",
				seed, code, again.Cached, again.ID)
		}
	}
	srv.mu.Lock()
	jobs := len(srv.jobs)
	srv.mu.Unlock()
	if jobs != n {
		t.Errorf("%d jobs created for %d distinct requests", jobs, n)
	}
}

// TestDeadlineReportsCancelled: a job whose deadline expires mid-trace
// must finish in state cancelled, never completed.
func TestDeadlineReportsCancelled(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 4}, nil)
	body := `{"workload":"milc","policy":"baseline","accesses":500000000,"warmup":0,"seed":3,"timeout_ms":50}`
	code, v, _ := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	done := pollJob(t, ts, v.ID)
	if done.State != StateCancelled {
		t.Fatalf("deadline-expired job reported %s, want cancelled", done.State)
	}
	if done.Result != nil {
		t.Error("cancelled job carries a result")
	}
	if !strings.Contains(done.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", done.Error)
	}
}

// TestGracefulShutdownDrains: Shutdown must wait for the in-flight job,
// flip readyz to 503 (while healthz keeps reporting the process alive),
// refuse new work, and report the job completed.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan *Job, 1)
	release := make(chan struct{})
	srv, ts := testServer(t, Config{Workers: 1, QueueDepth: 4}, func(j *Job) {
		started <- j
		<-release
	})

	body := `{"workload":"milc","policy":"baseline","accesses":20000,"warmup":0,"seed":11}`
	_, v, _ := postRun(t, ts, body)
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Draining: readiness flips so routers stop sending work, liveness
	// stays green (the process is alive, finishing its backlog), intake
	// refuses.
	waitFor(t, func() bool { return srv.draining.Load() })
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz while draining = %d, want 200 (liveness, not readiness)", resp.StatusCode)
		}
	}
	if code, _, _ := postRun(t, ts, `{"workload":"milc","policy":"baseline","seed":12}`); code != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d, want 503", code)
	}

	close(release) // let the in-flight job finish
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	if done := pollJob(t, ts, v.ID); done.State != StateCompleted {
		t.Errorf("drained job reported %s, want completed", done.State)
	}
}

// waitFor polls a condition with a test-scaled deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestValidationAndNotFound covers the 400/404 surfaces.
func TestValidationAndNotFound(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)
	for _, body := range []string{
		`{`,
		`{"policy":"baseline"}`,
		`{"workload":"milc"}`,
		`{"workload":"nonesuch","policy":"baseline"}`,
		`{"workload":"milc","policy":"nonesuch"}`,
		`{"workload":"milc","policy":"baseline","bogus_field":1}`,
	} {
		if code, _, _ := postRun(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, code)
		}
	}
	for path, want := range map[string]int{
		"/v1/runs/deadbeef":        http.StatusNotFound,
		"/v1/experiments/nonesuch": http.StatusNotFound,
		"/v1/does-not-exist":       http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestPostRunBodyBound: a POST body over MaxBodyBytes is refused with 413
// before it is decoded, while a valid request padded up to just under the
// cap is admitted.
func TestPostRunBodyBound(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)
	over := `{"workload":"` + strings.Repeat("x", MaxBodyBytes) + `","policy":"baseline"}`
	if code, _, _ := postRun(t, ts, over); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize POST = %d, want 413", code)
	}
	valid := `{"workload":"milc","policy":"baseline","accesses":2000,"warmup":0}`
	under := strings.Repeat(" ", MaxBodyBytes-len(valid)) + valid
	if code, _, _ := postRun(t, ts, under); code != http.StatusAccepted {
		t.Errorf("POST at the cap = %d, want 202", code)
	}
}

// TestExperimentEndpoint renders a paper experiment over HTTP; fig1 is the
// cheapest one that simulates.
func TestExperimentEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the fig1 workload set")
	}
	_, ts := testServer(t, Config{Workers: 2, QueueDepth: 2, DefaultAccesses: 10_000}, nil)
	resp, err := http.Get(ts.URL + "/v1/experiments/fig1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET fig1 = %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "Figure 1") && len(bytes.TrimSpace(raw)) == 0 {
		t.Errorf("fig1 render empty or unrecognizable:\n%s", raw)
	}
}

// TestShardedJobMetric drives a lone job at the shard floor through a
// daemon on 2 CPUs and asserts that it sharded and was counted, that the
// same job on 1 CPU runs sequentially, uncounted, with an identical
// result, and that a lone job whose geometry cannot shard (a 16-set L2)
// is not counted either. GOMAXPROCS is pinned so the widths the engine
// picks do not depend on the host.
func TestShardedJobMetric(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const body = `{"workload":"milc","policy":"slip+abp","accesses":200000,"warmup":200000,"seed":7}`
	run := func(body string) (*Server, *httptest.Server, JobView) {
		t.Helper()
		srv, ts := testServer(t, Config{Workers: 1, QueueDepth: 8}, nil)
		_, v, _ := postRun(t, ts, body)
		done := pollJob(t, ts, v.ID)
		if done.State != StateCompleted {
			t.Fatalf("job %s finished %s (%s), want completed", body, done.State, done.Error)
		}
		return srv, ts, done
	}

	srv, ts, done := run(body)
	if got := srv.metrics.shardRuns.Value(); got != 1 {
		t.Errorf("shard runs on 2 CPUs = %v, want 1", got)
	}
	if metrics := getBody(t, ts, "/metrics"); !strings.Contains(metrics, "slip_shard_runs_total 1") {
		t.Errorf("/metrics missing slip_shard_runs_total 1:\n%s", metrics)
	}

	unshardable, _, _ := run(`{"workload":"milc","policy":"slip+abp","accesses":200000,"warmup":200000,"seed":7,"l2_bytes":16384}`)
	if got := unshardable.metrics.shardRuns.Value(); got != 0 {
		t.Errorf("shard runs for a 16-set L2 = %v, want 0", got)
	}

	runtime.GOMAXPROCS(1)
	seqSrv, _, seqDone := run(body)
	if got := seqSrv.metrics.shardRuns.Value(); got != 0 {
		t.Errorf("shard runs on 1 CPU = %v, want 0", got)
	}
	// Compare the architectural outputs; SimSeconds (wall clock) and the
	// Spec's pointer fields legitimately differ between servers.
	a, b := done.Result, seqDone.Result
	if a.FullSystemPJ != b.FullSystemPJ || a.Cycles != b.Cycles || a.Instrs != b.Instrs ||
		a.L2Misses != b.L2Misses || a.L3Misses != b.L3Misses || a.DRAMTraffic != b.DRAMTraffic ||
		a.L1HitRate != b.L1HitRate || a.L2HitRate != b.L2HitRate || a.L3HitRate != b.L3HitRate ||
		a.EOUPJ != b.EOUPJ {
		t.Errorf("sharded daemon result differs from sequential:\n%+v\nvs\n%+v", a, b)
	}
}
