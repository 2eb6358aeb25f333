package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/castore"
	"repro/internal/spec"
)

// sampleResult builds a distinguishable result with every pointer field of
// the embedded spec populated.
func sampleResult(seed uint64) *RunResult {
	w := uint64(1000 + seed)
	return &RunResult{
		Workload:     "milc",
		Policy:       "slip+abp",
		Accesses:     2000,
		Warmup:       w,
		Seed:         seed,
		FullSystemPJ: 123.5 + float64(seed),
		Instrs:       999,
		Spec: spec.Spec{
			Policy:   "slip+abp",
			Workload: "milc",
			Accesses: 2000,
			Warmup:   &w,
			Seed:     seed,
			DRAM:     &spec.DRAMSpec{LatencyCycles: 100, PJPerBit: 12},
		},
	}
}

// TestStoreGetReturnsCopy: mutating what Get returned — including through
// the spec's pointer fields — must never reach the cached entry, and
// mutating what was Put must not either.
func TestStoreGetReturnsCopy(t *testing.T) {
	st := NewStore(4)
	orig := sampleResult(7)
	st.Put("k", orig)

	// Caller-side mutation of the Put value: the store must hold its own copy.
	orig.FullSystemPJ = -1
	*orig.Spec.Warmup = 0
	orig.Spec.DRAM.PJPerBit = -1

	got1, ok := st.Get("k")
	if !ok {
		t.Fatal("Get missed")
	}
	if got1.FullSystemPJ != sampleResult(7).FullSystemPJ {
		t.Fatalf("Put value mutation reached the cache: pj = %v", got1.FullSystemPJ)
	}
	if *got1.Spec.Warmup != 1007 || got1.Spec.DRAM.PJPerBit != 12 {
		t.Fatalf("Put pointer-field mutation reached the cache: %+v", got1.Spec)
	}

	// Mutation of one Get's result must not leak into the next Get.
	got1.FullSystemPJ = 555
	*got1.Spec.Warmup = 42
	got1.Spec.DRAM.LatencyCycles = 1

	got2, ok := st.Get("k")
	if !ok {
		t.Fatal("second Get missed")
	}
	if got2.FullSystemPJ == 555 || *got2.Spec.Warmup == 42 || got2.Spec.DRAM.LatencyCycles == 1 {
		t.Fatalf("Get result aliases the cached entry: %+v / %+v", got2, got2.Spec)
	}
	if got1 == got2 || got1.Spec.Warmup == got2.Spec.Warmup || got1.Spec.DRAM == got2.Spec.DRAM {
		t.Fatal("two Gets share pointers")
	}
}

// TestStoreDiskTier: a Put lands on disk (write-behind), a fresh store
// over the same castore directory read-throughs it into memory, and the
// fetched copy is byte-equal to the original.
func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	disk, err := castore.Open(dir, castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStoreWithDisk(2, disk)
	want := sampleResult(3)
	st.Put("s1:abc", want.Clone())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	disk2, err := castore.Open(dir, castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2 := NewStoreWithDisk(2, disk2)
	defer st2.Close()
	got, ok := st2.Get("s1:abc")
	if !ok {
		t.Fatal("disk read-through missed after reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	if st2.Len() != 1 {
		t.Fatalf("disk hit not promoted to memory: Len = %d", st2.Len())
	}
	// Disk stats observe exactly one (verified) hit.
	if ds := st2.DiskStats(); ds.Hits != 1 || ds.Errors != 0 {
		t.Fatalf("disk stats = %+v, want 1 hit / 0 errors", ds)
	}
}

// TestResultsSurviveRestart is the end-to-end durability acceptance test:
// POST a spec, drain the daemon, start a second daemon over the same store
// directory, and read the identical result back — by key and by repeat
// POST — without any re-simulation.
func TestResultsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	openDisk := func() *castore.Store {
		disk, err := castore.Open(dir, castore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return disk
	}

	srv1, ts1 := testServer(t, Config{Workers: 1, QueueDepth: 4, DiskStore: openDisk()}, nil)
	body := `{"workload":"milc","policy":"slip","accesses":20000,"warmup":20000,"seed":13}`
	code, v, _ := postRun(t, ts1, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	done := pollJob(t, ts1, v.ID)
	if done.State != StateCompleted {
		t.Fatalf("job finished %s (%s)", done.State, done.Error)
	}
	key := done.Key
	wantJSON, err := json.Marshal(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	// "Restart": drain the first daemon (flushing the write-behind queue
	// and persisting the castore index) before the second one opens the
	// same directory.
	ts1.Close()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer shutCancel()
	if err := srv1.Shutdown(shutCtx); err != nil {
		t.Fatalf("first daemon drain: %v", err)
	}

	// Second daemon, same directory: the result must be served from disk.
	srv2 := New(Config{Workers: 1, QueueDepth: 4, DefaultAccesses: 20_000, DiskStore: openDisk()})
	srv2.Start()
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv2.Shutdown(ctx)
	})

	resp, err := http.Get(ts2.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results/%s = %d (%s)", key, resp.StatusCode, raw)
	}
	var got RunResult
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(&got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("restarted daemon returned a different result:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// A repeat POST is answered cached (200, no job) — no re-simulation.
	code2, v2, _ := postRun(t, ts2, body)
	if code2 != http.StatusOK || !v2.Cached || v2.State != StateCompleted {
		t.Fatalf("repeat POST after restart = %d %+v, want 200 cached completed", code2, v2)
	}
	if v2.Key != key {
		t.Fatalf("key changed across restart: %s vs %s", v2.Key, key)
	}
	if ds := srv2.store.DiskStats(); ds.Hits == 0 {
		t.Fatalf("disk stats show no hit: %+v", ds)
	}
	// Nothing was ever enqueued on the second daemon.
	if n := srv2.metrics.cacheHits.Value(); n == 0 {
		t.Error("repeat POST not counted as a result-store hit")
	}
}
