package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/spec"
)

// FuzzPostRun drives arbitrary POST /v1/runs bodies through the daemon's
// handler. The server is never started, so nothing simulates: a valid body
// is queued (202) until the one-slot queue fills (429). Whatever the body,
// the handler must answer one of the statuses the API documents for this
// path, with a JSON reply, and every 4xx must carry the error envelope. A
// stored result for the first seed's spec covers the cached 200 path.
func FuzzPostRun(f *testing.F) {
	cfg := Config{Workers: 1, QueueDepth: 1, DefaultAccesses: 1000}
	stored := RunRequest{Spec: spec.Spec{Workload: "milc", Policy: "slip+abp", Seed: 7}}
	stored.normalize(cfg)
	c, storedKey, err := specOf(&stored)
	if err != nil {
		f.Fatal(err)
	}
	// The bodies scripts/smoke-slipd.sh sends, including its rejected typo.
	for _, body := range []string{
		`{"workload":"milc","policy":"slip+abp","seed":7}`,
		`{"workload":"milc","policy":"slip","seed":7}`,
		`{"workload":"milc","policy":"slip","seed":7,"accesses":10000}`,
		`{"workload":"milc","policy":"slip+abp","seed":7,"sampling":8}`,
		`{"policy":"slip-abp","workload":"milc","mix_with":"sphinx3","cores":2,
  "accesses":20000,"warmup":10000,"seed":9,"bin_bits":3,"use_rrip":true,
  "tech":"22nm","topology":"way-interleaved",
  "l2_bytes":262144,"l3_bytes":2097152,
  "dram":{"latency_cycles":100,"pj_per_bit":12},"timeout_ms":60000}`,
		`{"workload":"milc","policy":"slip","acesses":5}`,
		// A core count past the address map, refused before any allocation.
		`{"workload":"milc","policy":"baseline","cores":100000}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		// With the queue empty a valid body is queued (202) and its repeat
		// joins that job (202); behind a waiting job it is refused (429).
		for _, full := range []bool{false, true} {
			srv := New(cfg)
			srv.store.Put(storedKey, &RunResult{Workload: c.Workload, Policy: c.Policy, Spec: c})
			if full {
				srv.queue.TryEnqueue(&Job{})
			}
			for range 2 {
				checkPostRun(t, srv.Handler(), body)
			}
			_ = srv.Shutdown(context.Background())
		}
	})
}

// checkPostRun posts body and fails unless the answer is a documented
// status with a JSON reply, and an error envelope when it is a 4xx.
func checkPostRun(t *testing.T, h http.Handler, body string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
	switch rec.Code {
	case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
		http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
	default:
		t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q for body %q", ct, body)
	}
	var reply map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("reply to %q is not a JSON object (%v): %s", body, err, rec.Body)
	}
	if msg, _ := reply["error"].(string); rec.Code >= 400 && (msg == "" || len(reply) != 1) {
		t.Fatalf("%d reply to %q is not an error envelope: %s", rec.Code, body, rec.Body)
	}
}
