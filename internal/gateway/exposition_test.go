package gateway

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/service"
)

// lintExposition checks a Prometheus text exposition for the shape rules
// scrapers and recording rules rely on: every family declares HELP and
// TYPE exactly once, before its samples; every sample belongs to the
// family declared above it; counters end in _total; histograms carry
// _bucket series (including le="+Inf"), _sum and _count, and no other
// family takes one of those series names. It returns the declared type of
// every family.
func lintExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{}
	helps := map[string]bool{}
	seen := map[string]map[string]bool{} // family -> sample suffixes seen
	family := ""
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if f, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(f, " ")
			if helps[name] {
				t.Errorf("family %s has HELP twice", name)
			}
			helps[name] = true
			continue
		}
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(f, " ")
			if _, dup := types[name]; dup {
				t.Errorf("family %s declared twice", name)
			}
			if !helps[name] {
				t.Errorf("family %s has TYPE but no HELP before it", name)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s does not end in _total", name)
			}
			types[name], family = typ, name
			seen[name] = map[string]bool{}
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		suffix, ok := strings.CutPrefix(name, family)
		if family == "" || !ok || (suffix != "" && types[family] != "histogram") {
			t.Errorf("sample %q does not belong to the family declared above it (%q)", line, family)
			continue
		}
		if types[family] == "histogram" && suffix == "_bucket" && strings.Contains(line, `le="+Inf"`) {
			suffix = "_bucket+Inf"
		}
		seen[family][suffix] = true
	}
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		for _, part := range []string{"_bucket", "_bucket+Inf", "_sum", "_count"} {
			if !seen[name][part] {
				t.Errorf("histogram %s has no %s series", name, part)
			}
			if _, clash := types[name+part]; clash {
				t.Errorf("family %s collides with histogram %s's series", name+part, name)
			}
		}
	}
	return types
}

// exposition is every family of both /metrics endpoints with its type,
// sorted by name: a rename, retype, addition or removal fails the test.
var exposition = map[string][]string{
	"slipd": {
		"slip_castore_bytes gauge",
		"slip_castore_entries gauge",
		"slip_castore_errors_total counter",
		"slip_castore_evictions_total counter",
		"slip_castore_hits_total counter",
		"slip_castore_misses_total counter",
		"slip_sampled_runs_total counter",
		"slip_shard_runs_total counter",
		"slip_trace_cache_bytes gauge",
		"slip_trace_cache_evictions_total counter",
		"slip_trace_cache_hits_total counter",
		"slip_trace_cache_misses_total counter",
		"slip_warm_cache_bytes gauge",
		"slip_warm_cache_evictions_total counter",
		"slip_warm_cache_hits_total counter",
		"slip_warm_cache_misses_total counter",
		"slipd_jobs_queued gauge",
		"slipd_jobs_running gauge",
		"slipd_jobs_submitted_total counter",
		"slipd_jobs_total counter",
		"slipd_queue_capacity gauge",
		"slipd_queue_depth gauge",
		"slipd_result_cache_capacity gauge",
		"slipd_result_cache_evictions_total counter",
		"slipd_result_cache_hit_ratio gauge",
		"slipd_result_cache_hits_total counter",
		"slipd_result_cache_misses_total counter",
		"slipd_result_cache_size gauge",
		"slipd_run_seconds histogram",
		"slipd_sim_accesses_per_sec gauge",
		"slipd_sim_accesses_total counter",
	},
	"gateway": {
		"slipgw_backend_draining gauge",
		"slipgw_backend_request_seconds_total counter",
		"slipgw_backend_up gauge",
		"slipgw_ejections_total counter",
		"slipgw_errors_total counter",
		"slipgw_no_backend_total counter",
		"slipgw_request_seconds histogram",
		"slipgw_requests_total counter",
		"slipgw_retries_total counter",
		"slipgw_routes gauge",
	},
}

// TestMetricsExposition lints both /metrics endpoints of a live one-backend
// cluster — a real slipd behind the gateway — after one run has gone
// through it, so every labelled family and histogram carries samples, and
// checks each endpoint's family inventory. The gateway package imports the
// service package, so this one test covers both expositions.
func TestMetricsExposition(t *testing.T) {
	srv := service.New(service.Config{Workers: 1})
	srv.Start()
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()
	defer srv.Shutdown(context.Background())
	g, err := New(Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Shutdown()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	resp, body := postVia(t, gw, `{"workload":"milc","policy":"slip+abp","accesses":2000,"warmup":2000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d %s", resp.StatusCode, body)
	}
	var view service.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "run completion", func() bool {
		r, err := http.Get(gw.URL + "/v1/runs/" + view.ID)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		var v service.JobView
		return json.NewDecoder(r.Body).Decode(&v) == nil && v.State == service.StateCompleted
	})

	for name, base := range map[string]string{"slipd": backend.URL, "gateway": gw.URL} {
		t.Run(name, func(t *testing.T) {
			r, err := http.Get(base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Body.Close()
			text, _ := io.ReadAll(r.Body)
			var got []string
			for family, typ := range lintExposition(t, string(text)) {
				got = append(got, family+" "+typ)
			}
			sort.Strings(got)
			if want := exposition[name]; !slices.Equal(got, want) {
				t.Errorf("%d families, want %d\ngot:  %q\nwant: %q", len(got), len(want), got, want)
			}
		})
	}

	// The admin listing reads per-backend counters; an address outside the
	// configured set reads as zeros.
	if snap := g.snapshot("http://127.0.0.1:1"); snap != (BackendSnapshot{}) {
		t.Errorf("snapshot of an unknown backend = %+v, want zeros", snap)
	}
}
