package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestMetricsExposition lints both /metrics endpoints of a live one-backend
// cluster — a real slipd behind the gateway — after one run has gone
// through it, so every labelled family and histogram carries samples. The
// gateway package imports the service package, so this one test covers
// both expositions. The cache and castore families must be typed counters.
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

	scrape := func(base string) string {
		r, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return string(b)
	}
	t.Run("slipd", func(t *testing.T) {
		types := lintExposition(t, scrape(backend.URL))
		for _, cache := range []string{"trace_cache", "warm_cache"} {
			for _, c := range []string{"hits", "misses", "evictions"} {
				wantType(t, types, fmt.Sprintf("slip_%s_%s_total", cache, c), "counter")
			}
		}
		for _, c := range []string{"hits", "misses", "errors", "evictions"} {
			wantType(t, types, "slip_castore_"+c+"_total", "counter")
		}
		wantType(t, types, "slipd_run_seconds", "histogram")
	})
	t.Run("gateway", func(t *testing.T) {
		types := lintExposition(t, scrape(gw.URL))
		wantType(t, types, "slipgw_request_seconds", "histogram")
		wantType(t, types, "slipgw_backend_request_seconds_total", "counter")
	})
}

// wantType fails unless family is declared with the given type.
func wantType(t *testing.T, types map[string]string, family, typ string) {
	t.Helper()
	if got := types[family]; got != typ {
		t.Errorf("family %s has type %q, want %q", family, got, typ)
	}
}
