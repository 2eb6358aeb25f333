package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs one short pass of every workload, untraced and traced, at
// the pinned baseline seed. It asserts that the seed has a pinned digest,
// that each run is correct (every output digest matches, including the
// pinned one) and that it prints exactly the metrics BENCHMARK.json names,
// each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bf.Workloads), len(workloadTable))
	}
	for _, bw := range bf.Workloads {
		w, ok := lookup(bw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", bw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 1, seconds: 0.01, workers: runtime.NumCPU()}
			if _, ok, err := pinnedDigest(w.name, cfg.seed); err != nil || !ok {
				t.Fatalf("no pinned digest for seed %d in digests.json (%v)", cfg.seed, err)
			}
			rep, err := w.run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep, bf.EndToEnd)
			cfg.tr = newTracer()
			if rep, err = w.traced(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			check(t, rep, bf.PerLayer)
			if spans, self := cfg.tr.export(); len(spans) == 0 || len(self) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func check(t *testing.T, rep *report, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if rep.attempted == 0 || rep.failed != 0 {
		t.Errorf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.notes)
	}
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(rep.metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(rep.metrics), len(want))
	}
}
