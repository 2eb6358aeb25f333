// Command perfbench is the repository's benchmark: it runs one workload
// in-process against the simulator, experiment engine and slipd service
// packages, checks the simulated outputs, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured with tracing
// off); with -trace 1 a separate traced run reports the per-layer metrics
// and writes spans, self times and counts to one JSON file per workload.
// Run it from the repository root through perfbench/run.sh, which builds
// this module; README.md beside this file explains every workload and
// metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workDir holds everything a run writes (store directories, per-layer
// files); it lives inside the checkout the benchmark runs from.
const workDir = ".bench_build/perfbench"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is a run's outcome before it is printed.
type report struct {
	attempted, failed int
	metrics           metrics
	// notes are extra human-readable lines (sample counts, digests) for
	// standard error; they are not part of the result line.
	notes []string
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runConfig is what a workload needs to run once.
type runConfig struct {
	seed    uint64
	seconds float64
	workers int // closed-loop clients and pool width: nproc
	tr      *tracer
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// run measures the workload with tracing off for cfg.seconds and fills
	// the end-to-end metrics.
	run func(ctx context.Context, cfg runConfig) (*report, error)
	// traced runs the workload once untraced and once traced, then the
	// per-layer battery over the workload's input.
	traced func(ctx context.Context, cfg runConfig) (*report, error)
}

var workloadTable = []workload{
	{name: "fig9-matrix", run: runFig9, traced: tracedFig9},
	{name: "lone-run", run: runLone, traced: tracedLone},
	{name: "slipd-mix", run: runSlipd, traced: tracedSlipd},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: fig9-matrix, lone-run or slipd-mix")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the untraced run measures")
	traceOn := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, workers: runtime.NumCPU()}
	run := w.run
	if *traceOn == 1 {
		cfg.tr = newTracer()
		run = w.traced
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	host := hostStamp(*seed)
	for _, k := range sortedKeys(host) {
		fmt.Fprintf(os.Stderr, "host %s=%v\n", k, host[k])
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, k := range sortedKeys(rep.metrics) {
		m := rep.metrics[k]
		fmt.Printf("%-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
	if *traceOn == 1 {
		path := filepath.Join(workDir, "layers-"+w.name+".json")
		doc := map[string]any{
			"workload":  w.name,
			"host":      host,
			"attempted": rep.attempted,
			"failed":    rep.failed,
			"metrics":   rep.metrics,
		}
		doc["spans"], doc["self_times"] = cfg.tr.export()
		if err := writeJSONFile(path, doc); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "per-layer file: %s\n", path)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	fmt.Println(string(line))
}

// hostStamp identifies the machine, toolchain and source a result came
// from. The commit is the VCS revision the binary was built from, or
// "unknown" when built outside a repository.
func hostStamp(seed uint64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"seed":       seed,
	}
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedLoop calls pass until seconds have elapsed (at least once), with a
// collection before each pass so one pass's garbage is not charged to the
// next.
func timedLoop(seconds float64, pass func() error) error {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		runtime.GC()
		if err := pass(); err != nil {
			return err
		}
	}
	return nil
}

// Set-up takes microseconds, far below the host's timing noise, and the
// host's speed drifts over seconds. So setup_s is the median of many
// samples, each long enough to average out single-call noise, taken a few
// after every measured pass so that they span the whole run as the pass
// walls do.
const (
	setupPerPass    = 5  // samples taken after each measured pass
	setupMinSamples = 25 // samples a run takes at least, topped up at its end
)

// setupSampler collects setup_s samples. A sample repeats setup until the
// time it holds reaches target and records the mean time of one set-up.
// Each call times itself, so it can leave preparation out; the teardowns
// it returns run after the sample, outside the timing, and a collection
// precedes every sample.
type setupSampler struct {
	target time.Duration
	setup  func() (took time.Duration, teardown func(), err error)
	xs     []float64 // seconds per set-up, one per sample
}

// take records n samples.
func (s *setupSampler) take(n int) error {
	for range n {
		runtime.GC()
		var sum time.Duration
		var tds []func()
		calls := 0
		var err error
		for ; sum < s.target && err == nil; calls++ {
			var d time.Duration
			var td func()
			if d, td, err = s.setup(); err == nil {
				sum += d
				tds = append(tds, td)
			}
		}
		for _, td := range tds {
			td()
		}
		if err != nil {
			return err
		}
		s.xs = append(s.xs, sum.Seconds()/float64(calls))
	}
	return nil
}

// median tops the samples up to setupMinSamples and returns their median,
// in seconds.
func (s *setupSampler) median() (float64, error) {
	if err := s.take(setupMinSamples - len(s.xs)); err != nil {
		return 0, err
	}
	return median(s.xs), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metricName turns a policy name into a metric-name component ("slip+abp"
// becomes "slip-abp", the registry's own alias).
func metricName(s string) string { return strings.ReplaceAll(s, "+", "-") }
