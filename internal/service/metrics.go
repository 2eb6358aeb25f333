package service

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/castore"
	"repro/internal/lru"
)

// runLatencyBuckets are the per-run latency histogram bounds in seconds,
// spanning cache-warm sub-millisecond replies to multi-minute sweeps.
var runLatencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 120}

// Metrics is a minimal Prometheus-text-format registry — counters, a
// latency histogram and derived gauges — kept dependency-free on purpose
// (the container bakes in only the Go toolchain). All methods are safe for
// concurrent use; none sit on the simulation hot path (progress updates
// arrive every few thousand simulated accesses).
type Metrics struct {
	mu sync.Mutex

	jobsSubmitted uint64
	jobsByState   map[JobState]uint64 // terminal states only

	cacheHits   uint64
	cacheMisses uint64

	sampledRuns uint64
	shardRuns   uint64

	accessesTotal uint64
	busySeconds   float64

	latCounts []uint64 // cumulative per bucket, +Inf implicit
	latInf    uint64
	latSum    float64
	latCount  uint64
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		jobsByState: make(map[JobState]uint64),
		latCounts:   make([]uint64, len(runLatencyBuckets)),
	}
}

// JobSubmitted counts an admitted job.
func (m *Metrics) JobSubmitted() {
	m.mu.Lock()
	m.jobsSubmitted++
	m.mu.Unlock()
}

// JobFinished counts a job reaching a terminal state and, for completed
// jobs, feeds the latency histogram and throughput accounting.
func (m *Metrics) JobFinished(state JobState, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsByState[state]++
	m.busySeconds += seconds
	if state != StateCompleted {
		return
	}
	m.latSum += seconds
	m.latCount++
	placed := false
	for i, b := range runLatencyBuckets {
		if seconds <= b {
			m.latCounts[i]++
			placed = true
			break
		}
	}
	if !placed {
		m.latInf++
	}
}

// CacheHit / CacheMiss count result-store lookups on the POST path.
func (m *Metrics) CacheHit() {
	m.mu.Lock()
	m.cacheHits++
	m.mu.Unlock()
}

// CacheMiss counts a POST that had to enqueue (or join) a simulation.
func (m *Metrics) CacheMiss() {
	m.mu.Lock()
	m.cacheMisses++
	m.mu.Unlock()
}

// SampledRun counts a completed set-sampled (sampling > 1) job.
func (m *Metrics) SampledRun() {
	m.mu.Lock()
	m.sampledRuns++
	m.mu.Unlock()
}

// ShardRun counts a completed job executed by the intra-run sharded
// executor (shard count > 1).
func (m *Metrics) ShardRun() {
	m.mu.Lock()
	m.shardRuns++
	m.mu.Unlock()
}

// ShardRuns returns the sharded-run counter (tests assert on it).
func (m *Metrics) ShardRuns() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shardRuns
}

// AddAccesses accumulates simulated accesses (from progress callbacks).
func (m *Metrics) AddAccesses(n uint64) {
	m.mu.Lock()
	m.accessesTotal += n
	m.mu.Unlock()
}

// CacheHits returns the hit counter (used by tests and the smoke script).
func (m *Metrics) CacheHits() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheHits
}

// Gauges are point-in-time values owned elsewhere (queue depth, running
// jobs, store size); the server wires them in before serving /metrics.
type Gauges struct {
	QueueDepth    func() int
	QueueCap      func() int
	JobsQueued    func() int
	JobsRunning   func() int
	StoreLen      func() int
	StoreEvicted  func() uint64
	StoreCapacity func() int
	// TraceCache and WarmCache snapshot the experiment engine's shared
	// caches and CAS the durable result store; each reports zeros when its
	// cache is disabled, so /metrics keeps a stable shape.
	TraceCache func() lru.Stats
	WarmCache  func() lru.Stats
	CAS        func() castore.Stats
}

// WriteTo renders the registry in Prometheus text exposition format.
func (m *Metrics) WriteTo(w io.Writer, g Gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}

	gauge("slipd_queue_depth", "Jobs waiting in the admission queue.", float64(g.QueueDepth()))
	gauge("slipd_queue_capacity", "Admission queue capacity.", float64(g.QueueCap()))
	gauge("slipd_jobs_queued", "Jobs in state queued.", float64(g.JobsQueued()))
	gauge("slipd_jobs_running", "Jobs in state running.", float64(g.JobsRunning()))

	counter("slipd_jobs_submitted_total", "Jobs admitted to the queue.", float64(m.jobsSubmitted))
	fmt.Fprintf(w, "# HELP slipd_jobs_total Jobs finished, by terminal state.\n# TYPE slipd_jobs_total counter\n")
	states := make([]string, 0, len(m.jobsByState))
	for s := range m.jobsByState {
		states = append(states, string(s))
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "slipd_jobs_total{state=%q} %d\n", s, m.jobsByState[JobState(s)])
	}

	counter("slipd_result_cache_hits_total", "POSTs answered from the result store.", float64(m.cacheHits))
	counter("slipd_result_cache_misses_total", "POSTs that required simulation.", float64(m.cacheMisses))
	ratio := 0.0
	if t := m.cacheHits + m.cacheMisses; t > 0 {
		ratio = float64(m.cacheHits) / float64(t)
	}
	gauge("slipd_result_cache_hit_ratio", "Result-store hit fraction over all POSTs.", ratio)
	gauge("slipd_result_cache_size", "Results currently cached.", float64(g.StoreLen()))
	gauge("slipd_result_cache_capacity", "Result store capacity.", float64(g.StoreCapacity()))
	counter("slipd_result_cache_evictions_total", "Results evicted by the LRU.", float64(g.StoreEvicted()))

	// Trace materialization cache: one trace generated (miss) can serve
	// many runs (hits); bytes is the retained encoded footprint.
	ts := g.TraceCache()
	counter("slip_trace_cache_hits_total", "Runs served by an already-materialized (or in-flight) trace.", float64(ts.Hits))
	counter("slip_trace_cache_misses_total", "Runs that had to generate and record their trace.", float64(ts.Misses))
	gauge("slip_trace_cache_bytes", "Encoded trace bytes currently retained.", float64(ts.Bytes))
	counter("slip_trace_cache_evictions_total", "Traces evicted by the LRU byte budget.", float64(ts.Evictions))

	// Warm-state snapshot cache: one warmup simulated (miss) seeds every
	// later run sharing its warmup identity (hits).
	ws := g.WarmCache()
	counter("slip_warm_cache_hits_total", "Runs seeded from a cached (or in-flight) warm snapshot.", float64(ws.Hits))
	counter("slip_warm_cache_misses_total", "Runs that had to simulate their warmup.", float64(ws.Misses))
	gauge("slip_warm_cache_bytes", "Estimated snapshot bytes currently retained.", float64(ws.Bytes))
	counter("slip_warm_cache_evictions_total", "Snapshots evicted by the LRU byte budget.", float64(ws.Evictions))

	// Durable content-addressed store: disk hits answer POSTs and key
	// fetches without re-simulation across restarts; errors count corrupt
	// or unwritable entries detected and dropped.
	cs := g.CAS()
	counter("slip_castore_hits_total", "Result reads served from a verified disk entry.", float64(cs.Hits))
	counter("slip_castore_misses_total", "Result reads with no valid disk entry.", float64(cs.Misses))
	gauge("slip_castore_bytes", "Entry bytes currently indexed on disk.", float64(cs.Bytes))
	counter("slip_castore_errors_total", "Corrupt/truncated entries dropped plus failed writes.", float64(cs.Errors))
	counter("slip_castore_evictions_total", "Disk entries evicted by the byte budget.", float64(cs.Evictions))
	gauge("slip_castore_entries", "Disk entries currently indexed.", float64(cs.Entries))

	counter("slip_sampled_runs_total", "Completed set-sampled (sampling > 1) runs.", float64(m.sampledRuns))
	counter("slip_shard_runs_total", "Completed runs executed by the intra-run sharded executor.", float64(m.shardRuns))

	counter("slipd_sim_accesses_total", "Memory accesses simulated across all jobs.", float64(m.accessesTotal))
	perSec := 0.0
	if m.busySeconds > 0 {
		perSec = float64(m.accessesTotal) / m.busySeconds
	}
	gauge("slipd_sim_accesses_per_sec", "Mean simulated accesses per busy worker second.", perSec)

	fmt.Fprintf(w, "# HELP slipd_run_seconds Per-run wall-clock latency of completed jobs.\n# TYPE slipd_run_seconds histogram\n")
	var cum uint64
	for i, b := range runLatencyBuckets {
		cum += m.latCounts[i]
		fmt.Fprintf(w, "slipd_run_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", b), cum)
	}
	fmt.Fprintf(w, "slipd_run_seconds_bucket{le=\"+Inf\"} %d\n", cum+m.latInf)
	fmt.Fprintf(w, "slipd_run_seconds_sum %g\n", m.latSum)
	fmt.Fprintf(w, "slipd_run_seconds_count %d\n", m.latCount)
}
