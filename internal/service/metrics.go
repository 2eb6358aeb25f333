package service

import "repro/internal/metrics"

// runLatencyBuckets are the per-run latency histogram bounds in seconds,
// spanning cache-warm sub-millisecond replies to multi-minute sweeps.
var runLatencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 120}

// terminalStates index Metrics.jobs.
var terminalStates = [3]JobState{StateCompleted, StateFailed, StateCancelled}

// Metrics holds the counters only the server itself can observe; every
// other /metrics family reads state owned elsewhere (queue, store,
// caches). None sit on the simulation hot path: progress updates arrive
// every few thousand simulated accesses.
type Metrics struct {
	jobsSubmitted metrics.Counter
	jobs          [len(terminalStates)]metrics.Counter
	cacheHits     metrics.Counter // POSTs answered from the result store
	cacheMisses   metrics.Counter
	sampledRuns   metrics.Counter
	shardRuns     metrics.Counter
	accesses      metrics.Counter
	busySeconds   metrics.Counter // worker time of finished jobs
	run           *metrics.Histogram
}

// JobFinished counts a job reaching a terminal state and, for completed
// jobs, feeds the latency histogram.
func (m *Metrics) JobFinished(state JobState, seconds float64) {
	for i, st := range terminalStates {
		if st == state {
			m.jobs[i].Inc()
		}
	}
	m.busySeconds.Add(seconds)
	if state == StateCompleted {
		m.run.Observe(seconds)
	}
}

// ratio is num/den, or 0 before anything was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// slipdFamilies is the daemon's /metrics exposition. The cache and castore
// families report zeros when their tier is disabled, so the output keeps a
// stable shape.
var slipdFamilies = []metrics.Family[*Server]{
	{Name: "slipd_queue_depth", Help: "Jobs waiting in the admission queue.", Type: "gauge",
		Value: func(s *Server) float64 { return float64(s.queue.Depth()) }},
	{Name: "slipd_queue_capacity", Help: "Admission queue capacity.", Type: "gauge",
		Value: func(s *Server) float64 { return float64(s.queue.Cap()) }},
	{Name: "slipd_jobs_queued", Help: "Jobs in state queued.", Type: "gauge",
		Value: func(s *Server) float64 { return float64(s.queuedCount()) }},
	{Name: "slipd_jobs_running", Help: "Jobs in state running.", Type: "gauge",
		Value: func(s *Server) float64 { return float64(s.running.Load()) }},
	{Name: "slipd_jobs_submitted_total", Help: "Jobs admitted to the queue.", Type: "counter",
		Value: func(s *Server) float64 { return s.metrics.jobsSubmitted.Value() }},
	{Name: "slipd_jobs_total", Help: "Jobs finished, by terminal state.", Type: "counter", Label: "state",
		// A state no job has reached yet has no series.
		Values: func(s *Server) map[string]float64 {
			out := map[string]float64{}
			for i, st := range terminalStates {
				if v := s.metrics.jobs[i].Value(); v > 0 {
					out[string(st)] = v
				}
			}
			return out
		}},
	{Name: "slipd_result_cache_hits_total", Help: "POSTs answered from the result store.", Type: "counter",
		Value: func(s *Server) float64 { return s.metrics.cacheHits.Value() }},
	{Name: "slipd_result_cache_misses_total", Help: "POSTs that required simulation.", Type: "counter",
		Value: func(s *Server) float64 { return s.metrics.cacheMisses.Value() }},
	{Name: "slipd_result_cache_hit_ratio", Help: "Result-store hit fraction over all POSTs.", Type: "gauge",
		Value: func(s *Server) float64 {
			hits := s.metrics.cacheHits.Value()
			return ratio(hits, hits+s.metrics.cacheMisses.Value())
		}},
	{Name: "slipd_result_cache_size", Help: "Results currently cached.", Type: "gauge",
		Value: func(s *Server) float64 { return float64(s.store.Len()) }},
	{Name: "slipd_result_cache_capacity", Help: "Result store capacity.", Type: "gauge",
		Value: func(s *Server) float64 { return float64(s.cfg.StoreCap) }},
	{Name: "slipd_result_cache_evictions_total", Help: "Results evicted by the LRU.", Type: "counter",
		Value: func(s *Server) float64 { return float64(s.store.Evictions()) }},

	// Trace materialization cache: one trace generated (miss) can serve
	// many runs (hits); bytes is the retained encoded footprint.
	{Name: "slip_trace_cache_hits_total", Help: "Runs served by an already-materialized (or in-flight) trace.", Type: "counter",
		Value: func(s *Server) float64 { return float64(s.TraceCacheStats().Hits) }},
	{Name: "slip_trace_cache_misses_total", Help: "Runs that had to generate and record their trace.", Type: "counter",
		Value: func(s *Server) float64 { return float64(s.TraceCacheStats().Misses) }},
	{Name: "slip_trace_cache_bytes", Help: "Encoded trace bytes currently retained.", Type: "gauge",
		Value: func(s *Server) float64 { return float64(s.TraceCacheStats().Bytes) }},
	{Name: "slip_trace_cache_evictions_total", Help: "Traces evicted by the LRU byte budget.", Type: "counter",
		Value: func(s *Server) float64 { return float64(s.TraceCacheStats().Evictions) }},

	// Warm-state snapshot cache: one warmup simulated (miss) seeds every
	// later run sharing its warmup identity (hits).
	{Name: "slip_warm_cache_hits_total", Help: "Runs seeded from a cached (or in-flight) warm snapshot.", Type: "counter",
		Value: func(s *Server) float64 { return float64(s.WarmCacheStats().Hits) }},
	{Name: "slip_warm_cache_misses_total", Help: "Runs that had to simulate their warmup.", Type: "counter",
		Value: func(s *Server) float64 { return float64(s.WarmCacheStats().Misses) }},
	{Name: "slip_warm_cache_bytes", Help: "Estimated snapshot bytes currently retained.", Type: "gauge",
		Value: func(s *Server) float64 { return float64(s.WarmCacheStats().Bytes) }},
	{Name: "slip_warm_cache_evictions_total", Help: "Snapshots evicted by the LRU byte budget.", Type: "counter",
		Value: func(s *Server) float64 { return float64(s.WarmCacheStats().Evictions) }},

	// Durable content-addressed store: disk hits answer POSTs and key
	// fetches without re-simulation across restarts; errors count corrupt
	// or unwritable entries detected and dropped.
	{Name: "slip_castore_hits_total", Help: "Result reads served from a verified disk entry.", Type: "counter",
		Value: func(s *Server) float64 { return float64(s.store.DiskStats().Hits) }},
	{Name: "slip_castore_misses_total", Help: "Result reads with no valid disk entry.", Type: "counter",
		Value: func(s *Server) float64 { return float64(s.store.DiskStats().Misses) }},
	{Name: "slip_castore_bytes", Help: "Entry bytes currently indexed on disk.", Type: "gauge",
		Value: func(s *Server) float64 { return float64(s.store.DiskStats().Bytes) }},
	{Name: "slip_castore_errors_total", Help: "Corrupt/truncated entries dropped plus failed writes.", Type: "counter",
		Value: func(s *Server) float64 { return float64(s.store.DiskStats().Errors) }},
	{Name: "slip_castore_evictions_total", Help: "Disk entries evicted by the byte budget.", Type: "counter",
		Value: func(s *Server) float64 { return float64(s.store.DiskStats().Evictions) }},
	{Name: "slip_castore_entries", Help: "Disk entries currently indexed.", Type: "gauge",
		Value: func(s *Server) float64 { return float64(s.store.DiskStats().Entries) }},

	{Name: "slip_sampled_runs_total", Help: "Completed set-sampled (sampling > 1) runs.", Type: "counter",
		Value: func(s *Server) float64 { return s.metrics.sampledRuns.Value() }},
	{Name: "slip_shard_runs_total", Help: "Completed runs whose measured window ran on more than one intra-run shard.", Type: "counter",
		Value: func(s *Server) float64 { return s.metrics.shardRuns.Value() }},
	{Name: "slipd_sim_accesses_total", Help: "Memory accesses simulated across all jobs.", Type: "counter",
		Value: func(s *Server) float64 { return s.metrics.accesses.Value() }},
	{Name: "slipd_sim_accesses_per_sec", Help: "Mean simulated accesses per busy worker second.", Type: "gauge",
		Value: func(s *Server) float64 { return ratio(s.metrics.accesses.Value(), s.metrics.busySeconds.Value()) }},
	{Name: "slipd_run_seconds", Help: "Per-run wall-clock latency of completed jobs.", Type: "histogram",
		Hist: func(s *Server) *metrics.Histogram { return s.metrics.run }},
}
