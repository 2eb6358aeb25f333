package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/experiments"
	"repro/internal/policy"
)

// Handler builds the daemon's HTTP mux:
//
//	POST /v1/runs               submit a run (202 queued / 200 cached / 429 full)
//	GET  /v1/runs/{id}          job status + result
//	GET  /v1/results/{key}      fetch a stored result by spec hash (memory or disk)
//	GET  /v1/experiments/{name} render a paper experiment as text tables
//	GET  /v1/policies           enumerate the policy registry with metadata
//	GET  /healthz               liveness (always 200 while the process serves)
//	GET  /readyz                readiness (503 while draining)
//	GET  /metrics               Prometheus text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handlePostRun)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("GET /v1/results/{key}", s.handleGetResult)
	mux.HandleFunc("GET /v1/experiments/{name}", s.handleExperiment)
	mux.HandleFunc("GET /v1/policies", handlePolicies)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeError sends an error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// MaxBodyBytes bounds a POST /v1/runs body. A run request is a few
// hundred bytes of JSON; the gateway's default body cap is the same value.
const MaxBodyBytes = 1 << 20

// ReadHeaderTimeout and IdleTimeout bound how long the slipd and
// slipd-gateway HTTP servers wait on a client: for a request's headers,
// and for the next request on an idle keep-alive connection.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// handlePostRun admits one simulation request.
func (s *Server) handlePostRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Workload == "" || req.Policy == "" {
		writeError(w, http.StatusBadRequest, "workload and policy are required")
		return
	}
	req.normalize(s.cfg)
	c, key, err := specOf(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Identical effective requests are answered straight from the LRU
	// result store — the cache-hit counter in /metrics observes this.
	// submit looks again after a pending miss, catching a job that
	// finished since this lookup.
	res, ok := s.store.Get(key)
	var j *Job
	if !ok {
		j, res, err = s.submit(req, c, key)
	}
	if res != nil {
		s.metrics.CacheHit()
		writeJSON(w, http.StatusOK, JobView{
			State:    StateCompleted,
			Key:      key,
			Cached:   true,
			Progress: res.Accesses,
			Total:    res.Accesses,
			Result:   res,
		})
		return
	}
	s.metrics.CacheMiss()
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case errors.Is(err, errQueueFull):
		// Backpressure: tell the client when to come back. One mean job
		// latency per queued slot ahead of it would be exact; a flat hint
		// keeps the contract simple.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full (%d waiting)", s.queue.Depth())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	s.mu.Lock()
	view := j.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, view)
}

// handleGetRun reports a job's state and, when finished, its result.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	s.mu.Lock()
	view := j.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleExperiment reproduces one paper experiment over HTTP: the runs it
// needs are simulated under the request context (cancellable, deadline
// s.cfg.JobTimeout) on the shared suite's worker pool, then the tables are
// rendered to the response as text.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !experiments.ValidExperiment(name) {
		writeError(w, http.StatusNotFound, "unknown experiment %q (valid: %v)", name, experiments.ExperimentNames())
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.JobTimeout)
	defer cancel()
	if err := s.expSuite.PrefetchContext(ctx, s.expSuite.SpecsFor(name)); err != nil {
		writeError(w, http.StatusGatewayTimeout, "experiment %q timed out or was cancelled: %v", name, err)
		return
	}

	// Rendering only reads the memo cache (everything is prefetched), so
	// holding the render lock is cheap; it exists because the shared
	// suite's Out is a single swappable writer.
	s.expRenderMu.Lock()
	defer s.expRenderMu.Unlock()
	var buf bytes.Buffer
	s.expOut.set(&buf)
	err := s.expSuite.RunNamed(name)
	s.expOut.set(nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = buf.WriteTo(w)
}

// PolicyView is the wire form of one registry descriptor: everything a
// client needs to stop hardcoding the valid-policy set.
type PolicyView struct {
	Name           string   `json:"name"`
	Aliases        []string `json:"aliases,omitempty"`
	Doc            string   `json:"doc"`
	UsesMetadata   bool     `json:"uses_metadata"`
	UniformLatency bool     `json:"uniform_latency"`
	SLIPMachinery  bool     `json:"slip_machinery"`
	AllowABP       bool     `json:"allow_abp"`
	EvalOrder      int      `json:"eval_order,omitempty"`
}

// PolicyList enumerates the registry in rank order.
type PolicyList struct {
	Policies []PolicyView `json:"policies"`
}

// Policies snapshots the policy registry in wire form — shared by the
// daemon's /v1/policies and the gateway's local answer to the same path.
func Policies() PolicyList {
	list := PolicyList{Policies: make([]PolicyView, 0, policy.Count())}
	for _, d := range policy.Descriptors() {
		list.Policies = append(list.Policies, PolicyView{
			Name:           d.Name,
			Aliases:        d.Aliases,
			Doc:            d.Doc,
			UsesMetadata:   d.UsesMetadata,
			UniformLatency: d.UniformLatency,
			SLIPMachinery:  d.SLIPMachinery,
			AllowABP:       d.AllowABP,
			EvalOrder:      d.EvalOrder,
		})
	}
	return list
}

// handlePolicies serves the policy registry: the daemon-side source of
// truth for the valid -policy set, per-policy aliases and capability
// metadata. It needs no server state — the registry is process-global and
// immutable after init.
func handlePolicies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, Policies())
}

// handleGetResult serves a stored result by its canonical spec hash —
// straight from the layered store (memory, then disk), never simulating.
// This is the restart-durability read path: a daemon reopened on the same
// -store-dir answers for every result it ever completed.
func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	res, ok := s.store.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no stored result for key %q", key)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleHealthz is the liveness probe: 200 for as long as the process
// serves, draining included — "alive" and "accepting work" are different
// questions, and /readyz answers the second.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe; draining flips it to 503 so load
// balancers and the slipd-gateway health checker stop routing new work
// while in-flight jobs finish.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders the Prometheus registry with live gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, Gauges{
		QueueDepth:    s.queue.Depth,
		QueueCap:      s.queue.Cap,
		JobsQueued:    s.queuedCount,
		JobsRunning:   func() int { return int(s.running.Load()) },
		StoreLen:      s.store.Len,
		StoreEvicted:  s.store.Evictions,
		StoreCapacity: func() int { return s.cfg.StoreCap },
		TraceCache:    s.TraceCacheStats,
		WarmCache:     s.WarmCacheStats,
		CAS:           s.store.DiskStats,
	})
}
