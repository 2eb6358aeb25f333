package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/castore"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/spec"
)

// Config sizes the daemon. Zero values take the documented defaults.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds waiting jobs; a full queue answers 429 (default 64).
	QueueDepth int
	// StoreCap bounds the LRU result store (default 256).
	StoreCap int
	// DefaultAccesses/DefaultWarmup/DefaultSeed fill unset request fields
	// (defaults 2M / same-as-accesses / 42).
	DefaultAccesses uint64
	DefaultWarmup   *uint64
	DefaultSeed     uint64
	// JobTimeout is the per-job deadline; an expired job reports state
	// cancelled (default 5m). Requests may shorten it, never extend it.
	JobTimeout time.Duration
	// TraceCacheBytes bounds the trace materialization cache shared by
	// every job and the experiment endpoints: each distinct workload
	// stream is generated once and replayed by later runs (bit-identical
	// results). Zero selects experiments.DefaultTraceCacheBytes; negative
	// disables materialization.
	TraceCacheBytes int64
	// WarmCacheBytes bounds the warm-state snapshot cache shared the same
	// way: the post-warmup hierarchy state of each warmup identity is
	// simulated once and cloned by every later run sharing it
	// (bit-identical results). Zero selects
	// experiments.DefaultWarmCacheBytes; negative disables warm-state
	// caching.
	WarmCacheBytes int64
	// DiskStore, when set, is the durable content-addressed tier under the
	// in-memory result store: reads fall through to it, completed results
	// are written behind, and results survive a restart of the daemon on
	// the same directory. The server takes ownership (Shutdown flushes and
	// closes it).
	DiskStore *castore.Store
	// Log receives operational messages (default: discard).
	Log *log.Logger
}

// fill applies defaults.
func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.StoreCap <= 0 {
		c.StoreCap = 256
	}
	if c.DefaultAccesses == 0 {
		c.DefaultAccesses = 2_000_000
	}
	if c.DefaultSeed == 0 {
		c.DefaultSeed = 42
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
}

// swappableWriter lets the server point the shared experiment suite's
// output at a per-request buffer; renders are serialized by expMu.
type swappableWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *swappableWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return len(p), nil
	}
	return s.w.Write(p)
}

func (s *swappableWriter) set(w io.Writer) {
	s.mu.Lock()
	s.w = w
	s.mu.Unlock()
}

// Server is the slipd core: queue + workers + result store + metrics,
// independent of the HTTP listener so tests can drive it via httptest.
type Server struct {
	cfg     Config
	queue   *Queue
	store   *Store
	metrics Metrics

	// expSuite serves /v1/experiments with the server's default sizing;
	// its memo cache is bounded by the finite experiment matrix.
	// expRenderMu serializes renders; expOut redirects table output per
	// request.
	expSuite    *experiments.Suite
	expOut      *swappableWriter
	expRenderMu sync.Mutex

	// traceCache is shared by the experiment suite and every per-job
	// suite, so a daemon serving many policies over few workloads
	// generates each trace once. Nil when disabled by config.
	traceCache *experiments.TraceCache

	// warmCache is shared the same way: jobs differing only in their
	// measured window reuse one warm snapshot instead of re-simulating the
	// warmup. Nil when disabled by config.
	warmCache *experiments.WarmCache

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	draining atomic.Bool
	running  atomic.Int64

	mu      sync.Mutex
	jobs    map[string]*Job
	pending map[string]*Job // result key -> queued/running job (dedupe)

	// testHookJobStart, when set, runs at the top of every job on the
	// worker goroutine — tests use it to hold a worker busy
	// deterministically instead of racing wall-clock sleeps.
	testHookJobStart func(*Job)
}

// New builds a stopped server; call Start to launch the worker pool.
func New(cfg Config) *Server {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	expOut := &swappableWriter{}
	warmup := cfg.DefaultAccesses
	if cfg.DefaultWarmup != nil {
		warmup = *cfg.DefaultWarmup
	}
	var traceCache *experiments.TraceCache
	if cfg.TraceCacheBytes >= 0 {
		traceCache = experiments.NewTraceCache(cfg.TraceCacheBytes)
	}
	var warmCache *experiments.WarmCache
	if cfg.WarmCacheBytes >= 0 {
		warmCache = experiments.NewWarmCache(cfg.WarmCacheBytes)
	}
	s := &Server{
		cfg:     cfg,
		queue:   NewQueue(cfg.QueueDepth),
		store:   NewStoreWithDisk(cfg.StoreCap, cfg.DiskStore),
		metrics: Metrics{run: metrics.NewHistogram(runLatencyBuckets...)},
		expSuite: experiments.NewSuite(experiments.Options{
			Accesses:        cfg.DefaultAccesses,
			Warmup:          warmup,
			WarmupSet:       true,
			Seed:            cfg.DefaultSeed,
			Parallelism:     cfg.Workers,
			Out:             expOut,
			TraceCacheBytes: cfg.TraceCacheBytes,
			TraceCache:      traceCache,
			WarmCacheBytes:  cfg.WarmCacheBytes,
			WarmCache:       warmCache,
		}),
		expOut:     expOut,
		traceCache: traceCache,
		warmCache:  warmCache,
		baseCtx:    ctx,
		cancel:     cancel,
		jobs:       make(map[string]*Job),
		pending:    make(map[string]*Job),
	}
	return s
}

// TraceCacheStats snapshots the shared trace materialization cache; all
// zeros when the cache is disabled.
func (s *Server) TraceCacheStats() experiments.TraceCacheStats { return s.traceCache.Stats() }

// WarmCacheStats snapshots the shared warm-state snapshot cache; all zeros
// when the cache is disabled.
func (s *Server) WarmCacheStats() experiments.WarmCacheStats { return s.warmCache.Stats() }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown drains gracefully: intake stops (new POSTs get 503 and /readyz
// flips), queued and in-flight jobs run to completion, queued disk writes
// flush, then workers exit. If ctx expires first, running simulations are
// cancelled (their jobs report cancelled) and Shutdown returns ctx.Err()
// once the workers finish unwinding — the disk tier still flushes so every
// completed result is durable.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if err := s.store.Close(); err != nil {
			s.cfg.Log.Printf("result store close: %v", err)
		}
		return nil
	case <-ctx.Done():
		s.cancel() // abort in-flight simulations
		<-done
		if err := s.store.Close(); err != nil {
			s.cfg.Log.Printf("result store close: %v", err)
		}
		return ctx.Err()
	}
}

// newJobID returns a 16-hex-digit random id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // the platform CSPRNG failing is not recoverable
	}
	return hex.EncodeToString(b[:])
}

// submit admits a request that missed the result store. It returns the
// job to poll — either a freshly queued one or an existing job for the
// same key (service-level singleflight) — or an admission error. On a
// pending miss it looks in the store again and returns the result found
// there: finishJob stores a result before its job leaves pending, so a job
// that finished after the caller's own lookup is never simulated twice.
var errQueueFull = errors.New("queue full")
var errDraining = errors.New("server draining")

func (s *Server) submit(req RunRequest, c spec.Spec, key string) (*Job, *RunResult, error) {
	if s.draining.Load() {
		return nil, nil, errDraining
	}
	s.mu.Lock()
	if j, ok := s.pending[key]; ok {
		s.mu.Unlock()
		return j, nil, nil
	}
	if res, ok := s.store.Get(key); ok {
		s.mu.Unlock()
		return nil, res, nil
	}
	j := &Job{
		ID:      newJobID(),
		Key:     key,
		Req:     req,
		Spec:    c,
		State:   StateQueued,
		Created: time.Now(),
		Total:   uint64(c.Cores) * (*c.Warmup + c.Accesses),
	}
	s.jobs[j.ID] = j
	s.pending[key] = j
	s.mu.Unlock()

	if !s.queue.TryEnqueue(j) {
		s.mu.Lock()
		delete(s.jobs, j.ID)
		delete(s.pending, key)
		s.mu.Unlock()
		if s.draining.Load() {
			return nil, nil, errDraining
		}
		return nil, nil, errQueueFull
	}
	s.metrics.jobsSubmitted.Inc()
	return j, nil, nil
}

// job looks up a job by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// queuedCount counts jobs in state queued (for /metrics).
func (s *Server) queuedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.State == StateQueued {
			n++
		}
	}
	return n
}

// worker consumes the queue until it closes and drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue.Chan() {
		s.runJob(j)
	}
}

// jobDeadline resolves a job's effective deadline.
func (s *Server) jobDeadline(j *Job) time.Duration {
	d := s.cfg.JobTimeout
	if j.Req.TimeoutMS > 0 {
		if rd := time.Duration(j.Req.TimeoutMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return d
}

// runJob simulates one job on the calling worker goroutine. Each job gets
// a fresh single-use suite: cross-job caching is the LRU store's business
// (it keeps small flattened results), so daemon memory never accumulates
// full simulated systems no matter how long it serves.
func (s *Server) runJob(j *Job) {
	if s.testHookJobStart != nil {
		s.testHookJobStart(j)
	}
	s.mu.Lock()
	j.State = StateRunning
	j.Started = time.Now()
	s.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)

	ctx, cancel := context.WithTimeout(s.baseCtx, s.jobDeadline(j))
	defer cancel()

	var lastReported uint64
	suite := experiments.NewSuite(experiments.Options{
		Accesses:        j.Spec.Accesses,
		Warmup:          *j.Spec.Warmup,
		WarmupSet:       true,
		Seed:            j.Spec.Seed,
		Parallelism:     1,
		TraceCacheBytes: s.cfg.TraceCacheBytes,
		TraceCache:      s.traceCache,
		WarmCacheBytes:  s.cfg.WarmCacheBytes,
		WarmCache:       s.warmCache,
		Progress: func(_ string, done uint64) {
			j.progress.Store(done)
			// One worker goroutine drives the whole job, so the delta
			// accounting needs no synchronization of its own.
			s.metrics.accesses.Add(float64(done - lastReported))
			lastReported = done
		},
	})

	// j.Spec is canonical, so the suite memoizes it under exactly j.Key.
	sys, err := suite.RunSpecContext(ctx, j.Spec)
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}
	if sys.ShardWidth() > 1 {
		s.metrics.shardRuns.Inc()
	}
	s.finishJob(j, resultFrom(sys, j.Spec, time.Since(j.Started)), nil)
}

// finishJob stores the result, then records the terminal state, and
// updates metrics. Storing first means a client that sees "completed" (or
// misses the pending map) finds the result in the store, never a gap in
// which a repeat request would simulate again.
func (s *Server) finishJob(j *Job, res *RunResult, err error) {
	if err == nil {
		s.store.Put(j.Key, res)
	}
	s.mu.Lock()
	j.Finished = time.Now()
	switch {
	case err == nil:
		j.State = StateCompleted
		j.Result = res
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.State = StateCancelled
		j.Error = fmt.Sprintf("cancelled: %v", err)
	default:
		j.State = StateFailed
		j.Error = err.Error()
	}
	delete(s.pending, j.Key)
	s.mu.Unlock()

	if err == nil {
		if j.Spec.Sampling > 1 {
			s.metrics.sampledRuns.Inc()
		}
	}
	s.metrics.JobFinished(j.State, j.Finished.Sub(j.Started).Seconds())
	s.cfg.Log.Printf("job %s %s (%s) in %v", j.ID, j.State, j.Key, j.Finished.Sub(j.Started).Round(time.Millisecond))
}
