// Package gateway implements slipd-gateway, the cluster front for a fleet
// of slipd backends. Requests are consistent-hashed by the canonical spec
// hash — the same client-computable `s1:` key that names the run in every
// cache tier below — so routing IS cache affinity: the same spec always
// lands on the backend whose memo/warm/trace/result caches already hold
// it, the cluster's aggregate cache is the sum (not the overlap) of its
// nodes, and a backend restarted over its durable store answers for its
// whole key range without re-simulating.
//
// Rendezvous (highest-random-weight) hashing gives minimal disruption:
// adding or removing a backend only moves the keys that backend owns,
// about 1/N of the space, while every other key keeps its home. Backends
// are health-checked on /readyz (which slipd flips to 503 while
// draining); an administratively drained backend stops receiving new
// keys while id-routed GETs still reach its in-flight jobs. Idempotent
// requests — POST /v1/runs is idempotent because the body IS the
// content-addressed identity — fail over to the next-preferred backend
// with bounded backoff.
package gateway

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/lru"
	"repro/internal/metrics"
	"repro/internal/service"
)

// Config sizes the gateway. Zero values take the documented defaults.
type Config struct {
	// Backends are the slipd base addresses ("host:port" or
	// "http://host:port"); at least one is required.
	Backends []string

	// Defaults are the sizing values stamped into unset request fields
	// before hashing. Configure them identically to the backends'
	// -accesses/-warmup/-seed so the gateway derives the same key a
	// backend will store the result under (a mismatch only costs affinity
	// on default-elided requests, never correctness).
	Defaults service.Defaults

	// HealthInterval is the /readyz probe period (default 1s);
	// HealthTimeout bounds one probe (default 500ms).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// FailThreshold consecutive failed probes eject a backend (default 2);
	// RiseThreshold consecutive successes restore it (default 2).
	FailThreshold int
	RiseThreshold int

	// MaxAttempts bounds how many backends one request tries (default:
	// all ready candidates). RetryBackoff is the base delay between
	// attempts, growing linearly (default 100ms).
	MaxAttempts  int
	RetryBackoff time.Duration

	// RouteTableCap bounds the id -> backend LRU (default 4096).
	RouteTableCap int

	// MaxBodyBytes bounds a POST body (default service.MaxBodyBytes).
	MaxBodyBytes int64

	// Client overrides the proxy HTTP client (default: 2-minute timeout).
	Client *http.Client
	// Log receives operational messages (default: discard).
	Log *log.Logger
}

// fill applies defaults.
func (c *Config) fill() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 500 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.RiseThreshold <= 0 {
		c.RiseThreshold = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.RouteTableCap <= 0 {
		c.RouteTableCap = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = service.MaxBodyBytes
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	if c.Defaults.Accesses == 0 {
		c.Defaults.Accesses = 2_000_000
	}
	if c.Defaults.Seed == 0 {
		c.Defaults.Seed = 42
	}
}

// backend is one slipd node's gateway-side state. The counters are
// atomic; the other fields are guarded by the gateway mutex.
type backend struct {
	addr string // canonical base URL, e.g. "http://127.0.0.1:8081"

	ready    bool // per the health checker
	draining bool // administratively removed from new-key routing
	fails    int  // consecutive failed probes
	rises    int  // consecutive successful probes while not ready

	requests  metrics.Counter // proxied requests answered by this backend
	errors    metrics.Counter // transport failures and 5xx answers
	retries   metrics.Counter // requests retried away from this backend
	ejections metrics.Counter // healthy -> unhealthy transitions
	latSum    metrics.Counter // summed latency of the answered requests
}

// Gateway is the sharding reverse proxy. Build with New, serve Handler,
// stop with Shutdown.
type Gateway struct {
	cfg    Config
	client *http.Client

	noBackend metrics.Counter    // requests refused: no ready backend
	latency   *metrics.Histogram // proxied request latency, all backends

	// routes maps job id -> backend address, populated from POST
	// responses so GET /v1/runs/{id} lands on the backend that owns the
	// job. Ids evicted (or minted before a gateway restart) fall back to
	// the scan path in handleGetRun.
	routes *lru.Cache[string]

	// backends and order are fixed by New, so reading them (not a
	// backend's guarded fields) needs no lock.
	mu       sync.Mutex
	backends map[string]*backend
	order    []string // stable listing for admin/metrics

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// CanonicalAddr normalizes a backend address to its base URL form.
func CanonicalAddr(addr string) string {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// New builds a gateway over cfg.Backends; call Start to begin health
// checking. Backends start ready so traffic flows immediately — the first
// probe round corrects any that are down.
func New(cfg Config) (*Gateway, error) {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	g := &Gateway{
		cfg:      cfg,
		client:   cfg.Client,
		latency:  metrics.NewHistogram(proxyLatencyBuckets...),
		routes:   lru.New[string](int64(cfg.RouteTableCap), nil),
		backends: make(map[string]*backend),
		ctx:      ctx,
		cancel:   cancel,
	}
	for _, raw := range cfg.Backends {
		addr := CanonicalAddr(raw)
		if addr == "" {
			continue
		}
		if _, dup := g.backends[addr]; dup {
			continue
		}
		g.backends[addr] = &backend{addr: addr, ready: true}
		g.order = append(g.order, addr)
	}
	if len(g.backends) == 0 {
		cancel()
		return nil, fmt.Errorf("gateway: at least one backend is required")
	}
	sort.Strings(g.order)
	return g, nil
}

// Start launches the health-check loop.
func (g *Gateway) Start() {
	g.wg.Add(1)
	go g.healthLoop()
}

// Shutdown stops the health loop.
func (g *Gateway) Shutdown() {
	g.cancel()
	g.wg.Wait()
}

// healthLoop probes every backend's /readyz each interval.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	g.probeAll() // immediate first round: don't wait an interval to eject a dead node
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-ticker.C:
			g.probeAll()
		}
	}
}

// probeAll checks all backends concurrently and applies the thresholds.
func (g *Gateway) probeAll() {
	g.mu.Lock()
	addrs := append([]string(nil), g.order...)
	g.mu.Unlock()

	var wg sync.WaitGroup
	results := make([]bool, len(addrs))
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			results[i] = g.probe(addr)
		}(i, addr)
	}
	wg.Wait()

	g.mu.Lock()
	defer g.mu.Unlock()
	for i, addr := range addrs {
		b := g.backends[addr]
		if b == nil {
			continue
		}
		if results[i] {
			b.fails = 0
			if !b.ready {
				b.rises++
				if b.rises >= g.cfg.RiseThreshold {
					b.ready = true
					b.rises = 0
					g.cfg.Log.Printf("backend %s restored", addr)
				}
			}
			continue
		}
		b.rises = 0
		b.fails++
		if b.ready && b.fails >= g.cfg.FailThreshold {
			b.ready = false
			b.ejections.Inc()
			g.cfg.Log.Printf("backend %s ejected after %d failed probes", addr, b.fails)
		}
	}
}

// probe is one readiness check.
func (g *Gateway) probe(addr string) bool {
	ctx, cancel := context.WithTimeout(g.ctx, g.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// readySet is the addresses eligible for new keys (ready, not draining).
func (g *Gateway) readySet() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for _, addr := range g.order {
		b := g.backends[addr]
		if b.ready && !b.draining {
			out = append(out, addr)
		}
	}
	return out
}

// candidates ranks the ready set for one key: the key's home first, then
// the failover order.
func (g *Gateway) candidates(key string) []string {
	return Rank(key, g.readySet())
}

// setDraining flips a backend's administrative drain flag; unknown
// addresses report an error.
func (g *Gateway) setDraining(addr string, draining bool) error {
	addr = CanonicalAddr(addr)
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.backends[addr]
	if !ok {
		return fmt.Errorf("unknown backend %q (have %s)", addr, strings.Join(g.order, ", "))
	}
	if b.draining != draining {
		b.draining = draining
		verb := "draining"
		if !draining {
			verb = "undrained"
		}
		g.cfg.Log.Printf("backend %s %s", addr, verb)
	}
	return nil
}

// stateSnapshot captures per-backend state for the admin listing.
func (g *Gateway) stateSnapshot() (up, draining map[string]bool, order []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	up = make(map[string]bool, len(g.backends))
	draining = make(map[string]bool, len(g.backends))
	for _, addr := range g.order {
		b := g.backends[addr]
		up[addr] = b.ready
		draining[addr] = b.draining
	}
	return up, draining, append([]string(nil), g.order...)
}
