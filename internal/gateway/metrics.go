package gateway

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// proxyLatencyBuckets bound the proxied-request latency histogram in
// seconds: cache hits are sub-millisecond, queued simulations are not.
var proxyLatencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30}

// backendCounters are the per-backend series.
type backendCounters struct {
	requests  uint64  // proxied requests answered by this backend
	errors    uint64  // transport failures and 5xx answers
	retries   uint64  // requests retried away from this backend
	ejections uint64  // healthy -> unhealthy transitions
	latSum    float64 // summed latency of the answered requests
}

// Metrics is the gateway's dependency-free Prometheus-text registry. All
// methods are safe for concurrent use.
type Metrics struct {
	mu       sync.Mutex
	backends map[string]*backendCounters

	noBackend uint64 // requests refused because no backend was ready

	// slipgw_request_seconds histogram over all backends.
	latCounts []uint64
	latInf    uint64
	latSum    float64
	latCount  uint64
}

// newMetrics builds an empty registry.
func newMetrics() *Metrics {
	return &Metrics{
		backends:  make(map[string]*backendCounters),
		latCounts: make([]uint64, len(proxyLatencyBuckets)),
	}
}

// be returns (creating) the counters for one backend; call locked.
func (m *Metrics) be(addr string) *backendCounters {
	c, ok := m.backends[addr]
	if !ok {
		c = &backendCounters{}
		m.backends[addr] = c
	}
	return c
}

// Request counts one proxied request answered by addr, with its latency.
func (m *Metrics) Request(addr string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.be(addr)
	c.requests++
	c.latSum += seconds
	m.latSum += seconds
	m.latCount++
	for i, b := range proxyLatencyBuckets {
		if seconds <= b {
			m.latCounts[i]++
			return
		}
	}
	m.latInf++
}

// Error counts a transport failure or 5xx answer from addr.
func (m *Metrics) Error(addr string) {
	m.mu.Lock()
	m.be(addr).errors++
	m.mu.Unlock()
}

// Retry counts a request abandoned on addr and retried elsewhere.
func (m *Metrics) Retry(addr string) {
	m.mu.Lock()
	m.be(addr).retries++
	m.mu.Unlock()
}

// Ejection counts addr flipping healthy -> unhealthy.
func (m *Metrics) Ejection(addr string) {
	m.mu.Lock()
	m.be(addr).ejections++
	m.mu.Unlock()
}

// NoBackend counts a request refused for want of any ready backend.
func (m *Metrics) NoBackend() {
	m.mu.Lock()
	m.noBackend++
	m.mu.Unlock()
}

// BackendSnapshot is one backend's counters for the admin endpoint.
type BackendSnapshot struct {
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	Retries   uint64 `json:"retries"`
	Ejections uint64 `json:"ejections"`
}

// Snapshot returns addr's counters (zeros if never seen).
func (m *Metrics) Snapshot(addr string) BackendSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.backends[addr]
	if !ok {
		return BackendSnapshot{}
	}
	return BackendSnapshot{Requests: c.requests, Errors: c.errors, Retries: c.retries, Ejections: c.ejections}
}

// gwGauges are point-in-time values owned by the gateway.
type gwGauges struct {
	up       map[string]bool
	draining map[string]bool
	routes   int
}

// WriteTo renders the registry in Prometheus text exposition format.
func (m *Metrics) WriteTo(w io.Writer, g gwGauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	addrs := make([]string, 0, len(m.backends))
	for a := range m.backends {
		addrs = append(addrs, a)
	}
	for a := range g.up { // backends that never served still get series
		if _, ok := m.backends[a]; !ok {
			addrs = append(addrs, a)
		}
	}
	sort.Strings(addrs)

	series := func(name, help, typ string, value func(string) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, a := range addrs {
			fmt.Fprintf(w, "%s{backend=%q} %g\n", name, a, value(a))
		}
	}
	cnt := func(a string) *backendCounters { return m.be(a) }

	series("slipgw_backend_up", "Backend readiness per the health checker (1 ready).", "gauge", func(a string) float64 {
		if g.up[a] {
			return 1
		}
		return 0
	})
	series("slipgw_backend_draining", "Backend administratively draining (1 draining).", "gauge", func(a string) float64 {
		if g.draining[a] {
			return 1
		}
		return 0
	})
	series("slipgw_requests_total", "Proxied requests answered, by backend.", "counter", func(a string) float64 { return float64(cnt(a).requests) })
	series("slipgw_errors_total", "Transport failures and 5xx answers, by backend.", "counter", func(a string) float64 { return float64(cnt(a).errors) })
	series("slipgw_retries_total", "Requests retried away, by abandoned backend.", "counter", func(a string) float64 { return float64(cnt(a).retries) })
	series("slipgw_ejections_total", "Healthy-to-unhealthy transitions, by backend.", "counter", func(a string) float64 { return float64(cnt(a).ejections) })
	series("slipgw_backend_request_seconds_total", "Summed proxied latency, by backend (divide by slipgw_requests_total for the mean).", "counter", func(a string) float64 { return cnt(a).latSum })

	fmt.Fprintf(w, "# HELP slipgw_request_seconds Proxied request latency (all backends).\n# TYPE slipgw_request_seconds histogram\n")
	var cum uint64
	for i, b := range proxyLatencyBuckets {
		cum += m.latCounts[i]
		fmt.Fprintf(w, "slipgw_request_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", b), cum)
	}
	fmt.Fprintf(w, "slipgw_request_seconds_bucket{le=\"+Inf\"} %d\n", cum+m.latInf)
	fmt.Fprintf(w, "slipgw_request_seconds_sum %g\n", m.latSum)
	fmt.Fprintf(w, "slipgw_request_seconds_count %d\n", m.latCount)

	fmt.Fprintf(w, "# HELP slipgw_no_backend_total Requests refused: no ready backend.\n# TYPE slipgw_no_backend_total counter\nslipgw_no_backend_total %d\n", m.noBackend)
	fmt.Fprintf(w, "# HELP slipgw_routes Job routes currently held (id -> backend).\n# TYPE slipgw_routes gauge\nslipgw_routes %d\n", g.routes)
}
