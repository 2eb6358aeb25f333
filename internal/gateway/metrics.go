package gateway

import "repro/internal/metrics"

// proxyLatencyBuckets bound the proxied-request latency histogram in
// seconds: cache hits are sub-millisecond, queued simulations are not.
var proxyLatencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30}

// BackendSnapshot is one backend's counters for the admin endpoint.
type BackendSnapshot struct {
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	Retries   uint64 `json:"retries"`
	Ejections uint64 `json:"ejections"`
}

// snapshot returns addr's counters (zeros for an address outside the
// backend set).
func (g *Gateway) snapshot(addr string) BackendSnapshot {
	b, ok := g.backends[addr]
	if !ok {
		return BackendSnapshot{}
	}
	return BackendSnapshot{
		Requests:  uint64(b.requests.Value()),
		Errors:    uint64(b.errors.Value()),
		Retries:   uint64(b.retries.Value()),
		Ejections: uint64(b.ejections.Value()),
	}
}

// perBackend builds a family's Values from one reading of every
// configured backend, labelled by address.
func perBackend(read func(*backend) float64) func(*Gateway) map[string]float64 {
	return func(g *Gateway) map[string]float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		out := make(map[string]float64, len(g.order))
		for _, addr := range g.order {
			out[addr] = read(g.backends[addr])
		}
		return out
	}
}

// one is 1 for true, 0 for false.
func one(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// gatewayFamilies is the gateway's /metrics exposition.
var gatewayFamilies = []metrics.Family[*Gateway]{
	{Name: "slipgw_backend_up", Help: "Backend readiness per the health checker (1 ready).", Type: "gauge", Label: "backend",
		Values: perBackend(func(b *backend) float64 { return one(b.ready) })},
	{Name: "slipgw_backend_draining", Help: "Backend administratively draining (1 draining).", Type: "gauge", Label: "backend",
		Values: perBackend(func(b *backend) float64 { return one(b.draining) })},
	{Name: "slipgw_requests_total", Help: "Proxied requests answered, by backend.", Type: "counter", Label: "backend",
		Values: perBackend(func(b *backend) float64 { return b.requests.Value() })},
	{Name: "slipgw_errors_total", Help: "Transport failures and 5xx answers, by backend.", Type: "counter", Label: "backend",
		Values: perBackend(func(b *backend) float64 { return b.errors.Value() })},
	{Name: "slipgw_retries_total", Help: "Requests retried away, by abandoned backend.", Type: "counter", Label: "backend",
		Values: perBackend(func(b *backend) float64 { return b.retries.Value() })},
	{Name: "slipgw_ejections_total", Help: "Healthy-to-unhealthy transitions, by backend.", Type: "counter", Label: "backend",
		Values: perBackend(func(b *backend) float64 { return b.ejections.Value() })},
	{Name: "slipgw_backend_request_seconds_total", Help: "Summed proxied latency, by backend (divide by slipgw_requests_total for the mean).", Type: "counter", Label: "backend",
		Values: perBackend(func(b *backend) float64 { return b.latSum.Value() })},
	{Name: "slipgw_request_seconds", Help: "Proxied request latency (all backends).", Type: "histogram",
		Hist: func(g *Gateway) *metrics.Histogram { return g.latency }},
	{Name: "slipgw_no_backend_total", Help: "Requests refused: no ready backend.", Type: "counter",
		Value: func(g *Gateway) float64 { return g.noBackend.Value() }},
	{Name: "slipgw_routes", Help: "Job routes currently held (id -> backend).", Type: "gauge",
		Value: func(g *Gateway) float64 { return float64(g.routes.Len()) }},
}
