package metrics

import (
	"strings"
	"sync"
	"testing"
)

type owner struct {
	reqs  Counter
	lat   *Histogram
	bytes float64
	by    map[string]float64
}

var table = []Family[*owner]{
	{Name: "t_requests_total", Help: "Requests.", Type: "counter",
		Value: func(o *owner) float64 { return o.reqs.Value() }},
	{Name: "t_bytes", Help: "Bytes held.", Type: "gauge",
		Value: func(o *owner) float64 { return o.bytes }},
	{Name: "t_up", Help: "Per-backend readiness.", Type: "gauge", Label: "backend",
		Values: func(o *owner) map[string]float64 { return o.by }},
	{Name: "t_seconds", Help: "Latency.", Type: "histogram",
		Hist: func(o *owner) *Histogram { return o.lat }},
}

// TestWriteGolden renders one table of every family kind: label values
// come out sorted and escaped, an observation equal to a bound lands in
// that bound's bucket, one past the last bound only in +Inf, and integral
// values print without an exponent.
func TestWriteGolden(t *testing.T) {
	o := &owner{lat: NewHistogram(0.5, 1, 2.5), bytes: 1820960,
		by: map[string]float64{"http://b:2": 0, "http://a:1": 1, `q"\`: 0.25}}
	o.reqs.Add(3)
	for _, v := range []float64{0.25, 1, 1, 7} {
		o.lat.Observe(v)
	}
	var b strings.Builder
	if err := Write(&b, table, o); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_requests_total Requests.
# TYPE t_requests_total counter
t_requests_total 3
# HELP t_bytes Bytes held.
# TYPE t_bytes gauge
t_bytes 1820960
# HELP t_up Per-backend readiness.
# TYPE t_up gauge
t_up{backend="http://a:1"} 1
t_up{backend="http://b:2"} 0
t_up{backend="q\"\\"} 0.25
# HELP t_seconds Latency.
# TYPE t_seconds histogram
t_seconds_bucket{le="0.5"} 1
t_seconds_bucket{le="1"} 3
t_seconds_bucket{le="2.5"} 3
t_seconds_bucket{le="+Inf"} 4
t_seconds_sum 9.25
t_seconds_count 4
`
	if got := b.String(); got != want {
		t.Errorf("render mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentUpdates hammers one counter and one histogram from many
// goroutines; run under -race. Every value is a small integer, so the
// float sums are exact and the totals must match exactly.
func TestConcurrentUpdates(t *testing.T) {
	const workers, each = 8, 1000
	var c Counter
	h := NewHistogram(1, 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Add(2)
				h.Observe(float64(i % 3)) // 0, 1, 2: two bounded buckets and the first again
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), float64(2*workers*each); got != want {
		t.Errorf("counter = %v, want %v", got, want)
	}
	var b strings.Builder
	if err := Write(&b, []Family[*Histogram]{{Name: "h", Help: "h.", Type: "histogram",
		Hist: func(h *Histogram) *Histogram { return h }}}, h); err != nil {
		t.Fatal(err)
	}
	// Per worker: 334 zeros and 333 ones land in le=1, 333 twos in le=2.
	want := "h_bucket{le=\"1\"} 5336\nh_bucket{le=\"2\"} 8000\nh_bucket{le=\"+Inf\"} 8000\nh_sum 7992\nh_count 8000\n"
	if got := b.String(); !strings.HasSuffix(got, want) {
		t.Errorf("histogram render:\n%s\nwant suffix:\n%s", got, want)
	}
}
