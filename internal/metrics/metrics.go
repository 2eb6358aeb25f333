// Package metrics renders Prometheus text exposition from static family
// tables. A server keeps its own counters and histograms as fields and
// declares, once per package, a []Family over its own type; Write renders
// that table for one instance. Kept dependency-free on purpose: the module
// imports only the standard library.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Counter is a float-valued monotonic counter, so summed seconds fit as
// well as event counts. The zero value is ready; methods are safe for
// concurrent use.
type Counter struct{ bits atomic.Uint64 }

// Add adds v (callers pass v >= 0).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Histogram counts observations into fixed upper bounds plus +Inf and
// sums them. Methods are safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // per bucket, not cumulative; the last is +Inf
	sum    Counter
}

// NewHistogram builds a histogram over ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records v in the first bucket whose bound is >= v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Family is one metric family over an owner of type T. Exactly one of
// Value (one unlabelled sample), Values (one sample per value of Label,
// rendered in sorted order) and Hist is set.
type Family[T any] struct {
	Name, Help, Type string
	Label            string
	Value            func(T) float64
	Values           func(T) map[string]float64
	Hist             func(T) *Histogram
}

// Write renders fams for owner in Prometheus text format: HELP and TYPE
// per family, then its samples.
func Write[T any](w io.Writer, fams []Family[T], owner T) error {
	var b []byte
	for _, f := range fams {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		switch {
		case f.Value != nil:
			b = sample(b, f.Name, "", "", f.Value(owner))
		case f.Values != nil:
			vals := f.Values(owner)
			keys := make([]string, 0, len(vals))
			for k := range vals {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				b = sample(b, f.Name, f.Label, k, vals[k])
			}
		case f.Hist != nil:
			b = f.Hist(owner).appendTo(b, f.Name)
		}
	}
	_, err := w.Write(b)
	return err
}

// Handler serves fams for owner as a scrape endpoint.
func Handler[T any](fams []Family[T], owner T) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = Write(w, fams, owner) // a failed write means the scraper hung up
	}
}

// appendTo renders cumulative buckets, _sum and _count. The count is the
// +Inf bucket, so the two agree even while observations race the render.
func (h *Histogram) appendTo(b []byte, name string) []byte {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = format(h.bounds[i])
		}
		b = sample(b, name+"_bucket", "le", le, float64(cum))
	}
	b = sample(b, name+"_sum", "", "", h.sum.Value())
	return sample(b, name+"_count", "", "", float64(cum))
}

// labelEscaper applies the exposition format's label-value escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample appends one sample line; an empty label renders none.
func sample(b []byte, name, label, value string, v float64) []byte {
	b = append(b, name...)
	if label != "" {
		b = fmt.Appendf(b, "{%s=\"%s\"}", label, labelEscaper.Replace(value))
	}
	b = append(b, ' ')
	b = append(b, format(v)...)
	return append(b, '\n')
}

// format renders a value without an exponent, so integral samples read as
// integers (1820960, not 1.82096e+06).
func format(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
