package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is get-or-create: asking twice for the
// same (name, labels) returns the same collector, so subsystems register
// idempotently at setup without coordinating. Registration locks and may
// allocate; the returned collectors' update methods are atomic and
// allocation-free.
type Registry struct {
	mu    sync.Mutex
	order []string
	fams  map[string]*family
}

// family is one metric name: its metadata plus every label-set series.
type family struct {
	name, help, kind string
	order            []string
	series           map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Observations index into the
// bucket whose upper bound first contains the value (an implicit +Inf
// bucket catches the rest); counts and the sum are atomics, so Observe
// is lock- and allocation-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// counterFn and gaugeFn are pull-style collectors sampled at exposition
// time — for state that already lives elsewhere (scheduler counters,
// runtime stats) and would be wasteful to mirror on every update.
type counterFn func() uint64
type gaugeFn func() float64

// DurationBuckets are the default latency buckets (seconds): 100µs to
// 30s, roughly logarithmic — wide enough for a broadcast phase and a
// multi-second local-training phase on one scale.
var DurationBuckets = []float64{
	100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	100e-3, 250e-3, 500e-3, 1, 2.5, 5, 10, 30,
}

// Label formats one Prometheus label pair with the value escaped per the
// exposition format (backslash, double-quote, newline).
func Label(key, value string) string {
	var b strings.Builder
	b.WriteString(key)
	b.WriteString(`="`)
	for _, r := range value {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteString(`"`)
	return b.String()
}

// Counter returns the counter for (name, labels), creating and
// registering it on first use. labels is a comma-joined list of
// Label(...) pairs ("" for none); help is recorded on first registration
// of the name.
func (r *Registry) Counter(name, labels, help string) *Counter {
	v := r.lookup(name, labels, help, "counter", func() any { return &Counter{} })
	return v.(*Counter)
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	v := r.lookup(name, labels, help, "gauge", func() any { return &Gauge{} })
	return v.(*Gauge)
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds on first use (nil buckets selects
// DurationBuckets). Buckets must be sorted ascending; they are fixed at
// creation and ignored on later lookups of the same series.
func (r *Registry) Histogram(name, labels, help string, buckets []float64) *Histogram {
	v := r.lookup(name, labels, help, "histogram", func() any {
		if buckets == nil {
			buckets = DurationBuckets
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("obs: histogram %s buckets not ascending", name))
			}
		}
		h := &Histogram{bounds: append([]float64(nil), buckets...)}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		return h
	})
	return v.(*Histogram)
}

// CounterFunc registers a pull-style counter sampled at exposition time.
// First registration wins; re-registering the same series is a no-op.
func (r *Registry) CounterFunc(name, labels, help string, fn func() uint64) {
	r.lookup(name, labels, help, "counter", func() any { return counterFn(fn) })
}

// GaugeFunc registers a pull-style gauge sampled at exposition time.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.lookup(name, labels, help, "gauge", func() any { return gaugeFn(fn) })
}

// lookup is the get-or-create core shared by every registration form.
func (r *Registry) lookup(name, labels, help, kind string, build func() any) any {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]any)}
		r.fams[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, kind, f.kind))
	}
	s := f.series[labels]
	if s == nil {
		s = build()
		f.series[labels] = s
		f.order = append(f.order, labels)
	}
	return s
}

// validName checks the Prometheus metric-name grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// WritePrometheus renders every family in registration order as
// Prometheus text exposition format (version 0.0.4). The scrape path may
// allocate; it never blocks collectors' update paths beyond the
// registration lock.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := make([]byte, 0, 4096)
	for _, name := range r.order {
		f := r.fams[name]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = appendEscapedHelp(buf, f.help)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind...)
		buf = append(buf, '\n')
		for _, labels := range f.order {
			buf = f.appendSeries(buf, labels, f.series[labels])
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendSeries renders one label-set's samples.
func (f *family) appendSeries(buf []byte, labels string, s any) []byte {
	switch v := s.(type) {
	case *Counter:
		buf = appendSample(buf, f.name, labels, float64(v.Value()))
	case counterFn:
		buf = appendSample(buf, f.name, labels, float64(v()))
	case *Gauge:
		buf = appendSample(buf, f.name, labels, v.Value())
	case gaugeFn:
		buf = appendSample(buf, f.name, labels, v())
	case *Histogram:
		// Prometheus bucket counts are cumulative; ours are per-bucket.
		cum := uint64(0)
		for i, bound := range v.bounds {
			cum += v.counts[i].Load()
			buf = appendBucket(buf, f.name, labels, formatBound(bound), cum)
		}
		cum += v.counts[len(v.bounds)].Load()
		buf = appendBucket(buf, f.name, labels, "+Inf", cum)
		buf = appendSample(buf, f.name+"_sum", labels, v.Sum())
		buf = appendSample(buf, f.name+"_count", labels, float64(v.Count()))
	}
	return buf
}

func appendSample(buf []byte, name, labels string, v float64) []byte {
	buf = append(buf, name...)
	if labels != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = appendFloat(buf, v)
	return append(buf, '\n')
}

func appendBucket(buf []byte, name, labels, le string, cum uint64) []byte {
	buf = append(buf, name...)
	buf = append(buf, "_bucket{"...)
	if labels != "" {
		buf = append(buf, labels...)
		buf = append(buf, ',')
	}
	buf = append(buf, `le="`...)
	buf = append(buf, le...)
	buf = append(buf, `"} `...)
	buf = strconv.AppendUint(buf, cum, 10)
	return append(buf, '\n')
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func appendFloat(buf []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(buf, "NaN"...)
	case math.IsInf(v, 1):
		return append(buf, "+Inf"...)
	case math.IsInf(v, -1):
		return append(buf, "-Inf"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

func appendEscapedHelp(buf []byte, help string) []byte {
	for _, r := range help {
		switch r {
		case '\\':
			buf = append(buf, `\\`...)
		case '\n':
			buf = append(buf, `\n`...)
		default:
			buf = append(buf, string(r)...)
		}
	}
	return buf
}

// RegisterProcessMetrics registers pull-style process health metrics
// (uptime, goroutines, heap, GC cycles) on r. Sampling happens at scrape
// time; runtime.ReadMemStats briefly stops the world, which is
// acceptable on a scrape but is why these are not push metrics.
func RegisterProcessMetrics(r *Registry) {
	r.GaugeFunc("fedsim_process_uptime_seconds", "", "Seconds since process start.",
		func() float64 { return float64(Now()) / 1e9 })
	r.GaugeFunc("go_goroutines", "", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_heap_alloc_bytes", "", "Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	r.CounterFunc("go_gc_cycles_total", "", "Completed GC cycles.",
		func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return uint64(ms.NumGC)
		})
}
