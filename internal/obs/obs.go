// Package obs is the run telemetry layer: an allocation-free metrics
// registry (monotonic counters, gauges, fixed-bucket histograms with
// atomic hot paths), a Span phase timer, Prometheus text-format
// exposition, the Tracker — the one place a run's round observations
// accumulate, which the control plane serves — and the structured JSONL
// round journal, a Tracker that writes each line from its own state.
//
// The package is built around two contracts the rest of the system pins
// with tests:
//
//   - Zero overhead when disabled. Instrumentation sites gate on
//     Enabled() — one atomic load — and a disabled process pays nothing
//     beyond that load: no clock reads, no atomic updates, no
//     allocations. A nil observer costs exactly a nil check.
//
//   - Allocation-free when enabled. Counter.Add, Gauge.Set,
//     Histogram.Observe, Span.End, and the journal's per-round event
//     append all run without heap allocations once warm, so attaching
//     telemetry preserves the engine's warm-round 0-alloc contract.
//     Registration (Registry.Counter and friends) may allocate; it
//     happens at setup, never on a hot path.
//
// Telemetry observes wall-clock time but never feeds it back into
// learning: results with telemetry attached are bit-identical to a bare
// run, pinned by the engine's golden and determinism suites.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the process-wide telemetry gate. Off by default: the hot
// paths of the engine, transport, and scheduler check it before reading
// clocks or touching metrics.
var enabled atomic.Bool

// Enabled reports whether telemetry collection is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns telemetry collection on or off process-wide. The
// control plane's HTTP server turns it on when it starts serving
// /metrics; tests restore the prior state with it.
func SetEnabled(on bool) { enabled.Store(on) }

// base anchors the process-relative monotonic clock.
var base = time.Now()

// Now returns monotonic nanoseconds since process start. It reads the
// runtime's monotonic clock (never the wall clock, so it is immune to
// time jumps) and allocates nothing.
func Now() int64 { return int64(time.Since(base)) }

// Span measures one timed section into a Histogram of seconds. The zero
// Span is inert: StartSpan returns it when telemetry is disabled, and
// End on it is a nil check.
type Span struct {
	h     *Histogram
	start int64
}

// StartSpan begins a span recording into h (which may be nil). When
// telemetry is disabled the returned span is inert and End costs one
// branch.
func StartSpan(h *Histogram) Span {
	if h == nil || !Enabled() {
		return Span{}
	}
	return Span{h: h, start: Now()}
}

// End records the span's elapsed seconds. Safe on the zero Span.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(float64(Now()-s.start) / 1e9)
}

// defaultReg is the process-wide registry every subsystem instruments
// into; the control plane's /metrics endpoint exposes it.
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}
