// Package control is the coordinator's live control plane: an HTTP
// server over an obs.Tracker (the run's one accumulator of observations,
// which a journal embeds) exposing round progress, per-client outcome
// counts, ledger and socket-measured traffic, straggler histograms, the
// process registry's metrics and pprof, plus the tracker's on-demand
// checkpoint trigger, which the engine polls through its CheckpointPlan.
package control

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"fedclust/internal/obs"
	"fedclust/internal/sched"
)

// Server is the control plane's HTTP listener. Endpoints:
//
//	GET  /             — endpoint index
//	GET  /status       — Status snapshot (round progress, traffic, eval,
//	                     per-phase wall-time rollups)
//	GET  /clients      — per-client outcome counts
//	GET  /stragglers   — done-epoch and lag histograms
//	GET  /metrics      — Prometheus text exposition of the process registry
//	GET  /debug/pprof/ — net/http/pprof profiling handlers
//	POST /checkpoint   — arm the on-demand checkpoint trigger
//
// Read endpoints enforce GET (405 JSON otherwise), unknown paths return
// 404 JSON, and the server carries read/write timeouts sized so a
// 30-second pprof CPU profile still fits.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (":0" picks a free port) and serves the tracker's
// state until Close. Starting the server turns the process-wide
// telemetry gate on — a coordinator that exposes /metrics is one that
// wants the engine, transport, and scheduler collecting.
func Serve(addr string, t *obs.Tracker) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	obs.SetEnabled(true)
	registerRuntimeMetrics()

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			jsonError(w, http.StatusNotFound, "unknown path")
			return
		}
		if !requireGet(w, r) {
			return
		}
		writeJSON(w, map[string]string{
			"status":     "GET run progress snapshot",
			"clients":    "GET per-client outcome counts",
			"stragglers": "GET done-epoch and lag histograms",
			"metrics":    "GET Prometheus text exposition",
			"checkpoint": "POST arm on-demand checkpoint",
			"pprof":      "GET /debug/pprof/",
		})
	})
	mux.HandleFunc("/status", getJSON(func() any { return t.Status() }))
	mux.HandleFunc("/clients", getJSON(func() any { return t.Clients() }))
	mux.HandleFunc("/stragglers", getJSON(func() any { return t.Stragglers() }))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default().WritePrometheus(w) //nolint:errcheck // client hangup mid-scrape
	})
	mux.HandleFunc("/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			jsonError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		t.RequestCheckpoint()
		writeJSON(w, map[string]bool{"armed": true})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		// WriteTimeout bounds a stuck client without cutting off
		// /debug/pprof/profile?seconds=30 (or a 60s trace) mid-stream.
		WriteTimeout: 2 * time.Minute,
	}}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }

// registerRuntimeMetrics wires the pull-based collectors — process
// health and the default scheduler pool's counters — into the process
// registry. Idempotent across Serve calls.
var runtimeMetricsOnce sync.Once

func registerRuntimeMetrics() {
	runtimeMetricsOnce.Do(func() {
		r := obs.Default()
		obs.RegisterProcessMetrics(r)
		pool := sched.Default()
		r.CounterFunc("fedsim_sched_regions_total", "",
			"Parallel executor regions run to completion.",
			func() uint64 { return pool.Stats().Regions })
		r.CounterFunc("fedsim_sched_serial_total", "",
			"Executor submissions that ran inline on the caller.",
			func() uint64 { return pool.Stats().Serial })
		r.CounterFunc("fedsim_sched_items_total", "",
			"Work items executed by the shared executor.",
			func() uint64 { return pool.Stats().Items })
		r.GaugeFunc("fedsim_sched_workers", "",
			"Persistent executor worker goroutines spawned.",
			func() float64 { return float64(pool.Stats().Workers) })
	})
}

// requireGet enforces GET/HEAD on a read endpoint.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return false
	}
	return true
}

// getJSON wraps a snapshot function as a GET-only JSON endpoint.
func getJSON(fn func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		writeJSON(w, fn())
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client hangup mid-write
}

func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"error": msg,
		"code":  code,
	})
}
