package control_test

// PR 10 observability tests: the run-end lifecycle and trigger-clearing
// regressions, the hardened HTTP surface (method enforcement, JSON 404s,
// /metrics exposition, pprof handlers), and the flagship concurrency
// check — scraping /metrics, /status, and the journal flush while a real
// multi-round run is training (run under -race in CI).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"fedclust/internal/control"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/obs"
	"fedclust/internal/rng"
)

// TestTrackerRunStartClearsTrigger: a POST /checkpoint armed at the end
// of one run must not fire a spurious snapshot on round 1 of the next
// run sharing the tracker.
func TestTrackerRunStartClearsTrigger(t *testing.T) {
	tr := control.NewTracker(2)
	tr.RequestCheckpoint()
	tr.ObserveRunStart("FedAvg", 4, 3, 0)
	if tr.TakeTrigger() {
		t.Fatal("stale checkpoint trigger survived into the next run")
	}
}

// TestTrackerRunEndAbort: an aborted run must stop reporting
// running:true — the explicit run-end observation flips the lifecycle
// regardless of how far the round counter got.
func TestTrackerRunEndAbort(t *testing.T) {
	tr := control.NewTracker(2)
	tr.ObserveRunStart("FedAvg", 10, 3, 0)
	tr.ObserveRoundStart(0, 3)
	tr.ObserveRoundEnd(0, 3, &fl.CommStats{})
	if s := tr.Status(); !s.Running {
		t.Fatal("mid-run tracker not running")
	}
	tr.ObserveRunEnd(1, true)
	s := tr.Status()
	if s.Running {
		t.Error("aborted run still reports running")
	}
	if !s.Aborted || s.Round != 1 {
		t.Errorf("abort snapshot: %+v", s)
	}
	// A clean completion reports aborted:false.
	tr.ObserveRunStart("FedAvg", 2, 3, 0)
	tr.ObserveRunEnd(2, false)
	if s := tr.Status(); s.Running || s.Aborted {
		t.Errorf("completed snapshot: %+v", s)
	}
}

// TestTrackerPhases: phase observations surface in /status as the last
// round's breakdown plus a running total.
func TestTrackerPhases(t *testing.T) {
	tr := control.NewTracker(2)
	tr.ObserveRunStart("FedAvg", 2, 3, 0)
	tr.ObservePhases(0, fl.RoundPhases{LocalNS: 100, TotalNS: 120})
	tr.ObservePhases(1, fl.RoundPhases{LocalNS: 50, TotalNS: 60})
	s := tr.Status()
	if s.LastPhases.LocalNS != 50 || s.LastPhases.TotalNS != 60 {
		t.Errorf("last phases: %+v", s.LastPhases)
	}
	if s.PhaseTotals.LocalNS != 150 || s.PhaseTotals.TotalNS != 180 {
		t.Errorf("phase totals: %+v", s.PhaseTotals)
	}
	// A new run resets both.
	tr.ObserveRunStart("FedProx", 2, 3, 0)
	if s := tr.Status(); s.PhaseTotals.TotalNS != 0 || s.LastPhases.TotalNS != 0 {
		t.Errorf("phases survived a run start: %+v", s)
	}
}

// TestHTTPHardening: read endpoints refuse non-GET, unknown paths get a
// JSON 404, /metrics serves the exposition content type, and the pprof
// handlers answer.
func TestHTTPHardening(t *testing.T) {
	tr := control.NewTracker(2)
	observeRun(tr)
	srv, err := control.Serve("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	expectJSONError := func(resp *http.Response, wantCode int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("%s %s: got %s, want %d", resp.Request.Method, resp.Request.URL.Path, resp.Status, wantCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s error content type %q, want application/json", resp.Request.URL.Path, ct)
		}
		var e struct {
			Error string `json:"error"`
			Code  int    `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s error body not JSON: %v", resp.Request.URL.Path, err)
		} else if e.Code != wantCode || e.Error == "" {
			t.Errorf("%s error body: %+v", resp.Request.URL.Path, e)
		}
	}

	// Non-GET on every read endpoint → 405 JSON.
	for _, path := range []string{"/status", "/clients", "/stragglers", "/metrics"} {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		expectJSONError(resp, http.StatusMethodNotAllowed)
	}
	// Unknown path → 404 JSON, not the default HTML page.
	resp, err := http.Get(base + "/no/such/endpoint")
	if err != nil {
		t.Fatal(err)
	}
	expectJSONError(resp, http.StatusNotFound)

	// /metrics speaks the text exposition format.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	if !bytes.Contains(body, []byte("# TYPE ")) || !bytes.Contains(body, []byte("go_goroutines")) {
		t.Errorf("/metrics exposition incomplete:\n%s", body)
	}
	if !bytes.Contains(body, []byte("fedsim_sched_")) {
		t.Errorf("/metrics missing scheduler pull metrics:\n%s", body)
	}

	// pprof is mounted.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline: %s", resp.Status)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the journal writes from
// the driver goroutine while the test goroutine later reads the bytes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// smallEnv is a 6-client, 6-round workload small enough for a -race run.
func smallEnv(seed uint64) *fl.Env {
	cfg := data.SynthConfig{
		Name: "ctl4", C: 1, H: 8, W: 8, Classes: 4,
		TrainPerClass: 24, TestPerClass: 8,
		ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: seed,
	}
	train, test := data.Generate(cfg)
	clients, _ := fl.BuildGroupClients(train, test,
		[][]int{{0, 1}, {2, 3}}, []int{3, 3}, rng.New(seed))
	return &fl.Env{
		Clients:   clients,
		Factory:   func(fr *rng.Rng) *nn.Sequential { return nn.MLP(fr, 64, 16, 4) },
		Rounds:    6,
		Local:     fl.LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9},
		Seed:      seed,
		EvalEvery: 2,
		Workers:   3,
	}
}

// TestConcurrentScrapeWhileTraining is the flagship -race check: a real
// multi-round FedAvg run with the tracker and journal attached while
// scrapers hammer /metrics, /status, /clients, and /stragglers. After
// the run, the journal must reconcile with the control plane's snapshot.
func TestConcurrentScrapeWhileTraining(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)

	tr := control.NewTracker(2)
	sink := &syncBuffer{}
	journal := obs.NewJournal(sink, 2)

	srv, err := control.Serve("127.0.0.1:0", tr) // enables the telemetry gate
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	env := smallEnv(77)
	env.Observer = fl.MultiObserver(tr, journal)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/status", "/clients", "/stragglers"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(base + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %s", path, resp.Status)
					return
				}
			}
		}(path)
	}

	res := methods.FedAvg{}.Run(env)
	close(done)
	wg.Wait()

	s := tr.Status()
	if s.Running || s.Aborted || s.Round != env.Rounds {
		t.Errorf("post-run status: %+v", s)
	}
	if journal.Err() != nil {
		t.Fatalf("journal: %v", journal.Err())
	}
	events, _ := obs.ReadEvents(sink.bytes())
	var rounds, lastUp, lastDown int64
	var sawEnd bool
	for _, ev := range events {
		switch ev.Event {
		case "round":
			rounds++
			lastUp, lastDown = ev.UpBytes, ev.DownBytes
			if ev.Phases.TotalNS <= 0 {
				t.Errorf("round %d recorded no phase time: %+v", ev.Round, ev.Phases)
			}
		case "run_end":
			sawEnd = true
			if ev.Completed != env.Rounds || ev.Aborted {
				t.Errorf("run_end: %+v", ev)
			}
		}
	}
	if rounds != int64(env.Rounds) || !sawEnd {
		t.Fatalf("journal holds %d round events (want %d), run_end=%v", rounds, env.Rounds, sawEnd)
	}
	// The journal's final cumulative ledger is the /status ledger is the
	// run result's ledger.
	if lastUp != s.UpBytes || lastDown != s.DownBytes {
		t.Errorf("journal ledger (up %d, down %d) != status (up %d, down %d)", lastUp, lastDown, s.UpBytes, s.DownBytes)
	}
	if lastUp != res.Comm.UpBytes || lastDown != res.Comm.DownBytes {
		t.Errorf("journal ledger (up %d, down %d) != result (up %d, down %d)", lastUp, lastDown, res.Comm.UpBytes, res.Comm.DownBytes)
	}
}
