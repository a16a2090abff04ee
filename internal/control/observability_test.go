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
	"math"
	"net/http"
	"strconv"
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
	tr := obs.NewTracker(2)
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
	tr := obs.NewTracker(2)
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
	tr := obs.NewTracker(2)
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
	tr := obs.NewTracker(2)
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
// multi-round FedAvg run observed by a journal while scrapers hammer
// /metrics, /status, /clients, and /stragglers of the tracker it embeds.
// After the run, the journal must reconcile with the control plane's
// snapshot.
func TestConcurrentScrapeWhileTraining(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)

	sink := &syncBuffer{}
	journal := obs.NewJournal(sink, 2)
	tr := &journal.Tracker

	srv, err := control.Serve("127.0.0.1:0", tr) // enables the telemetry gate
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	env := smallEnv(77)
	env.Observer = journal

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

// faultyWorld drops client 1 every round and replaces client 0's uplink
// with NaN, so a run moves every round series: fewer reports than
// invitations, a masked uplink per round, and — behind a trimmed mean —
// excluded suspects.
type faultyWorld struct{}

func (faultyWorld) Outcome(client, round, epochs int) (done, lag int) {
	if client == 1 {
		return 0, -1
	}
	return epochs, 0
}
func (faultyWorld) TrainData(_, _ int, base *data.Dataset) *data.Dataset { return base }
func (faultyWorld) CorruptUpdate(client, _ int, out, _ []float64) bool {
	if client != 0 {
		return false
	}
	for j := range out {
		out[j] = math.NaN()
	}
	return true
}
func (faultyWorld) Fingerprint() uint64 { return 0xfa17 }

// scrape reads /metrics into its samples, keyed by series
// ("name{labels}"), plus the raw exposition.
func scrape(t *testing.T, base string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples, string(body)
}

// TestMetricsMirrorTrackerStatus: with the gate up, a tracker observing a
// run that checkpoints feeds the seven round series of /metrics, and
// every one of them agrees with the tracker's own Status — counts,
// gauges, and per-phase histogram counts and sums.
func TestMetricsMirrorTrackerStatus(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	tr := obs.NewTracker(2)
	srv, err := control.Serve("127.0.0.1:0", tr) // enables the telemetry gate
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	env := smallEnv(41)
	env.Observer = tr
	env.Participation.Scenario = faultyWorld{}
	env.Aggregator = &fl.TrimmedMean{Frac: 0.35}
	env.Ckpt = &fl.CheckpointPlan{Every: 2, Sink: func(*fl.Checkpoint) {}}

	before, _ := scrape(t, base)
	methods.FedAvg{}.Run(env)
	after, body := scrape(t, base)
	s := tr.Status()
	if s.Round != env.Rounds || s.Checkpoints == 0 || s.MaskedTotal == 0 || s.SuspectsTotal == 0 || s.Reported >= s.Invited {
		t.Fatalf("workload leaves a series still: %+v", s)
	}
	delta := func(key string) float64 {
		v, ok := after[key]
		if !ok {
			t.Errorf("/metrics has no %s", key)
		}
		return v - before[key]
	}
	for _, c := range []struct {
		key  string
		want int
	}{
		{"fedsim_rounds_total", s.Round},
		{"fedsim_checkpoints_total", s.Checkpoints},
		{"fedsim_masked_uplinks_total", s.MaskedTotal},
		{"fedsim_defense_suspects_total", s.SuspectsTotal},
	} {
		if got := delta(c.key); got != float64(c.want) {
			t.Errorf("%s advanced by %v, status says %d", c.key, got, c.want)
		}
	}
	for _, c := range []struct {
		key  string
		want int
	}{{"fedsim_round_invited", s.Invited}, {"fedsim_round_reported", s.Reported}} {
		if got := after[c.key]; got != float64(c.want) {
			t.Errorf("%s = %v, status says %d", c.key, got, c.want)
		}
	}
	evals := 0
	for r := 0; r < env.Rounds; r++ {
		if env.ShouldEval(r) {
			evals++
		}
	}
	pt := s.PhaseTotals
	for _, c := range []struct {
		phase string
		count int
		ns    int64
	}{
		{"sample", s.Round, pt.SampleNS},
		{"broadcast", s.Round, pt.BroadcastNS},
		{"local", s.Round, pt.LocalNS},
		{"combine", s.Round, pt.CombineNS},
		{"eval", evals, pt.EvalNS},
		{"checkpoint", s.Checkpoints, pt.CheckpointNS},
		{"total", s.Round, pt.TotalNS},
	} {
		series := `{phase="` + c.phase + `"}`
		if got := delta("fedsim_round_phase_seconds_count" + series); got != float64(c.count) {
			t.Errorf("%s phase: %v observations, want %d", c.phase, got, c.count)
		}
		if got, want := delta("fedsim_round_phase_seconds_sum"+series), float64(c.ns)/1e9; math.Abs(got-want) > 1e-6 {
			t.Errorf("%s phase: %vs observed, status totals %vs", c.phase, got, want)
		}
	}
	for _, help := range []string{
		"# HELP fedsim_round_phase_seconds Wall-clock seconds spent per round lifecycle phase.",
		"# HELP fedsim_rounds_total Completed federation rounds.",
		"# HELP fedsim_checkpoints_total Checkpoints handed to the sink.",
		"# HELP fedsim_masked_uplinks_total Uplinks dropped for non-finite values.",
		"# HELP fedsim_defense_suspects_total Inputs excluded by the robust aggregator.",
		"# HELP fedsim_round_invited Clients invited in the most recent round.",
		"# HELP fedsim_round_reported Updates that reached the server in the most recent round.",
	} {
		if !strings.Contains(body, help+"\n") {
			t.Errorf("/metrics lacks %q", help)
		}
	}
}
