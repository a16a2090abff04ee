package control_test

// Control-plane tests: obs.Tracker's observer → snapshot bookkeeping
// (outcome classification, traffic split, straggler histograms) and the
// HTTP surface over real sockets — GET endpoints serving live JSON and
// POST /checkpoint arming the engine-facing trigger exactly once.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"fedclust/internal/control"
	"fedclust/internal/fl"
	"fedclust/internal/obs"
)

// observeRun feeds the tracker a small fabricated run: 3 clients, 2
// rounds, one of everything (on-time, partial, late, offline, failure).
func observeRun(tr *obs.Tracker) {
	tr.ObserveRunStart("FedAvg", 4, 3, 2) // resumed at round 2 of 4
	tr.ObserveRoundStart(2, 3)
	tr.ObserveOutcome(0, 2, 0, false) // full pass, on time
	tr.ObserveOutcome(1, 1, 0, false) // straggler: 1 of 2 epochs
	tr.ObserveOutcome(2, 2, 0, true)  // transport failure
	tr.ObserveRoundEnd(2, 2, &fl.CommStats{UpBytes: 100, DownBytes: 200, MeasuredUp: 60, MeasuredDown: 120})
	tr.ObserveEval(2, 0.5, 1.25)
	tr.ObserveRoundStart(3, 3)
	tr.ObserveOutcome(0, 2, 1, false)  // late by one round
	tr.ObserveOutcome(1, 0, -1, false) // offline
	tr.ObserveOutcome(2, 2, 0, false)
	tr.ObserveRoundEnd(3, 3, &fl.CommStats{UpBytes: 300, DownBytes: 400, MeasuredUp: 180, MeasuredDown: 240})
	tr.ObserveCheckpoint(4)
}

func TestTrackerClassifiesOutcomes(t *testing.T) {
	tr := obs.NewTracker(2)
	observeRun(tr)

	s := tr.Status()
	if s.Method != "FedAvg" || s.Round != 4 || s.TotalRounds != 4 || s.StartRound != 2 {
		t.Errorf("round progress: %+v", s)
	}
	if s.Running {
		t.Error("final round completed but still running")
	}
	if s.UpBytes != 300 || s.MeasuredUp != 180 || s.DownBytes != 400 || s.MeasuredDown != 240 {
		t.Errorf("traffic: %+v", s)
	}
	if s.EvalRound != 2 || s.MeanAcc != 0.5 || s.MeanLoss != 1.25 {
		t.Errorf("eval snapshot: %+v", s)
	}
	if s.Checkpoints != 1 {
		t.Errorf("checkpoints: %d", s.Checkpoints)
	}

	c := tr.Clients()
	want := []fl.OutcomeCounts{
		{OnTime: 1, Late: 1},
		{Partial: 1, Offline: 1},
		{OnTime: 1, Failed: 1},
	}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("client %d: got %+v want %+v", i, c[i], want[i])
		}
	}

	h := tr.Stragglers()
	// Lag histogram covers delivered updates only: 3 on-time (client 0
	// r2, client 2 r3, plus partial client 1 r2), 1 late by one.
	if len(h.Lag) != 2 || h.Lag[0] != 3 || h.Lag[1] != 1 {
		t.Errorf("lag histogram: %v", h.Lag)
	}
	if h.Offline != 2 { // one failure + one dropout
		t.Errorf("offline count: %d", h.Offline)
	}
	// Done-epoch histogram: client 1's partial pass completed 1 epoch,
	// four full passes completed 2, one offline completed 0 — the failed
	// round still counts its completed epochs (the work happened, the
	// update was lost).
	if len(h.DoneEpochs) != 3 || h.DoneEpochs[0] != 1 || h.DoneEpochs[1] != 1 || h.DoneEpochs[2] != 4 {
		t.Errorf("done-epoch histogram: %v", h.DoneEpochs)
	}
}

func TestTrackerTrigger(t *testing.T) {
	tr := obs.NewTracker(0)
	if tr.TakeTrigger() {
		t.Fatal("fresh tracker has an armed trigger")
	}
	tr.RequestCheckpoint()
	if !tr.TakeTrigger() {
		t.Fatal("armed trigger not taken")
	}
	if tr.TakeTrigger() {
		t.Fatal("trigger fired twice off one request")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	tr := obs.NewTracker(2)
	observeRun(tr)
	srv, err := control.Serve("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s content type %q", path, ct)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s decode: %v", path, err)
		}
	}

	var s obs.Status
	getJSON("/status", &s)
	if s.Method != "FedAvg" || s.Round != 4 || s.MeasuredUp != 180 {
		t.Errorf("/status: %+v", s)
	}
	var clients []fl.OutcomeCounts
	getJSON("/clients", &clients)
	if len(clients) != 3 || clients[0].OnTime != 1 {
		t.Errorf("/clients: %+v", clients)
	}
	var h obs.Stragglers
	getJSON("/stragglers", &h)
	if h.Offline != 2 {
		t.Errorf("/stragglers: %+v", h)
	}

	// POST /checkpoint arms the trigger; GET must be refused.
	resp, err := http.Get(base + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /checkpoint: %s, want 405", resp.Status)
	}
	if tr.TakeTrigger() {
		t.Fatal("rejected GET armed the trigger")
	}
	resp, err = http.Post(base+"/checkpoint", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	var armed map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&armed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !armed["armed"] || !tr.TakeTrigger() {
		t.Fatalf("POST /checkpoint did not arm the trigger (%v)", armed)
	}
}

// TestTrackerIsARoundObserver pins the interface wiring the cmd layer
// relies on (env.Observer = tracker).
func TestTrackerIsARoundObserver(t *testing.T) {
	var obs fl.RoundObserver = obs.NewTracker(1)
	if fmt.Sprintf("%T", obs) != "*obs.Tracker" {
		t.Fatalf("unexpected observer type %T", obs)
	}
}
