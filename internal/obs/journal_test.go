package obs_test

// Journal round-trip: the observer feed of a fabricated run must decode
// (ReadEvents) into events whose classification, cumulative ledger, and
// per-round deltas reconcile with what the Tracker the journal embeds
// reports for the same feed.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fedclust/internal/fl"
	"fedclust/internal/obs"
)

// feedRun drives j through a fabricated 2-round run mirroring the
// control-plane test fixture: one of every outcome class, an eval, a
// defense tally, a checkpoint, and phase timings. Each ledger carries the
// round's own PerRound entry, as the engine's EndRound leaves it.
func feedRun(j *obs.Journal) {
	j.ObserveRunStart("FedAvg", 4, 3, 2)
	j.ObserveRoundStart(2, 3)
	j.ObserveOutcome(0, 2, 0, false) // on time
	j.ObserveOutcome(1, 1, 0, false) // partial (1 of 2 epochs)
	j.ObserveOutcome(2, 2, 0, true)  // failed
	round3 := fl.RoundComm{Round: 3, UpBytes: 100, DownBytes: 200}
	j.ObserveRoundEnd(2, 2, &fl.CommStats{UpBytes: 100, DownBytes: 200, MeasuredUp: 60, MeasuredDown: 120,
		PerRound: []fl.RoundComm{round3}})
	j.ObserveEval(2, 0.5, 1.25)
	j.ObservePhases(2, fl.RoundPhases{SampleNS: 10, LocalNS: 1000, TotalNS: 1100})
	j.ObserveRoundStart(3, 3)
	j.ObserveOutcome(0, 2, 1, false)  // late
	j.ObserveOutcome(1, 0, -1, false) // offline
	j.ObserveOutcome(2, 2, 0, false)  // on time
	j.ObserveDefense(3, 1, 2)
	j.ObserveRoundEnd(3, 3, &fl.CommStats{UpBytes: 300, DownBytes: 400, MeasuredUp: 180, MeasuredDown: 240,
		PerRound: []fl.RoundComm{round3, {Round: 4, UpBytes: 200, DownBytes: 200}}})
	j.ObserveCheckpoint(4)
	j.ObservePhases(3, fl.RoundPhases{LocalNS: 900, CheckpointNS: 50, TotalNS: 1000})
	j.ObserveRunEnd(4, false)
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, 2)
	feedRun(j)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	events, _ := obs.ReadEvents(buf.Bytes())
	if len(events) != 4 {
		t.Fatalf("got %d events, want run_start + 2 rounds + run_end:\n%+v", len(events), events)
	}

	rs := events[0]
	if rs.Event != "run_start" || rs.Method != "FedAvg" || rs.TotalRounds != 4 || rs.NClients != 3 || rs.StartRound != 2 {
		t.Errorf("run_start: %+v", rs)
	}
	if rs.TS == "" {
		t.Error("run_start carries no timestamp")
	}

	r1 := events[1]
	if r1.Event != "round" || r1.Round != 3 { // 1-based, matches /status
		t.Errorf("first round event: %+v", r1)
	}
	if r1.Invited != 3 || r1.Reported != 2 ||
		r1.OnTime != 1 || r1.Partial != 1 || r1.Failed != 1 || r1.Late != 0 || r1.Offline != 0 {
		t.Errorf("round 1 classification: %+v", r1)
	}
	if r1.UpBytes != 100 || r1.UpDelta != 100 || r1.DownBytes != 200 || r1.DownDelta != 200 {
		t.Errorf("round 1 ledger: %+v", r1)
	}
	if r1.EvalRound != 2 || r1.MeanAcc != 0.5 || r1.MeanLoss != 1.25 {
		t.Errorf("round 1 eval: %+v", r1)
	}
	if r1.Phases.LocalNS != 1000 || r1.Phases.TotalNS != 1100 {
		t.Errorf("round 1 phases: %+v", r1.Phases)
	}
	if r1.Checkpoint {
		t.Error("round 1 flagged a checkpoint that fired in round 2")
	}

	r2 := events[2]
	if r2.Round != 4 || r2.OnTime != 1 || r2.Late != 1 || r2.Offline != 1 {
		t.Errorf("round 2 classification: %+v", r2)
	}
	if r2.Masked != 1 || r2.Suspects != 2 {
		t.Errorf("round 2 defense: %+v", r2)
	}
	// Cumulative mirrors the ledger, deltas are per round.
	if r2.UpBytes != 300 || r2.UpDelta != 200 || r2.DownBytes != 400 || r2.DownDelta != 200 {
		t.Errorf("round 2 ledger: %+v", r2)
	}
	if !r2.Checkpoint {
		t.Error("round 2 lost its checkpoint flag")
	}
	if r2.EvalRound != -1 {
		t.Errorf("round 2 eval_round = %d, want -1 (no eval)", r2.EvalRound)
	}

	re := events[3]
	if re.Event != "run_end" || re.Completed != 4 || re.Aborted {
		t.Errorf("run_end: %+v", re)
	}
}

// TestJournalMultipleRuns: a second ObserveRunStart resets the per-run
// state, so one journal file can hold a whole method sweep.
func TestJournalMultipleRuns(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, 2)
	feedRun(j)
	feedRun(j)
	events, _ := obs.ReadEvents(buf.Bytes())
	if len(events) != 8 {
		t.Fatalf("got %d events, want 8", len(events))
	}
	// The second run's first round must restart the delta baseline.
	r := events[5]
	if r.Event != "round" || r.UpBytes != 100 || r.UpDelta != 100 {
		t.Errorf("second run round 1: %+v", r)
	}
	if events[7].Event != "run_end" {
		t.Errorf("second run missing run_end: %+v", events[7])
	}
}

func TestJournalRunEndOnce(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf, 0)
	j.ObserveRunStart("FedAvg", 2, 3, 0)
	j.ObserveRunEnd(1, true)
	j.ObserveRunEnd(1, true) // engine's deferred observation may double-fire on panic paths
	events, _ := obs.ReadEvents(buf.Bytes())
	if len(events) != 2 || events[1].Event != "run_end" || !events[1].Aborted || events[1].Completed != 1 {
		t.Fatalf("events: %+v", events)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestJournalQuietAfterError: a write error must never take training
// down — the journal records the first error and goes quiet.
func TestJournalQuietAfterError(t *testing.T) {
	j := obs.NewJournal(&failWriter{n: 1}, 2)
	feedRun(j) // first write lands, the rest fail silently
	if err := j.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Err() = %v, want the write error", err)
	}
}

// TestReadEventsBadLine: a line that does not parse is skipped and a
// torn final line is left unconsumed, so a follower reading a live
// journal picks it up once the writer finishes it.
func TestReadEventsBadLine(t *testing.T) {
	done := `{"event":"run_start"}` + "\n" + `{"event":` + "\n" + `{"event":"run_end"}` + "\n"
	events, consumed := obs.ReadEvents([]byte(done + `{"event":"rou`))
	if len(events) != 2 || events[0].Event != "run_start" || events[1].Event != "run_end" {
		t.Fatalf("events = %+v, want run_start and run_end around the bad line", events)
	}
	if consumed != len(done) {
		t.Fatalf("consumed %d bytes, want %d (through the last newline)", consumed, len(done))
	}
}
