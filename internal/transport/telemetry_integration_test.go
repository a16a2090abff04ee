package transport_test

// The telemetry acceptance check: a 3-node TCP run with a journal attached
// must leave a JSONL trace that reconstructs the same round, byte, and
// outcome totals as the /status of the tracker it embeds — and
// the per-node transport metrics must account for every request the run
// issued.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"fedclust/internal/methods"
	"fedclust/internal/obs"
	"fedclust/internal/transport"
	"fedclust/internal/wire"
)

// lockedBuffer lets the test read the journal bytes after the run
// without racing a late flush.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func TestTCPThreeNodeJournalMatchesStatus(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(true)

	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec := goldenSpec(77)
	specBytes, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wait := startNodes(t, coord.Addr(), 3)
	nodes, err := coord.AcceptNodes(3, 6, specBytes, wire.Float64, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	env := buildGolden(t, 77)
	fleet := transport.FleetOf(len(env.Clients), nodes)
	env.Remote = fleet

	reqBefore := nodeCounter("fedsim_transport_requests_total")
	upBefore := nodeCounter("fedsim_transport_up_bytes_total")
	downBefore := nodeCounter("fedsim_transport_down_bytes_total")

	sink := &lockedBuffer{}
	journal := obs.NewJournal(sink, env.Local.Epochs)
	tracker := &journal.Tracker
	env.Observer = journal

	res := methods.FedAvg{}.Run(env)
	if err := fleet.Close(); err != nil {
		t.Errorf("fleet close: %v", err)
	}
	wait()
	if err := journal.Err(); err != nil {
		t.Fatal(err)
	}

	// /status and the run result agree on the ledger.
	s := tracker.Status()
	if s.Running || s.Aborted || s.Round != env.Rounds {
		t.Errorf("post-run status: %+v", s)
	}
	if s.UpBytes != res.Comm.UpBytes || s.MeasuredUp != res.Comm.MeasuredUp {
		t.Errorf("status ledger (up %d, measured %d) != result (up %d, measured %d)",
			s.UpBytes, s.MeasuredUp, res.Comm.UpBytes, res.Comm.MeasuredUp)
	}

	// The journal reconstructs the same round/byte/outcome totals.
	events, _ := obs.ReadEvents(sink.snapshot())
	var rounds, onTime, offline, failed int
	var lastUp, lastDown, lastMUp, lastMDown, sumUpDelta int64
	sawEnd := false
	for _, ev := range events {
		switch ev.Event {
		case "round":
			rounds++
			onTime += ev.OnTime
			offline += ev.Offline
			failed += ev.Failed
			lastUp, lastDown = ev.UpBytes, ev.DownBytes
			lastMUp, lastMDown = ev.MeasuredUp, ev.MeasuredDown
			sumUpDelta += ev.UpDelta
		case "run_end":
			sawEnd = true
			if ev.Completed != env.Rounds || ev.Aborted {
				t.Errorf("run_end: %+v", ev)
			}
		}
	}
	if rounds != env.Rounds || !sawEnd {
		t.Fatalf("journal: %d round events (want %d), run_end=%v", rounds, env.Rounds, sawEnd)
	}
	if lastUp != s.UpBytes || lastDown != s.DownBytes || lastMUp != s.MeasuredUp || lastMDown != s.MeasuredDown {
		t.Errorf("journal ledger (up %d, down %d, mup %d, mdown %d) != status (up %d, down %d, mup %d, mdown %d)",
			lastUp, lastDown, lastMUp, lastMDown, s.UpBytes, s.DownBytes, s.MeasuredUp, s.MeasuredDown)
	}
	if sumUpDelta != lastUp {
		t.Errorf("per-round up deltas sum to %d, cumulative says %d", sumUpDelta, lastUp)
	}
	// Outcome totals: every client delivered every round on a healthy
	// localhost fleet, and the per-client counts agree.
	if want := env.Rounds * len(env.Clients); onTime != want || offline != 0 || failed != 0 {
		t.Errorf("journal outcomes: on_time %d offline %d failed %d, want %d/0/0", onTime, offline, failed, want)
	}
	var trackerOnTime int
	for _, c := range tracker.Clients() {
		trackerOnTime += c.OnTime
	}
	if trackerOnTime != onTime {
		t.Errorf("tracker counts %d on-time deliveries, journal %d", trackerOnTime, onTime)
	}

	// Per-node transport metrics: all three nodes register under
	// node="node" (the test nodes share a name), so the series
	// accumulates every Train request of the run — one per client visit —
	// and the measured byte counters equal the run's measured ledger.
	if got, want := nodeCounter("fedsim_transport_requests_total")-reqBefore,
		float64(env.Rounds*len(env.Clients)); got != want {
		t.Errorf("transport requests metric %v, want %v", got, want)
	}
	if got := nodeCounter("fedsim_transport_up_bytes_total") - upBefore; got != float64(res.Comm.MeasuredUp) {
		t.Errorf("transport up-bytes metric %v, want %d", got, res.Comm.MeasuredUp)
	}
	if got := nodeCounter("fedsim_transport_down_bytes_total") - downBefore; got != float64(res.Comm.MeasuredDown) {
		t.Errorf("transport down-bytes metric %v, want %d", got, res.Comm.MeasuredDown)
	}
}

// nodeCounter reads the default registry's counter name{node="node"}.
func nodeCounter(name string) float64 {
	return float64(obs.Default().Counter(name, obs.Label("node", "node"), "").Value())
}
