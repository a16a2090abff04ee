package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"fedclust/internal/fl"
)

// Event is one decoded journal line. The journal writes three kinds:
// "run_start" (method and run shape), "round" (one per completed round:
// outcome counts, defense tallies, cumulative and delta traffic, eval,
// checkpoint flag, phase durations), and "run_end" (completed rounds and
// whether the run aborted). Cumulative byte fields are the /status
// fields of the Tracker the journal embeds, so a journal's last round
// event is the control plane's snapshot.
type Event struct {
	Event string `json:"event"`
	TS    string `json:"ts"`

	// run_start fields.
	Method      string `json:"method,omitempty"`
	TotalRounds int    `json:"total_rounds,omitempty"`
	NClients    int    `json:"n_clients,omitempty"`
	StartRound  int    `json:"start_round,omitempty"`

	// round fields. Round is the completed-round ordinal (1-based, to
	// match /status "round"). Outcome counts classify this round's
	// invited clients, tallied by the journal's own Tracker.
	Round    int `json:"round,omitempty"`
	Invited  int `json:"invited,omitempty"`
	Reported int `json:"reported,omitempty"`
	OnTime   int `json:"on_time,omitempty"`
	Partial  int `json:"partial,omitempty"`
	Late     int `json:"late,omitempty"`
	Offline  int `json:"offline,omitempty"`
	Failed   int `json:"failed,omitempty"`
	Masked   int `json:"masked,omitempty"`
	Suspects int `json:"suspects,omitempty"`

	// Cumulative traffic ledger (matches /status) and this round's deltas.
	UpBytes      int64 `json:"up_bytes,omitempty"`
	DownBytes    int64 `json:"down_bytes,omitempty"`
	MeasuredUp   int64 `json:"measured_up_bytes,omitempty"`
	MeasuredDown int64 `json:"measured_down_bytes,omitempty"`
	UpDelta      int64 `json:"up_delta,omitempty"`
	DownDelta    int64 `json:"down_delta,omitempty"`

	// EvalRound is -1 on rounds that did not evaluate.
	EvalRound int     `json:"eval_round"`
	MeanAcc   float64 `json:"mean_acc,omitempty"`
	MeanLoss  float64 `json:"mean_loss,omitempty"`

	Checkpoint bool           `json:"checkpoint,omitempty"`
	Phases     fl.RoundPhases `json:"phases,omitempty"`

	// run_end fields.
	Completed int  `json:"completed,omitempty"`
	Aborted   bool `json:"aborted,omitempty"`
}

// Journal is a Tracker that appends one JSONL event per run start,
// completed round and run end to a writer, leaving an analyzable trace on
// disk for long runs. The embedded Tracker accumulates every observation;
// the journal keeps only its writer state and, for a resumed run, the
// ledger its first round's delta is taken from. ObservePhases is the
// round's closing observation, so the round event carries everything the
// round accumulated (eval and checkpoint fire before it).
//
// The per-round hot path is allocation-free once warm: events are
// hand-appended (strconv) into a reused buffer and written with a single
// Write. Observations arrive on the driver goroutine, so each line reads
// the state the Tracker has just folded; it is written under the
// Tracker's lock, which also guards Err and Close from other goroutines.
type Journal struct {
	Tracker
	w      io.Writer
	closer io.Closer
	buf    []byte
	err    error
	ended  bool

	// The cumulative ledger the next round's delta is taken from; a
	// resumed run sets it from its first round's own PerRound entry.
	prevUp, prevDown int64
	baselined        bool
}

// NewJournal returns a journal writing JSONL events to w. localEpochs is
// the configured full local pass, used to classify on-time-but-short
// deliveries as partial (0 merges partial into on-time, as NewTracker
// does). If w is also an io.Closer, Close closes it.
func NewJournal(w io.Writer, localEpochs int) *Journal {
	j := &Journal{Tracker: Tracker{epochs: localEpochs}, w: w, buf: make([]byte, 0, 1024)}
	if c, ok := w.(io.Closer); ok {
		j.closer = c
	}
	return j
}

// Err returns the first write error, if any. The journal goes quiet
// after an error rather than failing the run: telemetry must never take
// training down.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close writes nothing further and closes the underlying writer when it
// is closable. Safe to call after ObserveRunEnd.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closer != nil {
		err := j.closer.Close()
		j.closer = nil
		if j.err == nil {
			j.err = err
		}
		return err
	}
	return j.err
}

// ObserveRunStart implements fl.RoundObserver.
func (j *Journal) ObserveRunStart(method string, totalRounds, nClients, startRound int) {
	j.Tracker.ObserveRunStart(method, totalRounds, nClients, startRound)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ended = false
	j.prevUp, j.prevDown, j.baselined = 0, 0, startRound == 0
	j.buf = j.buf[:0]
	j.buf = append(j.buf, `{"event":"run_start","ts":"`...)
	j.buf = appendTS(j.buf)
	j.buf = append(j.buf, `","method":`...)
	j.buf = appendJSONString(j.buf, method)
	j.buf = append(j.buf, `,"total_rounds":`...)
	j.buf = strconv.AppendInt(j.buf, int64(totalRounds), 10)
	j.buf = append(j.buf, `,"n_clients":`...)
	j.buf = strconv.AppendInt(j.buf, int64(nClients), 10)
	j.buf = append(j.buf, `,"start_round":`...)
	j.buf = strconv.AppendInt(j.buf, int64(startRound), 10)
	j.buf = append(j.buf, "}\n"...)
	j.flushLocked()
}

// ObserveRoundEnd implements fl.RoundObserver. A resumed run's restored
// ledger already holds every pre-checkpoint byte, so its first delta is
// taken from the ledger before this round's own PerRound entry.
func (j *Journal) ObserveRoundEnd(round, reported int, comm *fl.CommStats) {
	j.Tracker.ObserveRoundEnd(round, reported, comm)
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := len(comm.PerRound); !j.baselined && n > 0 {
		j.prevUp, j.prevDown = comm.UpBytes-comm.PerRound[n-1].UpBytes, comm.DownBytes-comm.PerRound[n-1].DownBytes
	}
	j.baselined = true
}

// ObservePhases implements fl.PhaseObserver: the closing observation of
// each round, where the round event is written.
func (j *Journal) ObservePhases(round int, phases fl.RoundPhases) {
	j.Tracker.ObservePhases(round, phases)
	j.mu.Lock()
	defer j.mu.Unlock()
	s, c := &j.status, &j.round
	b := j.buf[:0]
	b = append(b, `{"event":"round","ts":"`...)
	b = appendTS(b)
	b = append(b, `","round":`...)
	b = strconv.AppendInt(b, int64(round+1), 10)
	b = appendIntField(b, "invited", s.Invited)
	b = appendIntField(b, "reported", s.Reported)
	b = appendIntField(b, "on_time", c.OnTime)
	b = appendIntField(b, "partial", c.Partial)
	b = appendIntField(b, "late", c.Late)
	b = appendIntField(b, "offline", c.Offline)
	b = appendIntField(b, "failed", c.Failed)
	b = appendIntField(b, "masked", s.MaskedLast)
	b = appendIntField(b, "suspects", s.SuspectsLast)
	b = appendInt64Field(b, "up_bytes", s.UpBytes)
	b = appendInt64Field(b, "down_bytes", s.DownBytes)
	b = appendInt64Field(b, "measured_up_bytes", s.MeasuredUp)
	b = appendInt64Field(b, "measured_down_bytes", s.MeasuredDown)
	b = appendInt64Field(b, "up_delta", s.UpBytes-j.prevUp)
	b = appendInt64Field(b, "down_delta", s.DownBytes-j.prevDown)
	if j.evaluated {
		b = appendIntField(b, "eval_round", s.EvalRound)
		b = append(b, `,"mean_acc":`...)
		b = strconv.AppendFloat(b, s.MeanAcc, 'g', -1, 64)
		b = append(b, `,"mean_loss":`...)
		b = strconv.AppendFloat(b, s.MeanLoss, 'g', -1, 64)
	} else {
		b = appendIntField(b, "eval_round", -1)
	}
	if j.checkpointed {
		b = append(b, `,"checkpoint":true`...)
	}
	b = append(b, `,"phases":{`...)
	b = appendPhase(b, `"sample_ns":`, phases.SampleNS)
	b = appendPhase(b, `,"broadcast_ns":`, phases.BroadcastNS)
	b = appendPhase(b, `,"local_ns":`, phases.LocalNS)
	b = appendPhase(b, `,"combine_ns":`, phases.CombineNS)
	b = appendPhase(b, `,"eval_ns":`, phases.EvalNS)
	b = appendPhase(b, `,"checkpoint_ns":`, phases.CheckpointNS)
	b = appendPhase(b, `,"total_ns":`, phases.TotalNS)
	b = append(b, "}}\n"...)
	j.buf = b
	j.prevUp, j.prevDown = s.UpBytes, s.DownBytes
	j.flushLocked()
}

// ObserveRunEnd implements fl.RunEndObserver.
func (j *Journal) ObserveRunEnd(completed int, aborted bool) {
	j.Tracker.ObserveRunEnd(completed, aborted)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ended {
		return
	}
	j.ended = true
	b := j.buf[:0]
	b = append(b, `{"event":"run_end","ts":"`...)
	b = appendTS(b)
	b = append(b, `","eval_round":-1,"completed":`...)
	b = strconv.AppendInt(b, int64(completed), 10)
	if aborted {
		b = append(b, `,"aborted":true`...)
	}
	b = append(b, "}\n"...)
	j.buf = b
	j.flushLocked()
}

func (j *Journal) flushLocked() {
	if j.err != nil || j.w == nil {
		return
	}
	if _, err := j.w.Write(j.buf); err != nil {
		j.err = err
	}
}

func appendTS(b []byte) []byte {
	return time.Now().UTC().AppendFormat(b, time.RFC3339Nano)
}

func appendIntField(b []byte, name string, v int) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(v), 10)
}

func appendInt64Field(b []byte, name string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

func appendPhase(b []byte, prefix string, v int64) []byte {
	b = append(b, prefix...)
	return strconv.AppendInt(b, v, 10)
}

// appendJSONString appends s as a JSON string literal with the common
// escapes (method names are plain, but the journal escapes anyway).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"':
			b = append(b, `\"`...)
		case r == '\\':
			b = append(b, `\\`...)
		case r == '\n':
			b = append(b, `\n`...)
		case r == '\t':
			b = append(b, `\t`...)
		case r < 0x20:
			b = append(b, fmt.Sprintf(`\u%04x`, r)...)
		default:
			b = append(b, string(r)...)
		}
	}
	return append(b, '"')
}

// ReadEvents decodes the complete lines of a JSONL journal, returning
// the events and the bytes consumed (through the last newline). A torn
// final line is left unconsumed and a line that does not parse is
// skipped: a reader following a live writer must keep up with it, and a
// journal can outlive a schema change.
func ReadEvents(buf []byte) ([]Event, int) {
	var out []Event
	consumed := 0
	for {
		nl := bytes.IndexByte(buf[consumed:], '\n')
		if nl < 0 {
			return out, consumed
		}
		line := buf[consumed : consumed+nl]
		consumed += nl + 1
		var ev Event
		if json.Unmarshal(line, &ev) == nil {
			out = append(out, ev)
		}
	}
}

var (
	_ fl.RoundObserver   = (*Journal)(nil)
	_ fl.DefenseObserver = (*Journal)(nil)
	_ fl.PhaseObserver   = (*Journal)(nil)
	_ fl.RunEndObserver  = (*Journal)(nil)
)
