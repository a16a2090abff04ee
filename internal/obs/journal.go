package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"fedclust/internal/fl"
)

// Event is one decoded journal line. The journal writes three kinds:
// "run_start" (method and run shape), "round" (one per completed round:
// outcome counts, defense tallies, cumulative and delta traffic, eval,
// checkpoint flag, phase durations), and "run_end" (completed rounds and
// whether the run aborted). Cumulative byte fields mirror /status
// exactly, so a journal's last round event must agree with the control
// plane's snapshot.
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
	// invited clients the same way the control tracker does.
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

// Journal is an fl.RoundObserver that appends one JSONL event per round
// to a writer, leaving an analyzable trace on disk for long runs. It
// implements the Defense/Phase/RunEnd extensions; ObservePhases is the
// round's closing observation, so the round event carries everything the
// earlier observations accumulated (including eval and checkpoint, which
// fire before it).
//
// The per-round hot path is allocation-free once warm: events are
// hand-appended (strconv) into a reused buffer and written with a single
// Write. Calls arrive on the driver goroutine between phases; the mutex
// only guards against concurrent Flush/Close from other goroutines.
type Journal struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	epochs int
	buf    []byte
	err    error

	// run state
	method      string
	totalRounds int
	nClients    int
	startRound  int
	ended       bool

	// per-round scratch, reset after each round event
	invited, reported     int
	onTime, partial, late int
	offline, failed       int
	masked, suspects      int
	evalRound             int
	evalAcc, evalLoss     float64
	ckptThisRound         bool
	up, down, mup, mdown  int64
	prevUp, prevDown      int64
}

// NewJournal returns a journal writing JSONL events to w. localEpochs is
// the configured full local pass, used to classify on-time-but-short
// deliveries as partial (0 merges partial into on-time, matching
// control.NewTracker). If w is also an io.Closer, Close closes it.
func NewJournal(w io.Writer, localEpochs int) *Journal {
	j := &Journal{w: w, epochs: localEpochs, evalRound: -1}
	j.buf = make([]byte, 0, 1024)
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
	j.mu.Lock()
	defer j.mu.Unlock()
	j.method, j.totalRounds, j.nClients, j.startRound = method, totalRounds, nClients, startRound
	j.ended = false
	j.resetRound()
	j.prevUp, j.prevDown = 0, 0
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

// ObserveRoundStart implements fl.RoundObserver.
func (j *Journal) ObserveRoundStart(round, invited int) {
	j.mu.Lock()
	j.invited = invited
	j.mu.Unlock()
}

// ObserveOutcome implements fl.RoundObserver, classifying like the
// control tracker so journal totals reconcile with /clients.
func (j *Journal) ObserveOutcome(client, done, lag int, failed bool) {
	j.mu.Lock()
	switch {
	case failed:
		j.failed++
	case lag < 0 || done <= 0:
		j.offline++
	case lag > 0:
		j.late++
	case j.epochs > 0 && done < j.epochs:
		j.partial++
	default:
		j.onTime++
	}
	j.mu.Unlock()
}

// ObserveDefense implements fl.DefenseObserver.
func (j *Journal) ObserveDefense(round, masked, suspects int) {
	j.mu.Lock()
	j.masked, j.suspects = masked, suspects
	j.mu.Unlock()
}

// ObserveRoundEnd implements fl.RoundObserver, capturing the cumulative
// ledger; the round event is deferred to ObservePhases so eval and
// checkpoint observations land in the same line.
func (j *Journal) ObserveRoundEnd(round, reported int, comm *fl.CommStats) {
	j.mu.Lock()
	j.reported = reported
	j.up, j.down = comm.UpBytes, comm.DownBytes
	j.mup, j.mdown = comm.MeasuredUp, comm.MeasuredDown
	j.mu.Unlock()
}

// ObserveEval implements fl.RoundObserver.
func (j *Journal) ObserveEval(round int, meanAcc, meanLoss float64) {
	j.mu.Lock()
	j.evalRound, j.evalAcc, j.evalLoss = round, meanAcc, meanLoss
	j.mu.Unlock()
}

// ObserveCheckpoint implements fl.RoundObserver.
func (j *Journal) ObserveCheckpoint(round int) {
	j.mu.Lock()
	j.ckptThisRound = true
	j.mu.Unlock()
}

// ObservePhases implements fl.PhaseObserver: the closing observation of
// each round, where the accumulated round event is written.
func (j *Journal) ObservePhases(round int, phases fl.RoundPhases) {
	j.mu.Lock()
	defer j.mu.Unlock()
	b := j.buf[:0]
	b = append(b, `{"event":"round","ts":"`...)
	b = appendTS(b)
	b = append(b, `","round":`...)
	b = strconv.AppendInt(b, int64(round+1), 10)
	b = appendIntField(b, "invited", j.invited)
	b = appendIntField(b, "reported", j.reported)
	b = appendIntField(b, "on_time", j.onTime)
	b = appendIntField(b, "partial", j.partial)
	b = appendIntField(b, "late", j.late)
	b = appendIntField(b, "offline", j.offline)
	b = appendIntField(b, "failed", j.failed)
	b = appendIntField(b, "masked", j.masked)
	b = appendIntField(b, "suspects", j.suspects)
	b = appendInt64Field(b, "up_bytes", j.up)
	b = appendInt64Field(b, "down_bytes", j.down)
	b = appendInt64Field(b, "measured_up_bytes", j.mup)
	b = appendInt64Field(b, "measured_down_bytes", j.mdown)
	b = appendInt64Field(b, "up_delta", j.up-j.prevUp)
	b = appendInt64Field(b, "down_delta", j.down-j.prevDown)
	b = appendIntField(b, "eval_round", j.evalRound)
	if j.evalRound >= 0 {
		b = append(b, `,"mean_acc":`...)
		b = strconv.AppendFloat(b, j.evalAcc, 'g', -1, 64)
		b = append(b, `,"mean_loss":`...)
		b = strconv.AppendFloat(b, j.evalLoss, 'g', -1, 64)
	}
	if j.ckptThisRound {
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
	j.prevUp, j.prevDown = j.up, j.down
	j.resetRound()
	j.flushLocked()
}

// ObserveRunEnd implements fl.RunEndObserver.
func (j *Journal) ObserveRunEnd(completed int, aborted bool) {
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

func (j *Journal) resetRound() {
	j.invited, j.reported = 0, 0
	j.onTime, j.partial, j.late, j.offline, j.failed = 0, 0, 0, 0, 0
	j.masked, j.suspects = 0, 0
	j.evalRound, j.evalAcc, j.evalLoss = -1, 0, 0
	j.ckptThisRound = false
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
