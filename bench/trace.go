package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedclust/internal/fl"
)

// Span names. In-run spans come from the public seams a run exposes: the
// phase observer on every workload, and on the workloads that have them
// the remote trainer, the aggregator and the checkpoint sink.
const (
	spanRun        = "run"
	spanPreRound   = "run.pre_round" // Trainer.Run entry to the first round: FedClust's one-shot formation
	spanRound      = "engine.round"
	spanSample     = "engine.sample"
	spanBroadcast  = "engine.broadcast"
	spanLocal      = "engine.local"
	spanCombine    = "engine.combine"
	spanEval       = "engine.eval"
	spanCheckpoint = "engine.checkpoint"
	spanVisit      = "transport.visit"
	spanRobust     = "fl.robust_combine"
	spanCkptEncode = "fl.ckpt_encode"
)

// span is one timed interval. Parent is the id of the span that caused
// it, -1 for a run; Run is the id of the run span it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	noParent      = -1
	pendingParent = -2 // resolved when the round that caused the span closes
)

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records a finished span and returns its id.
func (r *recorder) add(parent, run int, name string, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	if parent == noParent {
		run = id
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: start, End: end})
	return id
}

// adopt gives every still-pending span of a run, among those recorded
// from index from on, the parent the map assigns to its name. It returns
// the index to pass next time.
func (r *recorder) adopt(run, from int, parents map[string]int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := from; i < len(r.spans); i++ {
		s := &r.spans[i]
		if s.Parent == pendingParent && s.Run == run {
			if p, ok := parents[s.Name]; ok {
				s.Parent = p
			}
		}
	}
	return len(r.spans)
}

// closeRun stamps the run span's end.
func (r *recorder) closeRun(run int, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[run].End = end
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes the spans as one JSON array.
func (r *recorder) writeFile(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children (two
// concurrent visits) are counted once, and a child is clipped to its
// parent's interval.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(spans, children[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the given spans' intervals
// inside [lo, hi].
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].Start, spans[id].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// rooted reports whether every span's parent chain ends at the run span
// it names.
func rooted(spans []span) bool {
	for _, s := range spans {
		cur := s
		for hops := 0; cur.Parent != noParent; hops++ {
			if cur.Parent < 0 || cur.Parent >= len(spans) || hops > len(spans) {
				return false
			}
			cur = spans[cur.Parent]
		}
		if cur.ID != s.Run {
			return false
		}
	}
	return true
}

// runTrace is the in-run instrumentation of one traced Trainer.Run: it
// is the run's fl.RoundObserver (and fl.PhaseObserver), and it owns the
// decorators of the seams the workload has.
type runTrace struct {
	rec    *recorder
	run    int
	epochs int
	t0     int64 // Trainer.Run entry
	// adopted is where the run's next adoption starts: every earlier span
	// of the run has its parent.
	adopted int

	started  bool
	rounds   []fl.RoundPhases
	invited  int
	dropped  int // scheduled visits that did no work
	partial  int // visits cut short by the deadline
	failed   int // visits the transport lost
	visitNS  []float64
	visitSum atomic.Int64
	downB    atomic.Int64
	upB      atomic.Int64
	ckptLast *fl.Checkpoint
	ckptLen  int
}

// startRun opens a run span; the caller closes it with endRun after
// Trainer.Run returns.
func startRun(rec *recorder, epochs int) *runTrace {
	t := &runTrace{rec: rec, epochs: epochs, t0: rec.now()}
	t.run = rec.add(noParent, 0, spanRun, t.t0, 0)
	return t
}

// endRun closes the run span. A decorator span no round claimed (a visit
// outside the round loop) becomes a child of the run itself.
func (t *runTrace) endRun() {
	t.rec.closeRun(t.run, t.rec.now())
	orphans := map[string]int{}
	for child := range causedBy {
		orphans[child] = t.run
	}
	t.adopted = t.rec.adopt(t.run, t.adopted, orphans)
}

// ObserveRunStart implements fl.RoundObserver. The engine calls it when
// the round loop starts, so the time since Trainer.Run was entered is
// what the method did before its first round.
func (t *runTrace) ObserveRunStart(string, int, int, int) {
	if t.started {
		return
	}
	t.started = true
	t.rec.add(t.run, t.run, spanPreRound, t.t0, t.rec.now())
}

// ObserveRoundStart implements fl.RoundObserver.
func (t *runTrace) ObserveRoundStart(_, invited int) { t.invited += invited }

// ObserveOutcome implements fl.RoundObserver.
func (t *runTrace) ObserveOutcome(_, done, _ int, failed bool) {
	switch {
	case failed:
		t.failed++
	case done == 0:
		t.dropped++
	case done < t.epochs:
		t.partial++
	}
}

// ObserveRoundEnd implements fl.RoundObserver.
func (t *runTrace) ObserveRoundEnd(int, int, *fl.CommStats) {}

// ObserveEval implements fl.RoundObserver.
func (t *runTrace) ObserveEval(int, float64, float64) {}

// ObserveCheckpoint implements fl.RoundObserver.
func (t *runTrace) ObserveCheckpoint(int) {}

// ObservePhases implements fl.PhaseObserver. The engine reports a
// round's phases as durations when the round closes, so the spans are
// laid end to end backwards from now: durations are exact, positions
// are exact up to the untimed glue between phases.
func (t *runTrace) ObservePhases(_ int, p fl.RoundPhases) {
	t.rounds = append(t.rounds, p)
	end := t.rec.now()
	start := end - p.TotalNS
	round := t.rec.add(t.run, t.run, spanRound, start, end)
	parents := map[string]int{}
	at := start
	for _, ph := range []struct {
		name string
		ns   int64
	}{
		{spanSample, p.SampleNS}, {spanBroadcast, p.BroadcastNS}, {spanLocal, p.LocalNS},
		{spanCombine, p.CombineNS}, {spanEval, p.EvalNS}, {spanCheckpoint, p.CheckpointNS},
	} {
		if ph.ns == 0 {
			continue
		}
		parents[ph.name] = t.rec.add(round, t.run, ph.name, at, at+ph.ns)
		at += ph.ns
	}
	adopt := map[string]int{}
	for child, phase := range causedBy {
		adopt[child] = round // a phase too short to have a span
		if id, ok := parents[phase]; ok {
			adopt[child] = id
		}
	}
	t.adopted = t.rec.adopt(t.run, t.adopted, adopt)
}

// causedBy names the phase that causes each decorator's spans.
var causedBy = map[string]string{
	spanVisit:      spanLocal,
	spanRobust:     spanCombine,
	spanCkptEncode: spanCheckpoint,
}

// pending records a span whose parent phase is known only when its
// round closes.
func (t *runTrace) pending(name string, start, end int64) {
	t.rec.add(pendingParent, t.run, name, start, end)
}

// tracedRemote times every visit that crosses the transport.
type tracedRemote struct {
	inner fl.RemoteTrainer
	t     *runTrace
	mu    sync.Mutex
}

func (r *tracedRemote) Owns(client int) bool { return r.inner.Owns(client) }

func (r *tracedRemote) Train(req *fl.RemoteRequest, out []float64) (down, up int64, err error) {
	start := r.t.rec.now()
	down, up, err = r.inner.Train(req, out)
	end := r.t.rec.now()
	r.t.pending(spanVisit, start, end)
	r.t.downB.Add(down)
	r.t.upB.Add(up)
	r.t.visitSum.Add(end - start)
	r.mu.Lock()
	r.t.visitNS = append(r.t.visitNS, float64(end-start))
	r.mu.Unlock()
	return down, up, err
}

// tracedAggregator times the robust combine. It keeps the inner name:
// checkpoints record it as part of the run's identity.
type tracedAggregator struct {
	inner fl.Aggregator
	t     *runTrace
}

func (a *tracedAggregator) Name() string { return a.inner.Name() }

func (a *tracedAggregator) Aggregate(dst []float64, vecs [][]float64, ws []float64) int {
	start := a.t.rec.now()
	n := a.inner.Aggregate(dst, vecs, ws)
	a.t.pending(spanRobust, start, a.t.rec.now())
	return n
}

// memorySink is workload D's checkpoint sink: every snapshot is encoded
// into memory, as a coordinator that ships or stores it would.
func memorySink(buf *[]byte) func(*fl.Checkpoint) {
	return func(c *fl.Checkpoint) { *buf = c.Encode() }
}

// tracedSink is memorySink with the encode timed.
func (t *runTrace) tracedSink(buf *[]byte) func(*fl.Checkpoint) {
	return func(c *fl.Checkpoint) {
		start := t.rec.now()
		*buf = c.Encode()
		t.pending(spanCkptEncode, start, t.rec.now())
		t.ckptLast, t.ckptLen = c, len(*buf)
	}
}
