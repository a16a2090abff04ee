package engine_test

// Resume-equivalence suite: a run restored from a checkpoint must be
// indistinguishable — bit for bit, in every field the experiments read —
// from one that never stopped. The matrix covers all eight methods
// (pinned against the PR 1 golden fingerprints for the synchronous six
// and against semiAsyncCases for the semi-async pair under a hostile
// scenario),
// checkpoint rounds early/mid/last, and executor parallelism on both
// sides of the interruption (checkpoint under one worker count, resume
// under another). Every resume passes through Encode → DecodeCheckpoint,
// so the serialized bytes — not the in-memory snapshot — carry the run.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fedclust/internal/core"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/obs"
	"fedclust/internal/scenario"
)

// captureRun executes the trainer with a checkpoint after every round,
// returning the result fingerprint and the encoded snapshot bytes keyed
// by completed-round count (1..Rounds).
func captureRun(t *testing.T, trainer fl.Trainer, env *fl.Env) (string, map[int][]byte) {
	t.Helper()
	snaps := make(map[int][]byte)
	env.Ckpt = &fl.CheckpointPlan{
		Every: 1,
		Sink:  func(c *fl.Checkpoint) { snaps[c.Round] = c.Encode() },
	}
	fp := fingerprint(trainer.Run(env))
	if len(snaps) != env.Rounds {
		t.Fatalf("expected %d snapshots, got %d", env.Rounds, len(snaps))
	}
	return fp, snaps
}

// resumeRun decodes the snapshot and finishes the schedule from it.
func resumeRun(t *testing.T, trainer fl.Trainer, env *fl.Env, snap []byte) string {
	t.Helper()
	ck, err := fl.DecodeCheckpoint(snap)
	if err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	env.Ckpt = &fl.CheckpointPlan{Resume: ck}
	return fingerprint(trainer.Run(env))
}

// TestResumeReproducesGoldenFingerprints: for every golden case, a run
// interrupted after round 1, mid-schedule, and after the final round
// resumes to exactly the PR 1 pinned fingerprint. The final-round resume
// executes zero rounds — the restored Result alone must carry the full
// answer.
func TestResumeReproducesGoldenFingerprints(t *testing.T) {
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			env := goldenEnv(77, 6)
			got, snaps := captureRun(t, c.trainer(), env)
			if got != c.want {
				t.Fatalf("checkpointing perturbed the uninterrupted run\n got: %s\nwant: %s", got, c.want)
			}
			for _, round := range []int{1, 3, 6} {
				env := goldenEnv(77, 6)
				if got := resumeRun(t, c.trainer(), env, snaps[round]); got != c.want {
					t.Errorf("resume from round %d diverged\n got: %s\nwant: %s", round, got, c.want)
				}
			}
		})
	}
}

// semiAsyncEnv is the staleness-aware methods' resume workload: the
// golden population under stragglers, dropouts and jitter, optionally
// behind a robust aggregator.
func semiAsyncEnv(agg fl.Aggregator) *fl.Env {
	env := goldenEnv(34, 6)
	env.EvalEvery = 2
	env.Participation.Scenario = scenario.New(scenario.Config{
		StragglerFrac: 0.3, SlowdownMax: 4, DropoutRate: 0.15,
		Deadline: 0.75, Jitter: 0.2,
	}, 34, len(env.Clients))
	env.Aggregator = agg
	return env
}

// semiAsyncCases pins the staleness-aware methods' bits absolutely — the
// plain decayed mean and both robust server steps of each. The
// fingerprints were recorded at 8aaea34, before the four hand-copied
// server steps became one fold; like goldenCases, do not regenerate them
// casually.
var semiAsyncCases = []struct {
	name    string
	trainer fl.Trainer
	agg     func() fl.Aggregator
	want    string
}{
	{"FedAvgStale", methods.FedAvgStale{}, nil,
		"acc=3fe6666666666667 loss=3fe6107ce740040b up=277350 down=401364 form=-1 formUp=0 clusters=[] h=8d9c493175a64f6a"},
	{"FedAvgStale+median", methods.FedAvgStale{}, func() fl.Aggregator { return &fl.Median{} },
		"acc=3fe3e93e93e93e93 loss=3fea378986da3c20 up=277350 down=401364 form=-1 formUp=0 clusters=[] h=030a19f824aecded"},
	{"FedAvgStale+trimmed", methods.FedAvgStale{}, func() fl.Aggregator { return &fl.TrimmedMean{Frac: 0.35} },
		"acc=3fe5dddddddddddd loss=3fe970b5a4578c93 up=277350 down=401364 form=-1 formUp=0 clusters=[] h=f8704153f811ccae"},
	{"FedBuff", methods.FedBuff{}, nil,
		"acc=3fe42d82d82d82d8 loss=3fee5325bfc336d4 up=122034 down=401364 form=-1 formUp=0 clusters=[] h=7f70b727e9aeefd1"},
	{"FedBuff+median", methods.FedBuff{}, func() fl.Aggregator { return &fl.Median{} },
		"acc=3fe1c71c71c71c72 loss=3ff0d7ec937223cc up=122034 down=401364 form=-1 formUp=0 clusters=[] h=8efebe564921b0ba"},
	{"FedBuff+trimmed", methods.FedBuff{}, func() fl.Aggregator { return &fl.TrimmedMean{Frac: 0.35} },
		"acc=3fe3333333333333 loss=3ff04a61e574d1d1 up=122034 down=401364 form=-1 formUp=0 clusters=[] h=18f4a75b2248097d"},
}

// TestResumeSemiAsync extends the matrix to the staleness-aware methods
// under a hostile scenario (stragglers, dropouts, jitter): the late-
// delivery caches, pending buffers, and arrival schedules must all ride
// the checkpoint, and the uninterrupted run must land on its pinned
// fingerprint.
func TestResumeSemiAsync(t *testing.T) {
	for _, c := range semiAsyncCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			mkEnv := func() *fl.Env {
				if c.agg == nil {
					return semiAsyncEnv(nil)
				}
				return semiAsyncEnv(c.agg())
			}
			got, snaps := captureRun(t, c.trainer, mkEnv())
			if got != c.want {
				t.Fatalf("uninterrupted run drifted from its pin\n got: %s\nwant: %s", got, c.want)
			}
			for _, round := range []int{1, 3, 6} {
				if got := resumeRun(t, c.trainer, mkEnv(), snaps[round]); got != c.want {
					t.Errorf("resume from round %d diverged\n got: %s\nwant: %s", round, got, c.want)
				}
			}
		})
	}
}

// TestResumeFedBuffExtremeLag: under a jitter so wide that some updates
// are due beyond any round a checkpoint can describe, FedBuff's arrival
// schedule still rides its checkpoints — every resume lands on the
// uninterrupted fingerprint.
func TestResumeFedBuffExtremeLag(t *testing.T) {
	mkEnv := func() *fl.Env {
		env := goldenEnv(77, 5)
		env.Participation.Scenario = scenario.New(scenario.Config{StragglerFrac: 0.5, Jitter: 1000}, 77, len(env.Clients))
		return env
	}
	want, snaps := captureRun(t, methods.FedBuff{}, mkEnv())
	for round := 1; round < 5; round++ {
		if got := resumeRun(t, methods.FedBuff{}, mkEnv(), snaps[round]); got != want {
			t.Errorf("resume from round %d diverged\n got: %s\nwant: %s", round, got, want)
		}
	}
}

// TestResumeAcrossWorkerCounts: checkpoint under a serial executor,
// resume under a wide one (and the reverse) — parallelism is not part of
// a run's identity, so the fingerprints must match the pinned golden.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	golden := goldenCases[len(goldenCases)-1] // FedClust: deepest state surface
	for _, wc := range []struct{ capture, resume int }{{1, 8}, {8, 1}} {
		env := goldenEnv(77, 6)
		env.Workers = wc.capture
		got, snaps := captureRun(t, golden.trainer(), env)
		if got != golden.want {
			t.Fatalf("workers=%d capture run drifted\n got: %s\nwant: %s", wc.capture, got, golden.want)
		}
		env = goldenEnv(77, 6)
		env.Workers = wc.resume
		if got := resumeRun(t, golden.trainer(), env, snaps[3]); got != golden.want {
			t.Errorf("checkpoint at workers=%d, resume at workers=%d diverged\n got: %s\nwant: %s",
				wc.capture, wc.resume, got, golden.want)
		}
	}
}

// TestResumeRejectsForeignCheckpoint: the engine refuses (panics — the
// cmd layer pre-validates with Matches for a clean exit) to continue a
// checkpoint from a different run.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	env := goldenEnv(77, 6)
	_, snaps := captureRun(t, methods.FedAvg{}, env)
	ck, err := fl.DecodeCheckpoint(snaps[3])
	if err != nil {
		t.Fatal(err)
	}
	env = goldenEnv(78, 6) // different seed
	env.Ckpt = &fl.CheckpointPlan{Resume: ck}
	defer func() {
		if recover() == nil {
			t.Fatal("resuming under a different seed did not panic")
		}
	}()
	methods.FedAvg{}.Run(env)
}

// TestResumeRejectsTamperedIndexSection: a checkpoint file deserves no
// more trust than a frame off a socket. An index-valued section (cluster
// ids, client ids, round stamps) holding a value outside its range — in
// an otherwise valid, correctly checksummed file — must stop the resume
// with an error naming the section, not surface rounds later as an
// index-out-of-range panic inside a gather.
func TestResumeRejectsTamperedIndexSection(t *testing.T) {
	for _, tc := range []struct {
		trainer fl.Trainer
		section string
		slot    int
		value   int64
	}{
		{methods.IFCA{K: 2}, "ifca/choice", 0, 2},
		{methods.IFCA{K: 2}, "ifca/prev", 5, -2},
		{methods.CFL{}, "cfl/assign", 3, 1},
		{methods.CFL{}, "cfl/ids", 0, 1},
		{methods.PACFL{}, "clustered/labels", 2, 2},
		{methods.FedAvgStale{}, "stale/cached_at", 1, 6},
		{methods.FedBuff{}, "fedbuff/buf_client", 0, 6},
		{methods.FedBuff{}, "fedbuff/buf_stale", 0, -1},
		{methods.FedBuff{}, "fedbuff/arrives", 2, -2},
		{methods.FedBuff{}, "fedbuff/trained", 2, 6},
		{methods.FedBuff{}, "fedbuff/busy", 4, 2},
	} {
		tc := tc
		t.Run(tc.section, func(t *testing.T) {
			t.Parallel()
			_, snaps := captureRun(t, tc.trainer, semiAsyncEnv(nil))
			ck, err := fl.DecodeCheckpoint(snaps[3])
			if err != nil {
				t.Fatal(err)
			}
			vals, err := ck.Ints(tc.section, -1)
			if err != nil {
				t.Fatal(err)
			}
			vals[tc.slot] = tc.value // Ints hands out the section itself
			if ck, err = fl.DecodeCheckpoint(ck.Encode()); err != nil {
				t.Fatalf("tampered checkpoint must still decode: %v", err)
			}
			env := semiAsyncEnv(nil)
			env.Ckpt = &fl.CheckpointPlan{Resume: ck}
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "engine: resume: ") || !strings.Contains(msg, tc.section) {
					t.Fatalf("resume ended with %q, want an engine: resume: error naming %s", msg, tc.section)
				}
			}()
			tc.trainer.Run(env)
		})
	}
}

// TestCheckpointTrigger: the on-demand trigger emits exactly one
// snapshot for the round it is armed in, independent of Every.
func TestCheckpointTrigger(t *testing.T) {
	env := goldenEnv(77, 6)
	var rounds []int
	armed := true
	env.Ckpt = &fl.CheckpointPlan{
		Trigger: func() bool {
			was := armed
			armed = false
			return was
		},
		Sink: func(c *fl.Checkpoint) { rounds = append(rounds, c.Round) },
	}
	methods.FedAvg{}.Run(env)
	if len(rounds) != 1 || rounds[0] != 1 {
		t.Fatalf("trigger emitted snapshots after rounds %v, want [1]", rounds)
	}
}

// TestCheckpointTriggerOnScheduledRound: a trigger armed during a round
// that Every already snapshots is consumed by that snapshot, not carried
// into a second one a round later.
func TestCheckpointTriggerOnScheduledRound(t *testing.T) {
	env := goldenEnv(77, 6)
	var rounds []int
	arm := &armOnRoundStart{round: 1}
	env.Observer = arm
	env.Ckpt = &fl.CheckpointPlan{
		Every: 2,
		Trigger: func() bool {
			was := arm.armed
			arm.armed = false
			return was
		},
		Sink: func(c *fl.Checkpoint) { rounds = append(rounds, c.Round) },
	}
	methods.FedAvg{}.Run(env)
	if fmt.Sprint(rounds) != "[2 4 6]" {
		t.Fatalf("snapshots after rounds %v, want [2 4 6]", rounds)
	}
}

// armOnRoundStart arms a checkpoint trigger when round index round
// starts, as a POST /checkpoint arriving during that round does.
type armOnRoundStart struct {
	round int
	armed bool
}

func (a *armOnRoundStart) ObserveRunStart(string, int, int, int) {}
func (a *armOnRoundStart) ObserveRoundStart(round, _ int) {
	if round == a.round {
		a.armed = true
	}
}
func (a *armOnRoundStart) ObserveOutcome(int, int, int, bool)      {}
func (a *armOnRoundStart) ObserveRoundEnd(int, int, *fl.CommStats) {}
func (a *armOnRoundStart) ObserveEval(int, float64, float64)       {}
func (a *armOnRoundStart) ObserveCheckpoint(int)                   {}

// TestResumeJournalsEachRoundsOwnTraffic: the round events a journal
// writes after a resume carry that round's own up/down delta, not the
// restored ledger's whole pre-checkpoint history — they equal the
// uninterrupted run's events for the same rounds, whose deltas add up to
// the ledger.
func TestResumeJournalsEachRoundsOwnTraffic(t *testing.T) {
	for _, trainer := range []func() fl.Trainer{
		func() fl.Trainer { return methods.FedAvg{} },
		func() fl.Trainer { return &core.FedClust{} },
	} {
		name := trainer().Name()
		journal := func(env *fl.Env) []obs.Event {
			var buf bytes.Buffer
			env.Observer = obs.NewJournal(&buf, env.Local.Epochs)
			trainer().Run(env)
			events, _ := obs.ReadEvents(buf.Bytes())
			return events
		}
		env := goldenEnv(77, 6)
		var snap []byte
		env.Ckpt = &fl.CheckpointPlan{Every: 3, Sink: func(c *fl.Checkpoint) {
			if c.Round == 3 {
				snap = c.Encode()
			}
		}}
		whole := journal(env)
		ck, err := fl.DecodeCheckpoint(snap)
		if err != nil {
			t.Fatal(err)
		}
		env = goldenEnv(77, 6)
		env.Ckpt = &fl.CheckpointPlan{Resume: ck}
		resumed := journal(env)
		if len(whole) != 8 || len(resumed) != 5 {
			t.Fatalf("%s: %d and %d events, want run_start + 6 or 3 rounds + run_end", name, len(whole), len(resumed))
		}
		// A fresh run's deltas add up to its ledger, FedClust's formation
		// traffic (booked before round 1's event) included.
		var up, down int64
		for _, ev := range whole[1:7] {
			up, down = up+ev.UpDelta, down+ev.DownDelta
		}
		if last := whole[6]; up != last.UpBytes || down != last.DownBytes {
			t.Errorf("%s: deltas sum to up %d down %d, ledger is up %d down %d", name, up, down, last.UpBytes, last.DownBytes)
		}
		for i, got := range resumed[1:4] {
			want := whole[4+i]
			if got.Round != want.Round || got.UpBytes != want.UpBytes || got.DownBytes != want.DownBytes ||
				got.UpDelta != want.UpDelta || got.DownDelta != want.DownDelta {
				t.Errorf("%s round %d after resume: up %d (+%d) down %d (+%d), uninterrupted: up %d (+%d) down %d (+%d)",
					name, want.Round, got.UpBytes, got.UpDelta, got.DownBytes, got.DownDelta,
					want.UpBytes, want.UpDelta, want.DownBytes, want.DownDelta)
			}
		}
	}
}

// TestResumeFedClustLeavesStateNil documents the FedClust caveat: a
// resumed run reconstructs the clustered schedule from the checkpoint,
// not the one-shot analysis, so the diagnostic State stays nil (see
// DESIGN.md §9) while the training result is still bit-exact.
func TestResumeFedClustLeavesStateNil(t *testing.T) {
	env := goldenEnv(77, 6)
	fresh := &core.FedClust{}
	want, snaps := captureRun(t, fresh, env)
	if fresh.State == nil {
		t.Fatal("uninterrupted run should populate State")
	}
	ck, err := fl.DecodeCheckpoint(snaps[3])
	if err != nil {
		t.Fatal(err)
	}
	env = goldenEnv(77, 6)
	env.Ckpt = &fl.CheckpointPlan{Resume: ck}
	resumed := &core.FedClust{}
	if got := fingerprint(resumed.Run(env)); got != want {
		t.Fatalf("resumed FedClust diverged\n got: %s\nwant: %s", got, want)
	}
	if resumed.State != nil {
		t.Error("resumed run unexpectedly reconstructed the one-shot clustering State")
	}
}
