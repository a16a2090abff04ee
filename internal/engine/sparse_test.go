package engine_test

// Sparse-codec engine suite: top-k uplinks with error feedback must keep
// every determinism guarantee the dense paths have — bit-identical
// results across executor parallelism, across checkpoint/resume with
// live residual state, and (degenerately) against the Float64 golden
// path when the frame keeps everything.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"fedclust/internal/core"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/scenario"
	"fedclust/internal/wire"
)

// learnFingerprint is fingerprint without the traffic fields: sparse
// frames are priced differently from dense ones by construction, so
// codec-equivalence claims compare only what training computed.
func learnFingerprint(res *fl.Result) string {
	h := fnv.New64a()
	w := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, a := range res.PerClientAcc {
		w(math.Float64bits(a))
	}
	for _, m := range res.History {
		w(uint64(m.Round))
		w(math.Float64bits(m.MeanAcc))
		w(math.Float64bits(m.MeanLoss))
	}
	return fmt.Sprintf("acc=%016x loss=%016x clusters=%v h=%016x",
		math.Float64bits(res.FinalAcc), math.Float64bits(res.FinalLoss),
		res.Clusters, h.Sum64())
}

func sparseEnv(c wire.Codec, frac float64) *fl.Env {
	env := goldenEnv(77, 6)
	env.Codec = c
	env.TopKFrac = frac
	return env
}

// TestTopKFracOneMatchesFloat64Golden: at frac 1.0 a TopK frame carries
// all n coordinates as raw float64 bits and fresh residuals stay exactly
// zero (target == reconstruction), so every learning quantity must equal
// the dense golden run bit for bit — the identity that anchors the
// sparse path to the seed fingerprints.
func TestTopKFracOneMatchesFloat64Golden(t *testing.T) {
	for _, trainer := range []func() fl.Trainer{
		func() fl.Trainer { return methods.FedAvg{} },
		func() fl.Trainer { return &core.FedClust{} },
	} {
		dense := trainer().Run(sparseEnv(wire.Float64, 0))
		sparse := trainer().Run(sparseEnv(wire.TopK, 1.0))
		if got, want := learnFingerprint(sparse), learnFingerprint(dense); got != want {
			t.Errorf("%s: TopK frac=1.0 diverged from Float64\n got: %s\nwant: %s",
				dense.Method, got, want)
		}
		if sparse.Comm.UpBytes >= dense.Comm.UpBytes*2 {
			t.Errorf("%s: frac=1.0 sparse uplink %d bytes looks mispriced (dense %d)",
				dense.Method, sparse.Comm.UpBytes, dense.Comm.UpBytes)
		}
	}
}

// sparseDeterminismTrainers: the default Local hook (FedAvg), the
// clustered schedule (FedClust), and semi-async late delivery
// (FedAvgStale) — each exercises the EF accumulator from a different
// engine path.
func sparseDeterminismTrainers() []fl.Trainer {
	return []fl.Trainer{
		methods.FedAvg{},
		&core.FedClust{},
		methods.FedAvgStale{},
	}
}

// TestSparseResultsBitIdenticalAcrossWorkerCounts extends the
// determinism matrix to compressed runs: residual rows are owned per
// client and EF scratch per worker, so which worker compresses a visit
// must not move a single bit.
func TestSparseResultsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, c := range []wire.Codec{wire.TopK, wire.TopKQuant8} {
		for _, tr := range sparseDeterminismTrainers() {
			var want string
			for _, workers := range []int{1, 2, 8} {
				env := sparseEnv(c, 0.01)
				env.Workers = workers
				got := fingerprint(tr.Run(env))
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s/%s: workers=%d diverged:\n  got  %s\n  want %s",
						tr.Name(), c, workers, got, want)
				}
			}
		}
	}
}

func TestSparseResultsBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for _, tr := range sparseDeterminismTrainers() {
		var want string
		for _, procs := range []int{1, 2, 4} {
			old := runtime.GOMAXPROCS(procs)
			env := sparseEnv(wire.TopK, 0.01)
			env.Workers = 4
			got := fingerprint(tr.Run(env))
			runtime.GOMAXPROCS(old)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: GOMAXPROCS=%d diverged:\n  got  %s\n  want %s",
					tr.Name(), procs, got, want)
			}
		}
	}
}

// TestSparseResumeEquivalence: a compressed run interrupted mid-schedule
// carries live error-feedback residuals in its checkpoint (ef/ sections)
// and must resume to the exact uninterrupted fingerprint. Round 1 and 3
// resumes restore non-trivial residual state; round 6 restores the
// finished Result alone.
func TestSparseResumeEquivalence(t *testing.T) {
	for _, c := range []wire.Codec{wire.TopK, wire.TopKQuant8} {
		for _, mk := range []func() fl.Trainer{
			func() fl.Trainer { return methods.FedAvg{} },
			func() fl.Trainer { return &core.FedClust{} },
		} {
			env := sparseEnv(c, 0.01)
			want, snaps := captureRun(t, mk(), env)
			ck, err := fl.DecodeCheckpoint(snaps[3])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ck.Ints(fl.SecEFMeta, -1); err != nil {
				t.Fatalf("%s mid-run checkpoint carries no error-feedback sections", c)
			}
			for _, round := range []int{1, 3, 6} {
				env := sparseEnv(c, 0.01)
				if got := resumeRun(t, mk(), env, snaps[round]); got != want {
					t.Errorf("%s/%s: resume from round %d diverged\n got: %s\nwant: %s",
						mk().Name(), c, round, got, want)
				}
			}
		}
	}
}

// TestSparseResumeUnderScenario: the hardest combination — semi-async
// staleness, a hostile scenario, and sparse EF state — still resumes bit
// exactly.
func TestSparseResumeUnderScenario(t *testing.T) {
	mkEnv := func() *fl.Env {
		env := goldenEnv(34, 6)
		env.Codec = wire.TopK
		env.TopKFrac = 0.05
		env.EvalEvery = 2
		env.Participation.Scenario = scenario.New(scenario.Config{
			StragglerFrac: 0.3, SlowdownMax: 4, DropoutRate: 0.15,
			Deadline: 0.75, Jitter: 0.2,
		}, 34, len(env.Clients))
		return env
	}
	want, snaps := captureRun(t, methods.FedAvgStale{}, mkEnv())
	for _, round := range []int{1, 3, 6} {
		if got := resumeRun(t, methods.FedAvgStale{}, mkEnv(), snaps[round]); got != want {
			t.Errorf("resume from round %d diverged\n got: %s\nwant: %s", round, got, want)
		}
	}
}

// TestSparseResumeRejectsCodecChange: EF state is part of a run's
// identity — restoring a TopK checkpoint into a TopKQuant8 run must
// refuse rather than silently continue with residuals computed under a
// different quantizer.
func TestSparseResumeRejectsCodecChange(t *testing.T) {
	env := sparseEnv(wire.TopK, 0.01)
	_, snaps := captureRun(t, methods.FedAvg{}, env)
	ck, err := fl.DecodeCheckpoint(snaps[3])
	if err != nil {
		t.Fatal(err)
	}
	env = sparseEnv(wire.TopKQuant8, 0.01)
	env.Ckpt = &fl.CheckpointPlan{Resume: ck}
	defer func() {
		if recover() == nil {
			t.Fatal("resuming a TopK checkpoint under TopKQuant8 did not panic")
		}
	}()
	methods.FedAvg{}.Run(env)
}
