package engine_test

// Float32-path determinism and divergence suite. The float32 compute
// path must honor the same scheduling contract as float64 — results are
// bit-identical however the work is spread (the float32 kernels' row
// blocks preserve per-element summation order, and one SIMD-vs-generic
// dispatch is chosen per process) — and its end-of-run results must stay
// within float32 accumulation distance of the float64 golden reference,
// which the untouched equivalence suite continues to pin exactly.

import (
	"math"
	"runtime"
	"testing"

	"fedclust/internal/fl"
	"fedclust/internal/methods"
)

func TestFloat32ResultsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, tr := range determinismTrainers() {
		var want string
		for _, workers := range []int{1, 2, 8} {
			env := goldenEnv(31, 3)
			dropoutsAndStragglers(env)
			env.EvalEvery = 1
			env.Workers = workers
			env.DType = fl.Float32
			got := fingerprint(tr.Run(env))
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: workers=%d diverged on float32:\n  got  %s\n  want %s",
					tr.Name(), workers, got, want)
			}
		}
	}
}

func TestFloat32ResultsBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for _, tr := range determinismTrainers() {
		var want string
		for _, procs := range []int{1, 2, 4} {
			old := runtime.GOMAXPROCS(procs)
			env := goldenEnv(32, 3)
			env.EvalEvery = 1
			env.Workers = 4
			env.DType = fl.Float32
			got := fingerprint(tr.Run(env))
			runtime.GOMAXPROCS(old)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: GOMAXPROCS=%d diverged on float32:\n  got  %s\n  want %s",
					tr.Name(), procs, got, want)
			}
		}
	}
}

// TestFloat32RunTracksFloat64Within pins the end-of-run divergence
// bound: a full multi-round FedAvg run on the float32 path must land
// within 0.05 of the float64 reference on final mean accuracy and loss,
// and every recorded eval round must stay inside the same band. The
// band is ~10× the observed drift — it catches a wrong compute path,
// not rounding noise.
func TestFloat32RunTracksFloat64Within(t *testing.T) {
	run := func(dtype fl.DType) *fl.Result {
		env := goldenEnv(77, 6)
		env.EvalEvery = 2
		env.DType = dtype
		return methods.FedAvg{}.Run(env)
	}
	r64 := run(fl.Float64)
	r32 := run(fl.Float32)
	if d := math.Abs(r64.FinalAcc - r32.FinalAcc); d > 0.05 {
		t.Errorf("final accuracy diverged by %g: f64 %g vs f32 %g", d, r64.FinalAcc, r32.FinalAcc)
	}
	if d := math.Abs(r64.FinalLoss - r32.FinalLoss); d > 0.05 {
		t.Errorf("final loss diverged by %g: f64 %g vs f32 %g", d, r64.FinalLoss, r32.FinalLoss)
	}
	if len(r64.History) != len(r32.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(r64.History), len(r32.History))
	}
	for i := range r64.History {
		a, b := r64.History[i], r32.History[i]
		if d := math.Abs(a.MeanAcc - b.MeanAcc); d > 0.05 {
			t.Errorf("round %d accuracy diverged by %g", a.Round, d)
		}
		if d := math.Abs(a.MeanLoss - b.MeanLoss); d > 0.05 {
			t.Errorf("round %d loss diverged by %g", a.Round, d)
		}
	}
	// The wire accounting must be unchanged: the float32 compute path
	// still exchanges float64 vectors in-process.
	if r64.Comm.UpBytes != r32.Comm.UpBytes || r64.Comm.DownBytes != r32.Comm.DownBytes {
		t.Errorf("communication bytes diverged: f64 %d/%d vs f32 %d/%d",
			r64.Comm.UpBytes, r64.Comm.DownBytes, r32.Comm.UpBytes, r32.Comm.DownBytes)
	}
}
