package fedclust_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// mutants are faults the suite must catch, each a one-place edit of one
// file: a ceiling loosened by one, a bound moved onto its limit, a Go
// tail that starts a lane late. A row names the test that kills it, so a
// test that stops guarding its line fails here, not in review. old must
// occur exactly once in file. Rows run unit tests only: a row costs one
// build of the mutated package's test binary and one run of its pattern.
var mutants = []struct {
	file, old, new string
	pkg, run       string // the package (a directory under the module) and the -run pattern
}{
	// Spec.check's size ceilings, each loosened by one: a spec one past
	// the limit must still be refused. (The prototypes' ceiling is not
	// here: no spec lands one past it; see TestSpecBuildRejectsMalformed.)
	{"internal/transport/spec.go", "examples > maxSpecExamples {", "examples > maxSpecExamples+1 {",
		"./internal/transport", "TestSpecBuildRejectsMalformed"},
	{"internal/transport/spec.go", "examples*pixels > maxSpecValues {", "examples*pixels > maxSpecValues+1 {",
		"./internal/transport", "TestSpecBuildRejectsMalformed"},
	{"internal/transport/spec.go", "d.Smooth > maxSpecSmooth {", "d.Smooth > maxSpecSmooth+1 {",
		"./internal/transport", "TestSpecBuildRejectsMalformed"},
	{"internal/transport/spec.go", "clients > maxSpecClients {", "clients > maxSpecClients+1 {",
		"./internal/transport", "TestSpecBuildRejectsMalformed"},
	{"internal/transport/spec.go", "len(s.Hidden) > maxSpecHiddenNum {", "len(s.Hidden) > maxSpecHiddenNum+1 {",
		"./internal/transport", "TestSpecBuildRejectsMalformed"},
	{"internal/transport/spec.go", "params > maxSpecParams {", "params > maxSpecParams+1 {",
		"./internal/transport", "TestSpecBuildRejectsMalformed"},
	// Momentum 1 never decays the velocity, and the optimizer panics on
	// it: the work-order check must refuse it.
	{"internal/fl/client.go", "c.Momentum < 1)", "c.Momentum <= 1)",
		"./internal/fl", "TestLocalConfigCheck"},
	// The Go tail after the assembly's whole vectors, started one lane
	// late: the first lanes of the rest keep their old weights.
	{"internal/tensor/stream.go", "\tmomentumGo(w[m:], g[m:], v[m:], lr, mom, wd)",
		"\tm = min(m+lanes[T](), len(w))\n\tmomentumGo(w[m:], g[m:], v[m:], lr, mom, wd)",
		"./internal/tensor", "TestMomentumStepMatchesGoBody"},
	// The assembly momentum step's second register adding r(v·lr) to w:
	// one macro body runs both element types, so each type's test must
	// fail.
	{"internal/tensor/simd_amd64.s", "\tSUBP Y3, Y1, Y1 \\\n", "\tADDP Y3, Y1, Y1 \\\n",
		"./internal/tensor", "TestMomentumStepMatchesGoBody/avx2/float64"},
	{"internal/tensor/simd_amd64.s", "\tSUBP Y3, Y1, Y1 \\\n", "\tADDP Y3, Y1, Y1 \\\n",
		"./internal/tensor", "TestMomentumStepMatchesGoBody/avx2/float32"},
	// The float32 weight-gradient axpy instantiated with the float64 tail
	// mask: a run whose kw&3 is 2 or 3 skips its last two taps.
	{"internal/tensor/simd_amd64.s", "VADDSS, 4, 2, 3, 7, 4, 3)", "VADDSS, 4, 2, 3, 7, 4, 1)",
		"./internal/tensor", "TestConvAxpyAsmMatchesGoBody/float32"},
	// The forward convolution's tap offsets laid out on the unpadded row
	// width: every tap below a kernel's first row reads the wrong pixel.
	{"internal/tensor/conv.go", "pw, ph := g.InW+2*g.Pad,", "pw, ph := g.InW,",
		"./internal/tensor", "TestTransBPanelMatchesMatMulTransB"},
	// The Go offset body's sum started at the second tap: the tail pixels
	// beside the tile, and every pixel off AVX2, lose their first term.
	{"internal/tensor/conv.go", "for p := 0; p < len(off); p++ {", "for p := 1; p < len(off); p++ {",
		"./internal/tensor", "TestTransBOffsetAsmMatchesGoBody"},
	// The weight gradient's listing run from a row's last pixel to its
	// first: each gW element sums its terms in descending pixel order.
	{"internal/tensor/conv.go", "for p, v := range row[p0:min(p0+len(list), outHW)] {",
		"chunk := row[p0:min(p0+len(list), outHW)]\n\t\t\t\tfor p := len(chunk) - 1; p >= 0; p-- {\n\t\t\t\t\tv := chunk[p]",
		"./internal/tensor", "FuzzConvBackward"},
	// The listing keeps zero coefficients: a ±0 gradient against a
	// non-finite tap adds NaN, and a −0 onto a −0 gradient can add +0.
	{"internal/tensor/conv.go", "nz += b2i(v != 0)", "nz += b2i(v != 0 || true)",
		"./internal/tensor", "FuzzConvBackward"},
	// The weight gradient's run offsets with a channel plane one padded row
	// short: every run past the first channel reads the wrong rows.
	{"internal/tensor/conv.go", "plane := (g.InH + 2*g.Pad) * pw", "plane := (g.InH + 2*g.Pad - 1) * pw",
		"./internal/tensor", "FuzzConvBackward"},
	// A cached runtime kept across a dtype change: the warm lanes' networks
	// are in the old dtype.
	{"internal/engine/state.go", "es.frac == env.TopKFrac && es.dtype == env.DType", "es.frac == env.TopKFrac",
		"./internal/engine", "TestResultsBitIdenticalOnWarmRuntime"},
	// A Float32 lane's Load that skips its rounding: Evaluate reads
	// whatever the network held.
	{"internal/fl/lane.go", "\tl.net.load(vec)\n",
		"\tif _, ok := l.net.(*visitState[float64]); ok {\n\t\tl.net.load(vec)\n\t}\n",
		"./internal/fl", "TestLaneLoadEvaluateMatchesScratch"},
	// The lag cap dropped: a slow enough client's lag overflows past what
	// FedBuff's checkpoint can resume.
	{"internal/scenario/scenario.go", "lag = int(math.Min(math.Ceil(pass/d)-1, maxLag))", "lag = int(math.Ceil(pass/d)) - 1",
		"./internal/scenario", "TestOutcomeLagCapped"},
	// A component dropped from the run identity: a resume under another
	// aggregator, codec, local config or client data is accepted.
	{"internal/fl/identity.go", "\th.str(AggregatorName(e.Aggregator))\n", "",
		"./internal/fl", "TestCheckpointMatchesIdentity"},
	{"internal/fl/identity.go", "id[idCodec] = h.sum(uint64(e.Codec), math.Float64bits(e.TopKFrac))", "id[idCodec] = h.sum()",
		"./internal/fl", "TestCheckpointMatchesIdentity"},
	{"internal/fl/identity.go", "id[idLocal] = h.sum(uint64(e.Local.Epochs), uint64(e.Local.BatchSize), math.Float64bits(e.Local.LR),\n" +
		"\t\tmath.Float64bits(e.Local.Momentum), math.Float64bits(e.Local.WeightDecay), math.Float64bits(e.Local.ProxMu))",
		"id[idLocal] = h.sum()",
		"./internal/fl", "TestCheckpointMatchesIdentity"},
	{"internal/fl/identity.go", "\th.clients(e.Clients)\n", "",
		"./internal/fl", "TestCheckpointMatchesIdentity"},
	// The on-demand trigger polled only on unscheduled rounds: one armed
	// during a scheduled round survives it and fires a duplicate snapshot
	// a round later.
	{"internal/engine/checkpoint.go", "if plan.Trigger != nil && plan.Trigger() {", "if !due && plan.Trigger != nil && plan.Trigger() {",
		"./internal/engine", "TestCheckpointTriggerOnScheduledRound"},
	// The tracker's round tally kept across rounds: each journal line
	// counts every outcome since the run started.
	{"internal/obs/tracker.go", "t.round, t.evaluated, t.checkpointed = fl.OutcomeCounts{}, false, false", "t.evaluated, t.checkpointed = false, false",
		"./internal/obs", "TestJournalRoundTrip"},
	// The journal's resumed-run baseline dropped: the first round after a
	// resume books the restored ledger's whole history as its delta.
	{"internal/obs/journal.go", "j.prevUp, j.prevDown, j.baselined = 0, 0, startRound == 0", "j.prevUp, j.prevDown, j.baselined = 0, 0, true",
		"./internal/engine", "TestResumeJournalsEachRoundsOwnTraffic"},
	// A synchronous straggler observed with its scenario lag: its partial
	// pass, folded in this round, is booked late.
	{"internal/engine/driver.go", "\t\t\tif !d.Async && done > 0 {\n\t\t\t\tlag = 0 // a synchronous straggler reports its partial pass on time\n\t\t\t}\n", "",
		"./internal/engine", "TestStragglerOutcomesFollowTheDeliveryModel"},
	// The layer probes' local pass left on the scratch's own dtype: a
	// float32 fig1 or ablation-layer run trains its probes in float64.
	{"internal/experiments/fig1.go", "\tts.DType = env.DType\n", "",
		"./internal/experiments", "TestProbeLayersTrainOnEnvDType"},
}

// TestMutantsAreKilled: every mutants row, written under t.TempDir and
// laid over its file with go test -overlay, makes its package's -run
// pattern report a failing test. A mutant that does not compile is a
// broken row, not a kill.
func TestMutantsAreKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("builds one mutated test binary per row")
	}
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, m := range mutants {
		t.Run(filepath.Base(m.file)+":"+m.old, func(t *testing.T) {
			src, err := os.ReadFile(m.file)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%q occurs %d times in %s, want once", m.old, n, m.file)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			abs, err := filepath.Abs(m.file)
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			ov := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(ov, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command(goCmd, "test", "-count=1", "-overlay", ov, "-run", m.run, m.pkg).CombinedOutput()
			switch {
			case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
				t.Fatalf("the mutant does not compile:\n%s", out)
			case err == nil || !strings.Contains(string(out), "--- FAIL"):
				t.Errorf("the mutant survived %s -run %s:\n%s", m.pkg, m.run, out)
			}
		})
	}
}
