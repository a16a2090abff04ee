package engine_test

import (
	"testing"

	"fedclust/internal/engine"
	"fedclust/internal/fl"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
)

// TestDriverRequiresHooks: a driver without its required hooks must fail
// loudly, not train garbage.
func TestDriverRequiresHooks(t *testing.T) {
	expectPanic := func(name string, wire func(d *engine.RoundDriver)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Run did not panic", name)
			}
		}()
		d := engine.New(goldenEnv(1, 1), "test")
		wire(d)
		d.Run()
	}
	expectPanic("no aggregate", func(d *engine.RoundDriver) {
		d.Hooks.Local = func(*engine.ClientCtx) {}
		d.Hooks.Served = func(int) []float64 { return nil }
	})
	expectPanic("no served", func(d *engine.RoundDriver) {
		d.Hooks.Local = func(*engine.ClientCtx) {}
		d.Hooks.Aggregate = func(int, []int) {}
	})
	expectPanic("no client objective", func(d *engine.RoundDriver) {
		d.Hooks.Aggregate = func(int, []int) {}
		d.Hooks.Served = func(int) []float64 { return nil }
	})
}

// evalServed runs a one-round schedule in which no client trains, so
// the engine's evaluation phase is all that happens: client i is
// evaluated on served(i).
func evalServed(env *fl.Env, served func(i int) []float64) *fl.Result {
	env.Rounds = 1
	d := engine.New(env, "eval")
	d.Hooks.Local = func(*engine.ClientCtx) {}
	d.Hooks.Aggregate = func(int, []int) {}
	d.Hooks.Served = served
	return d.Run()
}

// TestEvaluatePersonalized: the evaluation phase serves every client its
// own vector and reports, per client, exactly what fl.Evaluate gives on
// that client's test split; a client without test data reports 0 and is
// left out of the means, which run over the others in client order.
func TestEvaluatePersonalized(t *testing.T) {
	env := goldenEnv(16, 1)
	env.Clients[2].Test = nil
	models := [2]*nn.Sequential{env.NewModel(), env.NewModel()}
	new(fl.TrainScratch).LocalUpdate(models[1], env.Clients[0].Train, fl.LocalConfig{Epochs: 5, BatchSize: 16, LR: 0.1}, rng.New(8))
	vecs := [2][]float64{nn.FlattenParams(models[0]), nn.FlattenParams(models[1])}

	res := evalServed(env, func(i int) []float64 { return vecs[i%2] })
	if len(res.PerClientAcc) != len(env.Clients) {
		t.Fatalf("per-client length = %d, want %d", len(res.PerClientAcc), len(env.Clients))
	}
	var accSum, lossSum float64
	valid := 0
	for i, c := range env.Clients {
		var loss, acc float64
		if c.Test != nil {
			loss, acc = fl.Evaluate(models[i%2], c.Test, env.EvalBatchSize())
			accSum += acc
			lossSum += loss
			valid++
		}
		if res.PerClientAcc[i] != acc {
			t.Fatalf("client %d: accuracy %v, want %v", i, res.PerClientAcc[i], acc)
		}
	}
	if want := accSum / float64(valid); res.FinalAcc != want {
		t.Fatalf("mean accuracy %v, want %v", res.FinalAcc, want)
	}
	if want := lossSum / float64(valid); res.FinalLoss != want || want <= 0 {
		t.Fatalf("mean loss %v, want %v > 0", res.FinalLoss, want)
	}
}

// TestDriverBuffers: the locals arena must be per-client, disjoint,
// sized to the model, and InitParams must be a defensive copy of w₀.
func TestDriverBuffers(t *testing.T) {
	env := goldenEnv(2, 1)
	d := engine.New(env, "test")
	want := env.NewModel().NumParams()
	if d.NumParams != want {
		t.Fatalf("NumParams %d, want %d", d.NumParams, want)
	}
	if len(d.Locals) != len(env.Clients) {
		t.Fatalf("locals slots %d, want %d", len(d.Locals), len(env.Clients))
	}
	for i, l := range d.Locals {
		if len(l) != want {
			t.Fatalf("locals[%d] length %d, want %d", i, len(l), want)
		}
	}
	a, b := d.InitParams(), d.InitParams()
	a[0] += 1
	if b[0] == a[0] {
		t.Fatal("InitParams returned a shared buffer")
	}
	if w0 := nn.FlattenParams(env.NewModel()); b[0] != w0[0] || len(b) != len(w0) {
		t.Fatal("InitParams does not match the canonical initialization")
	}
}

// TestGatherCluster: gathering must preserve client order within a
// cluster and pair each vector with its sample weight.
func TestGatherCluster(t *testing.T) {
	env := goldenEnv(3, 1)
	d := engine.New(env, "test")
	assign := []int{0, 1, 0, 1, 0, 1}
	vecs, ws := d.GatherCluster(assign, 1)
	if len(vecs) != 3 || len(ws) != 3 {
		t.Fatalf("gathered %d vecs %d weights, want 3", len(vecs), len(ws))
	}
	for j, i := range []int{1, 3, 5} {
		if &vecs[j][0] != &d.Locals[i][0] {
			t.Fatalf("vec %d is not client %d's arena slot", j, i)
		}
		if ws[j] != float64(env.Clients[i].Train.Len()) {
			t.Fatalf("weight %d = %v, want client %d's train size", j, ws[j], i)
		}
	}
}

// TestCommOverrides: the DownlinkPerClient hook must flow into the
// accounting (IFCA's K-model broadcast depends on this), while every
// uplink stays one model.
func TestCommOverrides(t *testing.T) {
	env := goldenEnv(4, 2)
	d := engine.New(env, "test")
	global := d.InitParams()
	d.Hooks.Local = func(ctx *engine.ClientCtx) {
		ctx.Start = global
		engine.DefaultLocal(ctx)
	}
	d.Hooks.Aggregate = func(int, []int) {}
	d.Hooks.Served = func(int) []float64 { return global }
	d.Hooks.DownlinkPerClient = func(int) int { return 3 * d.NumParams }
	res := d.Run()
	n := int64(len(env.Clients))
	pricing := fl.CommPricing{}
	if want := n * pricing.DownloadBytesFor(3*d.NumParams) * int64(env.Rounds); res.Comm.DownBytes != want {
		t.Fatalf("down bytes %d, want %d", res.Comm.DownBytes, want)
	}
	if want := n * pricing.UploadBytesFor(d.NumParams) * int64(env.Rounds); res.Comm.UpBytes != want {
		t.Fatalf("up bytes %d, want %d", res.Comm.UpBytes, want)
	}
}

// TestFailedVisitsDropFromReported: a Local hook that disowns its result
// (ClientCtx.Failed — a transport timeout, or any custom hook's own
// failure) must see those clients removed from the reported set before
// Aggregate, on a plain run with no transport and no scenario attached.
func TestFailedVisitsDropFromReported(t *testing.T) {
	env := goldenEnv(5, 2)
	d := engine.New(env, "test")
	global := d.InitParams()
	d.Hooks.Broadcast = func(int) [][]float64 {
		starts := d.StartsBuf()
		for i := range starts {
			starts[i] = global
		}
		return starts
	}
	d.Hooks.Local = func(ctx *engine.ClientCtx) {
		engine.DefaultLocal(ctx)
		if ctx.Client%2 == 1 {
			ctx.Failed = true // odd clients disown every visit
		}
	}
	var got [][]int
	d.Hooks.Aggregate = func(round int, reported []int) {
		got = append(got, append([]int(nil), reported...))
		for i := range env.Clients {
			if want := i%2 == 0; d.Reported(i) != want {
				t.Errorf("round %d: Reported(%d) = %v, want %v", round, i, d.Reported(i), want)
			}
			// A failed visit must read as offline to semi-async
			// aggregators — its stale Locals slot is not a late arrival.
			done, lag := d.ScenarioOutcome(i)
			if i%2 == 1 {
				if done != 0 || lag >= 0 {
					t.Errorf("round %d: failed client %d outcome (%d,%d), want offline", round, i, done, lag)
				}
			} else if lag != 0 {
				t.Errorf("round %d: healthy client %d reported late (lag %d)", round, i, lag)
			}
		}
	}
	d.Hooks.Served = func(int) []float64 { return global }
	d.Run()
	if len(got) != env.Rounds {
		t.Fatalf("aggregate ran %d times, want %d", len(got), env.Rounds)
	}
	for r, rep := range got {
		for _, i := range rep {
			if i%2 == 1 {
				t.Errorf("round %d: failed client %d stayed in reported set %v", r, i, rep)
			}
		}
		if len(rep) != (len(env.Clients)+1)/2 {
			t.Errorf("round %d: reported %v, want the %d surviving clients", r, rep, (len(env.Clients)+1)/2)
		}
	}
}
