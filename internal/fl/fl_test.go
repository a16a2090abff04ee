package fl

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"fedclust/internal/data"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
	"fedclust/internal/wire"
)

// tinyDataset builds a linearly separable 2-class dataset.
func tinyDataset(n int, r *rng.Rng) *data.Dataset {
	d := &data.Dataset{
		Name: "tiny", X: tensor.New(n, 2), Y: make([]int, n),
		Classes: 2, C: 1, H: 1, W: 2,
	}
	for i := 0; i < n; i++ {
		c := i % 2
		d.Y[i] = c
		d.X.Set(float64(2*c-1)*2+0.3*r.NormFloat64(), i, 0)
		d.X.Set(0.3*r.NormFloat64(), i, 1)
	}
	return d
}

func tinyFactory(r *rng.Rng) *nn.Sequential { return nn.MLP(r, 2, 8, 2) }

func tinyEnv(nClients int, seed uint64) *Env {
	r := rng.New(seed)
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i] = &Client{
			ID:    i,
			Train: tinyDataset(40, r.Derive(uint64(i), 1)),
			Test:  tinyDataset(20, r.Derive(uint64(i), 2)),
		}
	}
	return &Env{
		Clients: clients,
		Factory: tinyFactory,
		Rounds:  3,
		Local:   LocalConfig{Epochs: 1, BatchSize: 10, LR: 0.1},
		Seed:    seed,
	}
}

func TestLocalUpdateReducesLoss(t *testing.T) {
	r := rng.New(1)
	d := tinyDataset(60, r)
	model := tinyFactory(rng.New(2))
	before, _ := Evaluate(model, d, 32)
	cfg := LocalConfig{Epochs: 20, BatchSize: 10, LR: 0.2}
	new(TrainScratch).LocalUpdate(model, d, cfg, r)
	after, acc := Evaluate(model, d, 32)
	if after >= before {
		t.Fatalf("loss did not decrease: %v → %v", before, after)
	}
	if acc < 0.9 {
		t.Fatalf("accuracy after training = %v", acc)
	}
}

func TestLocalUpdateProxStaysCloser(t *testing.T) {
	// With a large proximal term the local model must end closer to the
	// starting point than without it.
	run := func(mu float64) float64 {
		model := tinyFactory(rng.New(3))
		start := nn.FlattenParams(model)
		cfg := LocalConfig{Epochs: 10, BatchSize: 10, LR: 0.2, ProxMu: mu}
		new(TrainScratch).LocalUpdate(model, tinyDataset(60, rng.New(4)), cfg, rng.New(5))
		after := nn.FlattenParams(model)
		return L2Norm(DeltaInto(after, after, start))
	}
	free, prox := run(0), run(5.0)
	if prox >= free {
		t.Fatalf("prox drift %v should be below unconstrained drift %v", prox, free)
	}
}

func TestLocalUpdateEmptyDataset(t *testing.T) {
	model := tinyFactory(rng.New(6))
	empty := &data.Dataset{Name: "e", X: tensor.New(0, 2), Y: nil, Classes: 2, C: 1, H: 1, W: 2}
	if loss := new(TrainScratch).LocalUpdate(model, empty, LocalConfig{Epochs: 1, BatchSize: 4, LR: 0.1}, rng.New(7)); loss != 0 {
		t.Fatalf("empty dataset loss = %v", loss)
	}
}

func TestLocalUpdateDeterministic(t *testing.T) {
	d := tinyDataset(40, rng.New(8))
	run := func() []float64 {
		m := tinyFactory(rng.New(9))
		new(TrainScratch).LocalUpdate(m, d, LocalConfig{Epochs: 2, BatchSize: 8, LR: 0.1}, rng.New(10))
		return nn.FlattenParams(m)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("LocalUpdate not deterministic under fixed seeds")
		}
	}
}

// weightedAverage is the allocating form of WeightedAverageInto.
func weightedAverage(vecs [][]float64, weights []float64) []float64 {
	if len(vecs) == 0 {
		return WeightedAverageInto(nil, vecs, weights)
	}
	return WeightedAverageInto(make([]float64, len(vecs[0])), vecs, weights)
}

func TestWeightedAverage(t *testing.T) {
	vecs := [][]float64{{1, 0}, {3, 4}}
	got := weightedAverage(vecs, []float64{1, 3})
	if math.Abs(got[0]-2.5) > 1e-12 || math.Abs(got[1]-3) > 1e-12 {
		t.Fatalf("WeightedAverage = %v", got)
	}
}

func TestWeightedAverageWeightsNormalizeProperty(t *testing.T) {
	// Scaling all weights by a constant must not change the result.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, dim := 1+r.Intn(5), 1+r.Intn(6)
		vecs := make([][]float64, n)
		w := make([]float64, n)
		w2 := make([]float64, n)
		for i := range vecs {
			vecs[i] = make([]float64, dim)
			for j := range vecs[i] {
				vecs[i][j] = r.NormFloat64()
			}
			w[i] = 0.1 + r.Float64()
			w2[i] = w[i] * 7.3
		}
		a := weightedAverage(vecs, w)
		b := weightedAverage(vecs, w2)
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedAverageIsConvex(t *testing.T) {
	// The average must lie inside the coordinate-wise min/max envelope.
	vecs := [][]float64{{0, 10}, {4, 20}, {2, 12}}
	got := weightedAverage(vecs, []float64{1, 2, 3})
	if got[0] < 0 || got[0] > 4 || got[1] < 10 || got[1] > 20 {
		t.Fatalf("average escaped convex hull: %v", got)
	}
}

func TestWeightedAveragePanics(t *testing.T) {
	for _, f := range []func(){
		func() { weightedAverage(nil, nil) },
		func() { weightedAverage([][]float64{{1}}, []float64{1, 2}) },
		func() { weightedAverage([][]float64{{1}, {1, 2}}, []float64{1, 1}) },
		func() { weightedAverage([][]float64{{1}}, []float64{0}) },
		func() { weightedAverage([][]float64{{1}}, []float64{-1}) },
	} {
		func(f func()) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid WeightedAverage input did not panic")
				}
			}()
			f()
		}(f)
	}
}

func TestUniformAverageAndDelta(t *testing.T) {
	got := WeightedAverageInto(make([]float64, 2), [][]float64{{2, 0}, {4, 6}}, []float64{1, 1})
	if got[0] != 3 || got[1] != 3 {
		t.Fatalf("equal-weight average = %v", got)
	}
	d := DeltaInto(make([]float64, 2), []float64{5, 1}, []float64{2, 3})
	if d[0] != 3 || d[1] != -2 {
		t.Fatalf("Delta = %v", d)
	}
	if n := L2Norm([]float64{3, 4}); n != 5 {
		t.Fatalf("L2Norm = %v", n)
	}
}

func TestCommStats(t *testing.T) {
	var c CommStats // zero pricing: dense Float64 frames both ways
	c.Upload(10, 100)
	c.Download(5, 100)
	wantUp := 10 * TrainResponseBytes(wire.Float64, 100)
	wantDown := 5 * TrainRequestBytes(wire.Float64, 100)
	if c.UpBytes != wantUp || c.DownBytes != wantDown {
		t.Fatalf("comm = %+v, want up %d down %d", c, wantUp, wantDown)
	}
	c.EndRound(1)
	c.Upload(1, 100)
	c.EndRound(2)
	if len(c.PerRound) != 2 || c.PerRound[0].UpBytes != wantUp || c.PerRound[1].UpBytes != wantUp/10 {
		t.Fatalf("per-round = %+v", c.PerRound)
	}
	if c.PerRound[1].DownBytes != 0 {
		t.Fatal("round 2 downlink should be 0")
	}
}

// TestOutcomeClassBoundaries pins the one outcome classification the
// control tracker and the round journal share, at each class's edges: a
// transport failure outranks everything, no completed epoch or a negative
// lag is offline whatever else holds, lateness outranks a short pass, and
// a short pass is partial only when a full pass is configured.
func TestOutcomeClassBoundaries(t *testing.T) {
	for _, c := range []struct {
		done, lag, epochs int
		failed            bool
		want              OutcomeCounts
	}{
		{done: 2, epochs: 2, failed: true, want: OutcomeCounts{Failed: 1}},
		{done: 0, lag: -1, epochs: 2, failed: true, want: OutcomeCounts{Failed: 1}},
		{done: 0, epochs: 2, want: OutcomeCounts{Offline: 1}},
		{done: 2, lag: -1, epochs: 2, want: OutcomeCounts{Offline: 1}},
		{done: 0, lag: 1, epochs: 2, want: OutcomeCounts{Offline: 1}},
		{done: 2, lag: 1, epochs: 2, want: OutcomeCounts{Late: 1}},
		{done: 1, lag: 3, epochs: 2, want: OutcomeCounts{Late: 1}},
		{done: 1, epochs: 2, want: OutcomeCounts{Partial: 1}},
		{done: 1, epochs: 0, want: OutcomeCounts{OnTime: 1}},
		{done: 2, epochs: 2, want: OutcomeCounts{OnTime: 1}},
		{done: 3, epochs: 2, want: OutcomeCounts{OnTime: 1}},
	} {
		var got OutcomeCounts
		got.Count(c.done, c.lag, c.failed, c.epochs)
		if got != c.want {
			t.Errorf("done=%d lag=%d failed=%v epochs=%d: %+v, want %+v", c.done, c.lag, c.failed, c.epochs, got, c.want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	if FormatBytes(512) != "512 B" {
		t.Fatalf("FormatBytes(512) = %q", FormatBytes(512))
	}
	if FormatBytes(2048) != "2.0 KiB" {
		t.Fatalf("FormatBytes(2048) = %q", FormatBytes(2048))
	}
	if FormatBytes(3*1024*1024) != "3.0 MiB" {
		t.Fatalf("FormatBytes(3MiB) = %q", FormatBytes(3*1024*1024))
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	env := tinyEnv(1, 1)
	for _, workers := range []int{1, 2, 8} {
		var count int64
		seen := make([]int64, 100)
		env.Workers = workers
		env.ParallelClientsWorker(100, func(_, i int) {
			atomic.AddInt64(&count, 1)
			atomic.AddInt64(&seen[i], 1)
		})
		if count != 100 {
			t.Fatalf("workers=%d ran %d tasks", workers, count)
		}
		for i, s := range seen {
			if s != 1 {
				t.Fatalf("index %d ran %d times", i, s)
			}
		}
	}
	env.ParallelClientsWorker(0, func(_, i int) { t.Fatal("should not run") })
}

func TestEnvNewModelDeterministic(t *testing.T) {
	env := tinyEnv(3, 42)
	a := nn.FlattenParams(env.NewModel())
	b := nn.FlattenParams(env.NewModel())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("NewModel must return identical weights every call")
		}
	}
}

func TestEnvClientRngStreamsDiffer(t *testing.T) {
	env := tinyEnv(3, 42)
	a := env.ClientRng(0, 0).Uint64()
	b := env.ClientRng(1, 0).Uint64()
	c := env.ClientRng(0, 1).Uint64()
	if a == b || a == c {
		t.Fatal("client rng streams collide")
	}
	if env.ClientRng(0, 0).Uint64() != a {
		t.Fatal("client rng not deterministic")
	}
}

func TestShouldEval(t *testing.T) {
	env := tinyEnv(2, 1)
	env.Rounds = 10
	env.EvalEvery = 3
	wantTrue := map[int]bool{2: true, 5: true, 8: true, 9: true}
	for r := 0; r < 10; r++ {
		if got := env.ShouldEval(r); got != wantTrue[r] {
			t.Fatalf("ShouldEval(%d) = %v", r, got)
		}
	}
	env.EvalEvery = 0
	for r := 0; r < 9; r++ {
		if env.ShouldEval(r) {
			t.Fatalf("EvalEvery=0 should only eval final round, got round %d", r)
		}
	}
	if !env.ShouldEval(9) {
		t.Fatal("final round must always evaluate")
	}
}

func TestBuildDirichletClients(t *testing.T) {
	cfg := data.SynthFMNIST(3)
	cfg.TrainPerClass, cfg.TestPerClass = 30, 10
	train, test := data.Generate(cfg)
	clients := BuildDirichletClients(train, test, 8, 0.1, rng.New(4))
	if len(clients) != 8 {
		t.Fatalf("clients = %d", len(clients))
	}
	totalTrain := 0
	for _, c := range clients {
		totalTrain += c.Train.Len()
		if c.Train.Len() == 0 {
			t.Fatal("client with empty train set")
		}
		// Test distribution must be supported on train classes only.
		trainH := c.Train.LabelHistogram()
		for k, cnt := range c.Test.LabelHistogram() {
			if cnt > 0 && trainH[k] == 0 {
				t.Fatalf("client %d tests on class %d it never trains on", c.ID, k)
			}
		}
	}
	if totalTrain != train.Len() {
		t.Fatalf("train examples lost: %d of %d", totalTrain, train.Len())
	}
}

func TestBuildGroupClients(t *testing.T) {
	cfg := data.SynthFMNIST(5)
	cfg.TrainPerClass, cfg.TestPerClass = 20, 10
	train, test := data.Generate(cfg)
	groups := [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}
	clients, truth := BuildGroupClients(train, test, groups, []int{3, 3}, rng.New(6))
	if len(clients) != 6 || len(truth) != 6 {
		t.Fatalf("sizes %d/%d", len(clients), len(truth))
	}
	for i, c := range clients {
		h := c.Train.LabelHistogram()
		for k := 0; k < 10; k++ {
			inGroup := (k < 5) == (truth[i] == 0)
			if !inGroup && h[k] > 0 {
				t.Fatalf("client %d holds out-of-group class %d", i, k)
			}
		}
	}
}

// TestLocalConfigCheck: Check accepts exactly the configurations
// opt.SGD.Reconfigure takes without a panic, so a work order it passes
// cannot bring a visit down: momentum in [0, 1), a finite non-negative
// weight decay, and no NaN anywhere.
func TestLocalConfigCheck(t *testing.T) {
	good := LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.9, WeightDecay: 1e-4, ProxMu: 0.01}
	if err := good.Check(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	zeroes := LocalConfig{Epochs: 1, BatchSize: 1, LR: 1e-300}
	if err := zeroes.Check(); err != nil {
		t.Fatalf("momentum, weight decay and prox mu at zero rejected: %v", err)
	}
	for name, mutate := range map[string]func(*LocalConfig){
		"zero epochs":           func(c *LocalConfig) { c.Epochs = 0 },
		"zero batch":            func(c *LocalConfig) { c.BatchSize = 0 },
		"zero lr":               func(c *LocalConfig) { c.LR = 0 },
		"NaN lr":                func(c *LocalConfig) { c.LR = math.NaN() },
		"infinite lr":           func(c *LocalConfig) { c.LR = math.Inf(1) },
		"momentum one":          func(c *LocalConfig) { c.Momentum = 1 },
		"momentum past one":     func(c *LocalConfig) { c.Momentum = 1.5 },
		"negative momentum":     func(c *LocalConfig) { c.Momentum = -0.5 },
		"NaN momentum":          func(c *LocalConfig) { c.Momentum = math.NaN() },
		"negative weight decay": func(c *LocalConfig) { c.WeightDecay = -1 },
		"NaN weight decay":      func(c *LocalConfig) { c.WeightDecay = math.NaN() },
		"infinite weight decay": func(c *LocalConfig) { c.WeightDecay = math.Inf(1) },
		"negative prox mu":      func(c *LocalConfig) { c.ProxMu = -0.1 },
	} {
		bad := good
		mutate(&bad)
		if err := bad.Check(); err == nil {
			t.Errorf("%s: Check accepted %+v", name, bad)
		}
	}
}

func TestEnvCheck(t *testing.T) {
	env := tinyEnv(2, 1)
	if err := env.Check(); err != nil {
		t.Fatalf("valid environment rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Env){
		"no clients":    func(e *Env) { e.Clients = nil },
		"no factory":    func(e *Env) { e.Factory = nil },
		"zero rounds":   func(e *Env) { e.Rounds = 0 },
		"topk frac > 1": func(e *Env) { e.TopKFrac = 1.5 },
		"local config":  func(e *Env) { e.Local.LR = 0 },
		"momentum 1.5":  func(e *Env) { e.Local.Momentum = 1.5 },
		"momentum -0.5": func(e *Env) { e.Local.Momentum = -0.5 },
		"weight decay":  func(e *Env) { e.Local.WeightDecay = -1 },
	} {
		bad := *env
		mutate(&bad)
		if err := bad.Check(); err == nil {
			t.Errorf("%s: Check accepted the environment", name)
		}
	}
}

func TestQuant8ParamsStayUsable(t *testing.T) {
	// Quantizing a trained model's weights to 8 bits must not destroy its
	// accuracy on an easy task.
	r := rng.New(65)
	d := tinyDataset(60, r)
	model := tinyFactory(rng.New(66))
	new(TrainScratch).LocalUpdate(model, d, LocalConfig{Epochs: 30, BatchSize: 16, LR: 0.2}, r)
	_, accBefore := Evaluate(model, d, 32)
	vec, err := wire.Decode(wire.EncodeInto(nil, wire.Quant8, nn.FlattenParams(model)))
	if err != nil {
		t.Fatal(err)
	}
	nn.LoadParams(model, vec)
	_, accAfter := Evaluate(model, d, 32)
	if accBefore-accAfter > 0.05 {
		t.Fatalf("quant8 destroyed the model: %v → %v", accBefore, accAfter)
	}
}
