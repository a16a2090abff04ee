package experiments

import (
	"bytes"
	"strings"
	"testing"

	"fedclust/internal/fl"
	"fedclust/internal/tensor"
	"fedclust/internal/wire"
)

// skipInShort gates the multi-second end-to-end experiment runs so that
// `go test -short ./...` finishes in seconds. CI runs both modes; the
// full experiment suite still runs on every default `go test ./...`.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy experiment run skipped in -short mode")
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("A", "Blong")
	tab.AddRow("x")
	tab.AddRow("yy", "z")
	tab.AddRow("α→β", "1 ± 2") // multi-byte runes occupy one column each
	var buf bytes.Buffer
	tab.Render(&buf)
	want := "A    Blong\n----------\nx         \nyy   z    \nα→β  1 ± 2\n"
	if buf.String() != want {
		t.Fatalf("table = %q, want %q", buf.String(), want)
	}
}

// passing fails the test on the first shape check that does not hold.
func passing(t *testing.T, checks []Check, want int) {
	t.Helper()
	if len(checks) != want {
		t.Fatalf("%d shape checks, want %d: %v", len(checks), want, checks)
	}
	for _, c := range checks {
		if !c.OK {
			t.Fatalf("shape check failed: %v", c)
		}
	}
}

func TestRenderHeatmapShadesByMagnitude(t *testing.T) {
	m := tensor.New(2, 2)
	m.Set(10, 0, 1)
	m.Set(10, 1, 0)
	var buf bytes.Buffer
	RenderHeatmap(&buf, "test", m)
	out := buf.String()
	if !strings.Contains(out, "██") {
		t.Fatalf("max cell not rendered dark:\n%s", out)
	}
	if !strings.Contains(out, "test") {
		t.Fatal("title missing")
	}
}

func TestBlockScore(t *testing.T) {
	// Perfect 2-block matrix: intra 1, inter 10 → score 10.
	m := tensor.New(4, 4)
	truth := []int{0, 0, 1, 1}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			if truth[i] == truth[j] {
				m.Set(1, i, j)
			} else {
				m.Set(10, i, j)
			}
		}
	}
	if s := BlockScore(m, truth); s != 10 {
		t.Fatalf("BlockScore = %v, want 10", s)
	}
	// No structure: score ≈ 1.
	flat := tensor.New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				flat.Set(5, i, j)
			}
		}
	}
	if s := BlockScore(flat, truth); s != 1 {
		t.Fatalf("flat BlockScore = %v, want 1", s)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	tab := Table{Header: []string{"a", "b"}, Rows: [][]string{{"1", "x,y"}, {"2", `q"t`}}}
	err := tab.WriteCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"x,y"`) || !strings.Contains(out, `"q""t"`) {
		t.Fatalf("CSV quoting wrong: %q", out)
	}
}

func TestDatasetConfigNames(t *testing.T) {
	for _, name := range DatasetNames {
		cfg := DatasetConfig(name, 1)
		if cfg.Classes != 10 {
			t.Fatalf("%s classes = %d", name, cfg.Classes)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset did not panic")
		}
	}()
	DatasetConfig("mnist", 1)
}

func TestNewTrainerAllMethods(t *testing.T) {
	w := QuickWorkload("fmnist")
	for _, m := range MethodNames {
		tr := NewTrainer(m, w)
		if tr.Name() != m {
			t.Fatalf("trainer for %q reports name %q", m, tr.Name())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown method did not panic")
		}
	}()
	NewTrainer("FedNope", w)
}

func TestBuildEnvStructure(t *testing.T) {
	w := QuickWorkload("cifar10")
	w.Clients = 6
	env := Common{Seed: 7}.Env(w)
	if len(env.Clients) != 6 {
		t.Fatalf("clients = %d", len(env.Clients))
	}
	model := env.NewModel()
	// LeNet-5 has 5 weight layers.
	y := model.Forward(env.Clients[0].Train.X, false)
	if y.Shape[1] != 10 {
		t.Fatalf("model output classes = %d", y.Shape[1])
	}
	// Determinism across identical builds.
	env2 := Common{Seed: 7}.Env(w)
	if env.Clients[0].Train.Len() != env2.Clients[0].Train.Len() {
		t.Fatal("BuildEnv not deterministic")
	}
}

func TestTable1CellStats(t *testing.T) {
	c := Table1Cell{Accs: []float64{0.5, 0.7}}
	if c.Mean() != 60 {
		t.Fatalf("Mean = %v", c.Mean())
	}
	if c.Std() < 14 || c.Std() > 15 {
		t.Fatalf("Std = %v", c.Std())
	}
}

func TestRunTable1MiniGrid(t *testing.T) {
	skipInShort(t)
	// A miniature grid (1 dataset, 2 methods, 1 seed, tiny workload)
	// exercises the full Table-I plumbing quickly.
	opts := Table1Options{
		Common:   Common{Quick: true},
		Datasets: []string{"fmnist"},
		Methods:  []string{"FedAvg", "FedClust"},
		Seeds:    []uint64{1},
	}
	res := RunTable1(opts)
	for _, m := range opts.Methods {
		c := res.Cell(m, "fmnist")
		if len(c.Accs) != 1 {
			t.Fatalf("%s accs = %v", m, c.Accs)
		}
		if c.Accs[0] <= 0.1 || c.Accs[0] > 1 {
			t.Fatalf("%s accuracy %v implausible", m, c.Accs[0])
		}
	}
}

func TestShapeChecksFormat(t *testing.T) {
	res := &Table1Result{Datasets: []string{"fmnist"}, Methods: []string{"FedAvg", "FedClust"}, Cells: []Table1Cell{
		{Method: "FedAvg", Dataset: "fmnist", Accs: []float64{0.5}},
		{Method: "FedClust", Dataset: "fmnist", Accs: []float64{0.9}},
	}}
	checks := res.ShapeChecks()
	if len(checks) != 3 {
		t.Fatalf("checks = %v, want vs-FedAvg, vs-CFL, best-on-fmnist", checks)
	}
	if c := checks[0]; !c.OK || c.String() != "[PASS] FedClust > FedAvg on fmnist" {
		t.Fatalf("check 0 = %v", c)
	}
	res.Cells[1].Accs = []float64{0.4}
	if c := res.ShapeChecks()[0]; c.OK || c.String() != "[FAIL] FedClust > FedAvg on fmnist" {
		t.Fatalf("check 0 after swapping the order = %v", c)
	}
}

func TestRunCommQuick(t *testing.T) {
	skipInShort(t)
	opts := DefaultCommOptions()
	opts.Quick = true
	opts.Rounds = 4
	res := RunComm(opts)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// One-shot formation, cheaper than CFL's, less downlink than IFCA's,
	// true groups recovered.
	passing(t, res.ShapeChecks(), 4)
}

func TestRunNewcomerQuick(t *testing.T) {
	skipInShort(t)
	for _, dtype := range []fl.DType{fl.Float64, fl.Float32} {
		opts := DefaultNewcomerOptions()
		opts.Newcomers = 4
		opts.DType = dtype
		res := RunNewcomer(opts)
		if res.Total != 4 || len(res.Rows) != 4 {
			t.Fatalf("%v: total = %d, rows = %d", dtype, res.Total, len(res.Rows))
		}
		// Every arrival routed, served model above the untrained floor.
		passing(t, res.ShapeChecks(), 2)
	}
}

var quickDefaults = Common{Dataset: "fmnist", Seed: 1, Quick: true}

func TestRunLayerAblationQuick(t *testing.T) {
	res := RunLayerAblation(quickDefaults)
	if len(res.Rows) != 5 { // LeNet-5 weight layers
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	passing(t, res.ShapeChecks(), 1)
	if last := res.Rows[4]; last.ARI < 0.99 {
		t.Fatalf("final layer ARI = %v", last.ARI)
	}

	// -dtype reaches the probe's local passes: float32 training moves the
	// weights, hence the distances, in bits — not the clustering.
	opts := quickDefaults
	opts.DType = fl.Float32
	res32 := RunLayerAblation(opts)
	for i, row := range res.Rows {
		row32 := res32.Rows[i]
		if row32.ARI != row.ARI {
			t.Errorf("layer %d: ARI %v under float32, %v under float64", row.Layer, row32.ARI, row.ARI)
		}
		same := true
		for j, v := range row.Dist.Data {
			same = same && row32.Dist.Data[j] == v
		}
		if same {
			t.Errorf("layer %d: float32 distances are bit-identical to float64 — the dtype did not reach training", row.Layer)
		}
	}
}

func TestRunLinkageAblationQuick(t *testing.T) {
	skipInShort(t)
	res := RunLinkageAblation(quickDefaults)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Average linkage (the default) must recover the groups.
	for _, row := range res.Rows {
		if row.Variant == "average" && row.ARI < 0.99 {
			t.Fatalf("average linkage ARI = %v", row.ARI)
		}
	}
}

func TestRunFig1Tiny(t *testing.T) {
	opts := DefaultFig1Options()
	opts.ClientsPerGroup = 2
	opts.TrainPerClass = 20
	opts.Epochs = 1
	opts.ProbeLayers = []int{1, 16}
	res := RunFig1(opts)
	if len(res.Layers) != 2 {
		t.Fatalf("layers = %d", len(res.Layers))
	}
	if res.Layers[0].Kind != "CL" || res.Layers[1].Kind != "FL" {
		t.Fatalf("layer kinds = %v/%v", res.Layers[0].Kind, res.Layers[1].Kind)
	}
	// Final layer separates the groups better than layer 1 and HC on it
	// recovers them.
	passing(t, res.ShapeChecks(), 2)
}

func TestRunAlphaSweepTiny(t *testing.T) {
	skipInShort(t)
	opts := DefaultAlphaSweepOptions()
	opts.Quick = true
	opts.Alphas = []float64{0.1, 10}
	opts.Methods = []string{"FedAvg", "FedClust"}
	res := RunAlphaSweep(opts)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Acc <= 0 || row.Acc > 1 || res.Acc(row.Method, row.Alpha) != row.Acc {
			t.Fatalf("%s α=%v acc %v", row.Method, row.Alpha, row.Acc)
		}
	}
}

func TestRunScaleTiny(t *testing.T) {
	skipInShort(t)
	opts := DefaultScaleOptions()
	opts.ClientSizes = []int{4, 8}
	res := RunScale(opts)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.ClusteringTime <= 0 || r.RoundTime <= 0 {
			t.Fatalf("timings not recorded: %+v", r)
		}
		if r.ARI < 0.99 {
			t.Fatalf("scale run ARI = %v at n=%d", r.ARI, r.Clients)
		}
	}
}

func TestRunSelectorAblationQuick(t *testing.T) {
	skipInShort(t)
	res := RunSelectorAblation(quickDefaults)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The default rule finds the 2 planted groups.
	passing(t, res.ShapeChecks(), 1)
	if row := res.Rows[2]; row.Variant != "oracle k=2" || row.K != 2 {
		t.Fatalf("oracle rule: %+v", row)
	}
}

func TestRunCompressionQuick(t *testing.T) {
	skipInShort(t)
	// One method keeps the sweep at 5 full runs; FedAvg is the benchmark
	// config the acceptance shape checks are pinned to.
	opts := DefaultCompressionOptions()
	opts.Methods = []string{"FedAvg"}
	res := RunCompression(opts)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 codecs", len(res.Rows))
	}
	base := res.Row("FedAvg", wire.Float64)
	q8 := res.Row("FedAvg", wire.Quant8)
	if base == nil || q8 == nil {
		t.Fatal("missing frontier rows")
	}
	if base.UpBytes <= 0 || base.DownBytes <= 0 {
		t.Fatalf("baseline traffic not measured: %+v", base)
	}
	if q8.UpBytes*7 >= base.UpBytes {
		t.Fatalf("quant8 uplink not ~8x smaller: %d vs %d", q8.UpBytes, base.UpBytes)
	}
	// The headline acceptance point — top-k × quant8 at the 1% default
	// cuts uplink ≥10× at ≤1pp — and the same bar for plain top-k.
	passing(t, res.ShapeChecks(), 2)
}

func TestNewTrainerStalenessMethods(t *testing.T) {
	w := QuickWorkload("fmnist")
	for _, m := range []string{"FedAvgStale", "FedBuff"} {
		if tr := NewTrainer(m, w); tr.Name() != m {
			t.Fatalf("trainer for %q reports name %q", m, tr.Name())
		}
	}
}

func TestRunStragglersTiny(t *testing.T) {
	skipInShort(t)
	opts := DefaultStragglerOptions()
	opts.Quick = true
	opts.DropoutRates = []float64{0, 0.3}
	opts.Methods = []string{"FedAvg", "FedAvgStale", "FedClust"}
	res := RunStragglers(opts)
	for _, m := range opts.Methods {
		for _, rate := range opts.DropoutRates {
			c, ok := res.Row(m, rate)
			if !ok {
				t.Fatalf("missing cell %s @ %v", m, rate)
			}
			if c.Acc <= 0 || c.Acc > 1 {
				t.Fatalf("%s drop=%v acc %v", m, rate, c.Acc)
			}
		}
	}
	// FedClust still forms clusters under the scenario; FedAvg never does.
	if c, _ := res.Row("FedClust", 0.3); c.FormationRound < 0 {
		t.Fatal("FedClust reported no formation round under scenario")
	}
	if c, _ := res.Row("FedAvg", 0); c.FormationRound != -1 {
		t.Fatal("FedAvg reported a formation round")
	}
	// The rows are listed method-major, the order of the CSV.
	if len(res.Rows) != 6 || res.Rows[1].Method != "FedAvg" || res.Rows[1].Rate != 0.3 {
		t.Fatalf("rows not method-major: %+v", res.Rows)
	}
}

func TestRunStragglersControlSkipsSweep(t *testing.T) {
	skipInShort(t)
	opts := DefaultStragglerOptions()
	opts.Quick = true
	opts.Scenario = false
	opts.DropoutRates = []float64{0, 0.5}
	opts.Methods = []string{"FedAvg"}
	res := RunStragglers(opts)
	if _, ok := res.Row("FedAvg", 0); !ok {
		t.Fatal("control run missing baseline cell")
	}
	if _, ok := res.Row("FedAvg", 0.5); ok {
		t.Fatal("control run should stop after the first rate")
	}
}

func TestRunHostileTiny(t *testing.T) {
	skipInShort(t)
	opts := DefaultHostileOptions()
	opts.Quick = true
	opts.ByzantineFracs = []float64{0, 0.3}
	opts.Aggregators = []string{"mean", "median"}
	opts.Methods = []string{"FedAvg"}
	res := RunHostile(opts)
	for _, a := range opts.Aggregators {
		for _, f := range opts.ByzantineFracs {
			c, ok := res.Row("FedAvg", a, f)
			if !ok {
				t.Fatalf("missing cell %s @ %v", a, f)
			}
			if c.Acc <= 0 || c.Acc > 1 || c.HonestAcc <= 0 || c.HonestAcc > 1 {
				t.Fatalf("%s byz=%v acc %v honest %v", a, f, c.Acc, c.HonestAcc)
			}
			if f == 0 && c.HonestAcc != c.Acc {
				t.Fatalf("benign point: HonestAcc %v != Acc %v", c.HonestAcc, c.Acc)
			}
		}
	}
	if res.Byzantines[0.3] < 1 {
		t.Fatalf("no attackers drawn at 0.3: %v", res.Byzantines)
	}
	// The drawn cohort mask backs the honest metric: its count must match.
	n := 0
	for _, b := range res.byzMask[0.3] {
		if b {
			n++
		}
	}
	if n != res.Byzantines[0.3] {
		t.Fatalf("mask marks %d byzantine, Byzantines says %d", n, res.Byzantines[0.3])
	}
	// Median recovery at the design point + undefended-mean degradation.
	if checks := res.ShapeChecks(); len(checks) != 2 {
		t.Fatalf("expected 2 shape checks, got %d: %v", len(checks), checks)
	}
	if len(res.Rows) != 4 || res.Rows[1].Aggregator != "mean" || res.Rows[1].Frac != 0.3 {
		t.Fatalf("rows not aggregator-major: %+v", res.Rows)
	}
}
