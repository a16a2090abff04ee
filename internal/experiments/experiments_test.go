package experiments

// Unit tests on tiny inputs. The experiments themselves run end to end in
// one place only: cmd/fedsim's golden transcripts (TestGolden), which pin
// every table and [PASS]/[FAIL] line byte for byte.

import (
	"bytes"
	"strings"
	"testing"

	"fedclust/internal/fl"
	"fedclust/internal/tensor"
)

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

// TestProbeLayersTrainOnEnvDType: the layer probes' local passes, run in
// parallel across clients, train on env.DType. Float32 moves the weights,
// hence the distances, in bits but leaves the printed ARI and block scores
// as they are, so no transcript can see it; the distances are compared here.
func TestProbeLayersTrainOnEnvDType(t *testing.T) {
	w := QuickWorkload("fmnist")
	w.Clients = 2
	dist := map[fl.DType]*tensor.Tensor{}
	for _, dtype := range []fl.DType{fl.Float64, fl.Float32} {
		c := Common{Seed: 1, DType: dtype}
		dist[dtype] = probeLayers(c, nil, c.Env(w), []int{0, 1}, []int{5})[0].Dist
	}
	for i, v := range dist[fl.Float64].Data {
		if dist[fl.Float32].Data[i] != v {
			return
		}
	}
	t.Fatal("the float32 probe distances are bit-identical to the float64 ones: env.DType did not reach training")
}

func TestNewTrainerStalenessMethods(t *testing.T) {
	w := QuickWorkload("fmnist")
	for _, m := range []string{"FedAvgStale", "FedBuff"} {
		if tr := NewTrainer(m, w); tr.Name() != m {
			t.Fatalf("trainer for %q reports name %q", m, tr.Name())
		}
	}
}
