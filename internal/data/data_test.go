package data

import (
	"math"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

func toyDataset(n, classes int) *Dataset {
	d := &Dataset{
		Name: "toy", X: tensor.New(n, 4), Y: make([]int, n),
		Classes: classes, C: 1, H: 2, W: 2,
	}
	for i := 0; i < n; i++ {
		d.Y[i] = i % classes
		for j := 0; j < 4; j++ {
			d.X.Set(float64(i*10+j), i, j)
		}
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	d := toyDataset(10, 2)
	d.Validate() // must not panic
	d.Y[0] = 5
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	d.Validate()
}

func TestSubsetCopies(t *testing.T) {
	d := toyDataset(10, 2)
	s := d.Subset([]int{3, 7})
	if s.Len() != 2 || s.Y[0] != 1 || s.Y[1] != 1 {
		t.Fatalf("subset labels = %v", s.Y)
	}
	if s.X.At(0, 0) != 30 || s.X.At(1, 0) != 70 {
		t.Fatal("subset rows wrong")
	}
	s.X.Set(-1, 0, 0)
	if d.X.At(3, 0) != 30 {
		t.Fatal("Subset must copy, not alias")
	}
}

func TestLabelHistogramAndDistribution(t *testing.T) {
	d := toyDataset(10, 2)
	h := d.LabelHistogram()
	if h[0] != 5 || h[1] != 5 {
		t.Fatalf("histogram = %v", h)
	}
	p := d.LabelDistribution()
	if p[0] != 0.5 || p[1] != 0.5 {
		t.Fatalf("distribution = %v", p)
	}
}

func TestSplitDisjointComplete(t *testing.T) {
	d := toyDataset(10, 2)
	a, b := d.Split(0.7, rng.New(2))
	if a.Len() != 7 || b.Len() != 3 {
		t.Fatalf("split sizes = %d/%d", a.Len(), b.Len())
	}
	seen := make(map[float64]bool)
	for _, part := range []*Dataset{a, b} {
		for i := 0; i < part.Len(); i++ {
			v := part.X.At(i, 0)
			if seen[v] {
				t.Fatal("split parts overlap")
			}
			seen[v] = true
		}
	}
	if len(seen) != 10 {
		t.Fatal("split lost examples")
	}
}

func TestMerge(t *testing.T) {
	d := toyDataset(6, 2)
	a, b := d.Split(0.5, rng.New(3))
	m := Merge(a, b)
	if m.Len() != 6 {
		t.Fatalf("merged length = %d", m.Len())
	}
}

func TestFilterClasses(t *testing.T) {
	d := toyDataset(10, 5)
	f := d.FilterClasses([]int{0, 2})
	if f.Len() != 4 {
		t.Fatalf("filtered length = %d, want 4", f.Len())
	}
	for _, y := range f.Y {
		if y != 0 && y != 2 {
			t.Fatalf("unexpected label %d after filter", y)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SynthFMNIST(42)
	cfg.TrainPerClass, cfg.TestPerClass = 5, 3
	tr1, te1 := Generate(cfg)
	tr2, te2 := Generate(cfg)
	if !tensor.Equal(tr1.X, tr2.X, 0) || !tensor.Equal(te1.X, te2.X, 0) {
		t.Fatal("same seed must generate identical data")
	}
	cfg2 := cfg
	cfg2.Seed = 43
	tr3, _ := Generate(cfg2)
	if tensor.Equal(tr1.X, tr3.X, 1e-9) {
		t.Fatal("different seeds should generate different data")
	}
}

func TestGenerateShapesAndBalance(t *testing.T) {
	for _, cfg := range []SynthConfig{SynthCIFAR10(1), SynthFMNIST(1), SynthSVHN(1)} {
		cfg.TrainPerClass, cfg.TestPerClass = 8, 4
		tr, te := Generate(cfg)
		tr.Validate()
		te.Validate()
		if tr.Len() != 8*10 || te.Len() != 4*10 {
			t.Fatalf("%s sizes %d/%d", cfg.Name, tr.Len(), te.Len())
		}
		if tr.Dim() != cfg.C*16*16 {
			t.Fatalf("%s dim %d", cfg.Name, tr.Dim())
		}
		for k, c := range tr.LabelHistogram() {
			if c != 8 {
				t.Fatalf("%s class %d has %d train examples, want 8", cfg.Name, k, c)
			}
		}
	}
}

func TestGenerateClassStructureIsLearnable(t *testing.T) {
	// Nearest-prototype classification on the generated data should beat
	// chance by a wide margin — i.e. the class signal is real.
	cfg := SynthFMNIST(7)
	cfg.TrainPerClass, cfg.TestPerClass = 30, 10
	tr, te := Generate(cfg)
	// Estimate class means from train.
	dim := tr.Dim()
	means := make([][]float64, cfg.Classes)
	counts := make([]int, cfg.Classes)
	for k := range means {
		means[k] = make([]float64, dim)
	}
	for i := 0; i < tr.Len(); i++ {
		y := tr.Y[i]
		counts[y]++
		row := tr.X.Row(i)
		for j, v := range row {
			means[y][j] += v
		}
	}
	for k := range means {
		for j := range means[k] {
			means[k][j] /= float64(counts[k])
		}
	}
	correct := 0
	for i := 0; i < te.Len(); i++ {
		row := te.X.Row(i)
		best, bestD := 0, math.Inf(1)
		for k := range means {
			var d float64
			for j, v := range row {
				dv := v - means[k][j]
				d += dv * dv
			}
			if d < bestD {
				best, bestD = k, d
			}
		}
		if best == te.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(te.Len())
	if acc < 0.5 {
		t.Fatalf("nearest-prototype accuracy %v, class structure too weak", acc)
	}
}

func TestGenerateDifficultyOrdering(t *testing.T) {
	// The presets must preserve the paper's difficulty ordering:
	// FMNIST easiest, CIFAR-10 hardest. We compare the ratio of
	// between-class prototype distance to noise.
	sep := func(cfg SynthConfig) float64 {
		cfg.TrainPerClass, cfg.TestPerClass = 40, 1
		tr, _ := Generate(cfg)
		dim := tr.Dim()
		means := make([][]float64, cfg.Classes)
		counts := make([]int, cfg.Classes)
		for k := range means {
			means[k] = make([]float64, dim)
		}
		for i := 0; i < tr.Len(); i++ {
			y := tr.Y[i]
			counts[y]++
			for j, v := range tr.X.Row(i) {
				means[y][j] += v
			}
		}
		var avg float64
		n := 0
		for a := 0; a < cfg.Classes; a++ {
			for j := range means[a] {
				means[a][j] /= float64(counts[a])
			}
		}
		for a := 0; a < cfg.Classes; a++ {
			for b := a + 1; b < cfg.Classes; b++ {
				var d float64
				for j := range means[a] {
					dv := means[a][j] - means[b][j]
					d += dv * dv
				}
				avg += math.Sqrt(d / float64(dim))
				n++
			}
		}
		return avg / float64(n) / cfg.Noise
	}
	cifar, fmnist, svhn := sep(SynthCIFAR10(5)), sep(SynthFMNIST(5)), sep(SynthSVHN(5))
	if !(fmnist > svhn && svhn > cifar) {
		t.Fatalf("difficulty ordering violated: cifar=%v svhn=%v fmnist=%v", cifar, svhn, fmnist)
	}
}

func TestSynthConfigValidate(t *testing.T) {
	bad := SynthFMNIST(1)
	bad.Classes = 1
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	Generate(bad)
}

func TestGenerateExtraSharesPrototypes(t *testing.T) {
	cfg := SynthFMNIST(9)
	cfg.TrainPerClass, cfg.TestPerClass = 40, 10
	train, _ := Generate(cfg)
	extra := GenerateExtra(cfg, 0xabc, 40)
	extra.Validate()
	if extra.Len() != 400 {
		t.Fatalf("extra length = %d", extra.Len())
	}
	// Same prototypes: per-class means of the two splits must be close
	// (both are prototype + noise/sqrt(n)).
	meanOf := func(d *Dataset, class int) []float64 {
		m := make([]float64, d.Dim())
		n := 0
		for i := 0; i < d.Len(); i++ {
			if d.Y[i] != class {
				continue
			}
			n++
			for j, v := range d.X.Row(i) {
				m[j] += v
			}
		}
		for j := range m {
			m[j] /= float64(n)
		}
		return m
	}
	var dist, scale float64
	for k := 0; k < cfg.Classes; k++ {
		a, b := meanOf(train, k), meanOf(extra, k)
		for j := range a {
			d := a[j] - b[j]
			dist += d * d
			scale += a[j] * a[j]
		}
	}
	if dist > 0.25*scale {
		t.Fatalf("extra split means diverge from train means: %v vs scale %v", dist, scale)
	}
}

func TestGenerateExtraIndependentOfTrain(t *testing.T) {
	cfg := SynthFMNIST(10)
	cfg.TrainPerClass, cfg.TestPerClass = 10, 5
	train, _ := Generate(cfg)
	extra := GenerateExtra(cfg, 0xdef, 10)
	// The raw samples must differ (fresh noise), even though prototypes
	// are shared.
	same := 0
	for i := 0; i < train.Len() && i < extra.Len(); i++ {
		if train.X.At(i, 0) == extra.X.At(i, 0) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("extra split duplicates train samples (%d matches)", same)
	}
}

func TestGenerateExtraReservedLabelReproducesTrain(t *testing.T) {
	cfg := SynthSVHN(11)
	cfg.TrainPerClass, cfg.TestPerClass = 8, 4
	train, _ := Generate(cfg)
	same := GenerateExtra(cfg, 0x7a, 8)
	if !tensor.Equal(train.X, same.X, 0) {
		t.Fatal("stream label 0x7a should reproduce the train split")
	}
}

func TestGenerateExtraValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("perClass=0 did not panic")
		}
	}()
	GenerateExtra(SynthFMNIST(1), 0x1, 0)
}
