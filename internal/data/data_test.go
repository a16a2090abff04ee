package data

import (
	"fmt"
	"math"
	"slices"
	"testing"

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

// Validate panics if the dataset is internally inconsistent: the check
// the generator tests hold every dataset they build to.
func (d *Dataset) Validate() {
	if d.X.Shape[0] != len(d.Y) {
		panic(fmt.Sprintf("data: %s has %d rows but %d labels", d.Name, d.X.Shape[0], len(d.Y)))
	}
	if d.X.Shape[1] != d.Dim() {
		panic(fmt.Sprintf("data: %s feature width %d != C*H*W %d", d.Name, d.X.Shape[1], d.Dim()))
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.Classes {
			panic(fmt.Sprintf("data: %s label %d at row %d out of range", d.Name, y, i))
		}
	}
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

func TestLabelHistogram(t *testing.T) {
	d := toyDataset(10, 2)
	h := d.LabelHistogram()
	if h[0] != 5 || h[1] != 5 {
		t.Fatalf("histogram = %v", h)
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
	if !slices.Equal(tr1.X.Data, tr2.X.Data) || !slices.Equal(te1.X.Data, te2.X.Data) {
		t.Fatal("same seed must generate identical data")
	}
	cfg2 := cfg
	cfg2.Seed = 43
	tr3, _ := Generate(cfg2)
	if slices.Equal(tr1.X.Data, tr3.X.Data) {
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

func TestSynthConfigCheck(t *testing.T) {
	if err := SynthFMNIST(1).Check(); err != nil {
		t.Fatalf("preset rejected: %v", err)
	}
	for name, mutate := range map[string]func(*SynthConfig){
		"one class":           func(c *SynthConfig) { c.Classes = 1 },
		"zero width":          func(c *SynthConfig) { c.W = 0 },
		"zero train":          func(c *SynthConfig) { c.TrainPerClass = 0 },
		"zero test":           func(c *SynthConfig) { c.TestPerClass = 0 },
		"negative noise":      func(c *SynthConfig) { c.Noise = -1 },
		"negative separation": func(c *SynthConfig) { c.ClassSep = -0.5 },
	} {
		bad := SynthFMNIST(1)
		mutate(&bad)
		if bad.Check() == nil {
			t.Errorf("%s: Check accepted the config", name)
		}
	}
	// In-process, a config Check rejects is a programmer error.
	bad := SynthFMNIST(1)
	bad.Classes = 1
	defer func() {
		if _, ok := recover().(error); !ok {
			t.Fatal("Generate did not panic with Check's error")
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
	if !slices.Equal(train.X.Data, same.X.Data) {
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
