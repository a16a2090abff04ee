package data

import (
	"fmt"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// SynthConfig describes a synthetic class-conditional image distribution.
//
// Each class k is assigned a smooth random "prototype" image
// μ_k = background + ClassSep · smooth(white noise_k); a sample of class k
// is μ_k plus i.i.d. pixel noise of scale Noise. The ratio ClassSep/Noise
// sets the Bayes-achievable accuracy, which is how the three presets below
// emulate the relative difficulty of CIFAR-10, FMNIST and SVHN in the
// paper's Table I.
type SynthConfig struct {
	Name          string
	C, H, W       int
	Classes       int
	TrainPerClass int
	TestPerClass  int
	ClassSep      float64 // scale of the class-specific prototype component
	Noise         float64 // per-sample pixel noise
	SharedBG      float64 // scale of the background shared by all classes
	Smooth        int     // box-smoothing passes applied to prototypes
	Seed          uint64  // generator seed; same seed ⇒ same dataset
}

// Check rejects a degenerate configuration: the one rule set for a recipe
// built in-process and for one that arrived off the wire.
func (c SynthConfig) Check() error {
	if c.C <= 0 || c.H <= 0 || c.W <= 0 {
		return fmt.Errorf("data: invalid image geometry %dx%dx%d", c.C, c.H, c.W)
	}
	if c.Classes < 2 {
		return fmt.Errorf("data: need >=2 classes, got %d", c.Classes)
	}
	if c.TrainPerClass < 1 || c.TestPerClass < 1 {
		return fmt.Errorf("data: per-class counts must be positive: %d/%d", c.TrainPerClass, c.TestPerClass)
	}
	if c.Noise < 0 || c.ClassSep < 0 {
		return fmt.Errorf("data: negative noise %v or separation %v", c.Noise, c.ClassSep)
	}
	return nil
}

// SynthCIFAR10 emulates CIFAR-10: 3-channel images, 10 classes, low
// separation-to-noise ratio (the hardest of the three; the paper's
// absolute accuracies there are lowest).
func SynthCIFAR10(seed uint64) SynthConfig {
	return SynthConfig{
		Name: "synth-cifar10", C: 3, H: 16, W: 16, Classes: 10,
		TrainPerClass: 300, TestPerClass: 80,
		ClassSep: 0.45, Noise: 1.1, SharedBG: 0.5, Smooth: 2, Seed: seed,
	}
}

// SynthFMNIST emulates Fashion-MNIST: single-channel, 10 classes, high
// separation (the easiest of the three).
func SynthFMNIST(seed uint64) SynthConfig {
	return SynthConfig{
		Name: "synth-fmnist", C: 1, H: 16, W: 16, Classes: 10,
		TrainPerClass: 300, TestPerClass: 80,
		ClassSep: 1.0, Noise: 0.9, SharedBG: 0.4, Smooth: 2, Seed: seed,
	}
}

// SynthSVHN emulates SVHN: 3-channel digits with medium separation.
func SynthSVHN(seed uint64) SynthConfig {
	return SynthConfig{
		Name: "synth-svhn", C: 3, H: 16, W: 16, Classes: 10,
		TrainPerClass: 300, TestPerClass: 80,
		ClassSep: 0.7, Noise: 1.0, SharedBG: 0.6, Smooth: 2, Seed: seed,
	}
}

// prototypes builds the deterministic per-class prototype images of a
// configuration (the same for every split drawn from it).
func prototypes(cfg SynthConfig) [][]float64 {
	r := rng.New(cfg.Seed)
	dim := cfg.C * cfg.H * cfg.W

	// Shared background common to all classes (so classes are not
	// trivially orthogonal).
	bg := make([]float64, dim)
	bgRng := r.Derive(0xb6)
	for i := range bg {
		bg[i] = cfg.SharedBG * bgRng.NormFloat64()
	}
	smoothImage(bg, cfg.C, cfg.H, cfg.W, cfg.Smooth)

	protos := make([][]float64, cfg.Classes)
	for k := 0; k < cfg.Classes; k++ {
		pr := r.Derive(0xc1, uint64(k))
		p := make([]float64, dim)
		for i := range p {
			p[i] = cfg.ClassSep * pr.NormFloat64()
		}
		smoothImage(p, cfg.C, cfg.H, cfg.W, cfg.Smooth)
		for i := range p {
			p[i] += bg[i]
		}
		protos[k] = p
	}
	return protos
}

// genSplit draws perClass fresh examples per class around the prototypes,
// using streamLabel to separate independent splits.
func genSplit(cfg SynthConfig, protos [][]float64, perClass int, streamLabel uint64) *Dataset {
	r := rng.New(cfg.Seed)
	dim := cfg.C * cfg.H * cfg.W
	n := perClass * cfg.Classes
	d := &Dataset{
		Name:    cfg.Name,
		X:       tensor.New(n, dim),
		Y:       make([]int, n),
		Classes: cfg.Classes,
		C:       cfg.C, H: cfg.H, W: cfg.W,
	}
	row := 0
	for k := 0; k < cfg.Classes; k++ {
		sr := r.Derive(streamLabel, uint64(k))
		for i := 0; i < perClass; i++ {
			dst := d.X.Row(row)
			for j := range dst {
				dst[j] = protos[k][j] + float64(cfg.Noise*sr.NormFloat64())
			}
			d.Y[row] = k
			row++
		}
	}
	// Shuffle rows so class order carries no information.
	shuffleRng := r.Derive(streamLabel, 0xff)
	order := shuffleRng.Perm(n)
	return d.Subset(order)
}

// Generate materializes the train and test splits of a synthetic
// distribution. Generation is fully deterministic in cfg.Seed. A cfg that
// Check rejects is a programmer error here and panics with Check's error.
func Generate(cfg SynthConfig) (train, test *Dataset) {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	protos := prototypes(cfg)
	return genSplit(cfg, protos, cfg.TrainPerClass, 0x7a),
		genSplit(cfg, protos, cfg.TestPerClass, 0x7e)
}

// GenerateExtra materializes an additional independent split drawn from
// the same class prototypes as Generate(cfg) — e.g. data for clients that
// join after training started. streamLabel distinguishes independent
// extra splits; the reserved labels 0x7a (train) and 0x7e (test) reproduce
// the primary splits.
func GenerateExtra(cfg SynthConfig, streamLabel uint64, perClass int) *Dataset {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	if perClass < 1 {
		panic(fmt.Sprintf("data: GenerateExtra perClass = %d", perClass))
	}
	return genSplit(cfg, prototypes(cfg), perClass, streamLabel)
}

// smoothImage applies `passes` rounds of 3×3 box smoothing per channel,
// giving prototypes the local spatial correlation natural images have
// (which is what gives convolutions an edge over flat models).
func smoothImage(img []float64, c, h, w int, passes int) {
	if passes <= 0 {
		return
	}
	tmp := make([]float64, len(img))
	for p := 0; p < passes; p++ {
		for ch := 0; ch < c; ch++ {
			base := ch * h * w
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					var sum float64
					var cnt int
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							ny, nx := y+dy, x+dx
							if ny < 0 || ny >= h || nx < 0 || nx >= w {
								continue
							}
							sum += img[base+ny*w+nx]
							cnt++
						}
					}
					tmp[base+y*w+x] = sum / float64(cnt)
				}
			}
		}
		copy(img, tmp)
	}
	// Renormalize to preserve overall energy removed by averaging.
	var norm float64
	for _, v := range img {
		norm += float64(v * v)
	}
	if norm > 0 {
		scale := 1.0
		// Smoothing shrinks variance roughly 3x per pass; rescale to unit-ish.
		for p := 0; p < passes; p++ {
			scale *= 1.7
		}
		for i := range img {
			img[i] *= scale
		}
	}
}
