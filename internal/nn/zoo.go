package nn

import (
	"fmt"
	"math"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// MLP builds a multilayer perceptron with ReLU between layers and a linear
// classifier head. dims is [in, hidden..., out].
func MLP(r *rng.Rng, dims ...int) *Sequential {
	if len(dims) < 2 {
		panic(fmt.Sprintf("nn: MLP needs at least [in, out] dims, got %v", dims))
	}
	var layers []Layer[float64]
	for i := 0; i < len(dims)-1; i++ {
		layers = append(layers, NewDense(dims[i], dims[i+1]))
		if i < len(dims)-2 {
			layers = append(layers, NewReLU(dims[i+1]))
		}
	}
	return HeInit(NewSequential(layers...), r)
}

// scaleWidth applies a multiplicative width scale with a floor of 1.
func scaleWidth(w int, scale float64) int {
	s := int(math.Round(float64(w) * scale))
	if s < 1 {
		return 1
	}
	return s
}

// LeNet5 builds the LeNet-5 architecture used for Table I:
//
//	conv5x5(→6) → relu → pool → conv5x5(→16) → relu → pool →
//	dense(120) → relu → dense(84) → relu → dense(classes)
//
// The first convolution pads so that odd input sizes still pool cleanly.
// widthScale < 1 narrows every layer proportionally (the simulator's
// datasets are synthetic, so a narrower net trains faster with the same
// dynamics); widthScale = 1 is the faithful architecture.
func LeNet5(r *rng.Rng, inC, inH, inW, classes int, widthScale float64) *Sequential {
	if classes < 2 {
		panic(fmt.Sprintf("nn: LeNet5 needs >=2 classes, got %d", classes))
	}
	c1 := scaleWidth(6, widthScale)
	c2 := scaleWidth(16, widthScale)
	f1 := scaleWidth(120, widthScale)
	f2 := scaleWidth(84, widthScale)

	// Pad the first conv so its output is even (pool-friendly) and
	// spatial size is preserved for 28/32-px inputs (pad 2, as in the
	// standard 28x28 MNIST setup).
	g1 := tensor.ConvGeom{InC: inC, InH: inH, InW: inW, KH: 5, KW: 5, Stride: 1, Pad: 2}
	conv1 := NewConv2D(g1, c1)
	h1, w1 := g1.OutH(), g1.OutW()
	if h1%2 != 0 || w1%2 != 0 {
		panic(fmt.Sprintf("nn: LeNet5 conv1 output %dx%d not poolable; use even input sizes", h1, w1))
	}
	pool1 := NewMaxPool2(c1, h1, w1)
	h1, w1 = h1/2, w1/2

	g2 := tensor.ConvGeom{InC: c1, InH: h1, InW: w1, KH: 5, KW: 5, Stride: 1, Pad: 0}
	if g2.OutH() < 2 || g2.OutH()%2 != 0 {
		// For small inputs fall back to pad 2 to keep the volume poolable.
		g2.Pad = 2
	}
	conv2 := NewConv2D(g2, c2)
	h2, w2 := g2.OutH(), g2.OutW()
	pool2 := NewMaxPool2(c2, h2, w2)
	h2, w2 = h2/2, w2/2

	flat := c2 * h2 * w2
	return HeInit(NewSequential(
		conv1, NewReLU(conv1.OutDim()), pool1,
		conv2, NewReLU(conv2.OutDim()), pool2,
		NewDense(flat, f1), NewReLU(f1),
		NewDense(f1, f2), NewReLU(f2),
		NewDense(f2, classes),
	), r)
}

// MiniVGG16 builds a VGG-16-shaped network: the canonical 13 convolutional
// layers in five blocks (2-2-3-3-3 with 2×2 pooling after each block)
// followed by 3 fully connected layers. base scales the channel widths
// (VGG-16's 64 → base). The input must be 32×32 so the five pools reduce
// to 1×1.
//
// Weight-layer numbering therefore matches the paper's Fig. 1 exactly:
// weight layers 1-13 are convolutional (CL), 14-16 fully connected (FL).
func MiniVGG16(r *rng.Rng, inC, classes, base int) *Sequential {
	if base < 1 {
		panic(fmt.Sprintf("nn: MiniVGG16 base must be >=1, got %d", base))
	}
	const in = 32
	// Channel multipliers per block, relative to VGG's 64/128/256/512/512.
	blocks := [][]int{
		{base, base},
		{2 * base, 2 * base},
		{4 * base, 4 * base, 4 * base},
		{8 * base, 8 * base, 8 * base},
		{8 * base, 8 * base, 8 * base},
	}
	var layers []Layer[float64]
	c, h, w := inC, in, in
	for _, block := range blocks {
		for _, outC := range block {
			g := tensor.ConvGeom{InC: c, InH: h, InW: w, KH: 3, KW: 3, Stride: 1, Pad: 1}
			conv := NewConv2D(g, outC)
			layers = append(layers, conv, NewReLU(conv.OutDim()))
			c = outC
		}
		layers = append(layers, NewMaxPool2(c, h, w))
		h, w = h/2, w/2
	}
	flat := c * h * w // c × 1 × 1
	fcw := 8 * base   // VGG's 4096 → 8·base
	layers = append(layers,
		NewDense(flat, fcw), NewReLU(fcw),
		NewDense(fcw, fcw), NewReLU(fcw),
		NewDense(fcw, classes),
	)
	return HeInit(NewSequential(layers...), r)
}
