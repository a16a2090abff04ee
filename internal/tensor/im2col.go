package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution over CHW images.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	Stride        int
	Pad           int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate panics if the geometry is degenerate.
func (g ConvGeom) Validate() {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry %+v", g))
	}
	if g.Stride <= 0 || g.Pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv stride/pad %+v", g))
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields empty output", g))
	}
}

// Im2ColInto unrolls a single CHW image (flat slice of length
// InC*InH*InW) into a (OutH*OutW) × (InC*KH*KW) row-major matrix written
// into the flat slice dst, whose length must be exactly that product.
// Each row is the receptive field of one output pixel (out-of-range taps
// read as zero), so convolution becomes cols · Wᵀ. It is allocation-free:
// layers unroll each image of a batch into its slice of a shared
// workspace.
func Im2ColInto[T Float](img []T, g ConvGeom, dst []T) {
	g.Validate()
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(dst) != outH*outW*rowLen {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d, want %d", len(dst), outH*outW*rowLen))
	}
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			dst := dst[(oy*outW+ox)*rowLen:][:rowLen]
			di := 0
			for c := 0; c < g.InC; c++ {
				chanBase := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							dst[di] = 0
						} else {
							dst[di] = img[chanBase+iy*g.InW+ix]
						}
						di++
					}
				}
			}
		}
	}
}

// Im2Col32Into is Im2ColInto for float32 data.
func Im2Col32Into(img []float32, g ConvGeom, dst []float32) { Im2ColInto(img, g, dst) }

// Col2ImInto scatters the columns gradient back into image space: the
// adjoint of Im2ColInto. grad is the flat (OutH*OutW) × (InC*KH*KW)
// gradient, of exactly that length; the result is accumulated into img,
// which the caller must pre-zero if a fresh gradient is wanted.
func Col2ImInto[T Float](grad []T, g ConvGeom, img []T) {
	g.Validate()
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(grad) != outH*outW*rowLen {
		panic(fmt.Sprintf("tensor: Col2Im grad length %d, want %d", len(grad), outH*outW*rowLen))
	}
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			src := grad[(oy*outW+ox)*rowLen:][:rowLen]
			si := 0
			for c := 0; c < g.InC; c++ {
				chanBase := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							img[chanBase+iy*g.InW+ix] += src[si]
						}
						si++
					}
				}
			}
		}
	}
}

// Col2Im32Into is Col2ImInto for float32 data.
func Col2Im32Into(grad []float32, g ConvGeom, img []float32) { Col2ImInto(grad, g, img) }
