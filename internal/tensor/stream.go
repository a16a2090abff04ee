package tensor

// The two vector streams of a local pass, each one pass over a
// parameter vector: the momentum SGD update and the float64 ⇄ float32
// conversion. Each has one Go body — the specification, the non-amd64
// path and the oracle — and, on AVX2 hosts, an assembly routine per
// element type (simd_amd64.s) that runs the whole vectors; the Go body
// runs the remainder. A lane is one element, every product is
// rounded before the sum that takes it, and no instruction fuses the two,
// so the gate changes no bit (DESIGN.md §10). Every function here is
// under the root TestHotLoopsBoundsCheckFree: a slice expression and the
// &x[0] an assembly routine starts from may check, once per call; the
// loops may not.

// MomentumStep applies one momentum SGD update to the parameters w, with
// gradient g and velocity v (both at least len(w) long), element by
// element:
//
//	eff = g + r(wd·w);  v = r(mom·v) + eff;  w = w − r(lr·v)
//
// r() the rounding to T, so no multiply-add fuses on any host.
func MomentumStep[T Float](w, g, v []T, lr, mom, wd T) {
	g, v = g[:len(w)], v[:len(w)]
	m := 0
	if useASM {
		if m = len(w) &^ (lanes[T]() - 1); m > 0 {
			momentumAVX2(&w[0], &g[0], &v[0], m, lr, mom, wd)
		}
	}
	momentumGo(w[m:], g[m:], v[m:], lr, mom, wd)
}

// momentumGo is MomentumStep's body: opt.SGD's momentum loop.
func momentumGo[T Float](w, g, v []T, lr, mom, wd T) {
	g, v = g[:len(w)], v[:len(w)]
	for j := range w {
		eff := g[j] + T(wd*w[j])
		v[j] = T(mom*v[j]) + eff
		w[j] -= T(lr * v[j])
	}
}

// momentumAVX2 runs T's assembly update over n > 0 elements, n a
// multiple of T's lanes.
func momentumAVX2[T Float](w, g, v *T, n int, lr, mom, wd T) {
	switch w := any(w).(type) {
	case *float64:
		f64MomentumSGDAVX2(w, any(g).(*float64), any(v).(*float64), n, float64(lr), float64(mom), float64(wd))
	case *float32:
		f32MomentumSGDAVX2(w, any(g).(*float32), any(v).(*float32), n, float32(lr), float32(mom), float32(wd))
	}
}

// cvtLanes is how many elements one conversion instruction takes: four,
// the float64 side filling a YMM register and the float32 side an XMM.
const cvtLanes = 4

// Convert writes src into dst across element types, one conversion per
// scalar: rounding a float64 vector to float32 (to nearest, ties to
// even), or widening a float32 vector, which is exact. dst must hold
// len(src) values.
func Convert[D, S Float](dst []D, src []S) {
	dst = dst[:len(src)]
	m := 0
	if useASM {
		if m = len(src) &^ (cvtLanes - 1); m > 0 && !convertAVX2(&dst[0], &src[0], m) {
			m = 0
		}
	}
	convertGo(dst[m:], src[m:])
}

// convertGo is Convert's body.
func convertGo[D, S Float](dst []D, src []S) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = D(v)
	}
}

// convertAVX2 converts the first n elements (n > 0, a multiple of
// cvtLanes) from src into dst through the assembly stream of the
// direction, and reports false, converting nothing, when D and S are one
// type.
func convertAVX2[D, S Float](dst *D, src *S, n int) bool {
	switch d := any(dst).(type) {
	case *float32:
		if s, ok := any(src).(*float64); ok {
			f64ToF32AVX2(d, s, n)
			return true
		}
	case *float64:
		if s, ok := any(src).(*float32); ok {
			f32ToF64AVX2(d, s, n)
			return true
		}
	}
	return false
}
