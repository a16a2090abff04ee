package tensor

// SetF32UseASM overrides the float32 kernel dispatch for tests (forcing
// the generic path on AVX2 hosts and vice versa) and returns the
// previous value so callers can restore it.
func SetF32UseASM(v bool) bool {
	old := f32UseASM
	f32UseASM = v
	return old
}

// F32UseASM reports which float32 kernel path init selected.
func F32UseASM() bool { return f32UseASM }

// MatMul is the allocating form of MatMulInto the product tests are
// written against.
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}
