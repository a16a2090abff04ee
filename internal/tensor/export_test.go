package tensor

// SetUseASM overrides the assembly gate for tests (forcing the pure-Go
// bodies on AVX2 hosts and vice versa) and returns the previous value
// so callers can restore it.
func SetUseASM(v bool) bool {
	old := useASM
	useASM = v
	return old
}

// UseASM reports which kernel path init selected.
func UseASM() bool { return useASM }

// MatMul is the allocating form of MatMulInto the product tests are
// written against.
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}
