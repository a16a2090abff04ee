package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzTransBForms: both tile forms of a·bᵀ — b packed with a's rows
// broadcast (whole row groups, the Go body for the rest), and, when b has
// at least four rows, a packed with b's rows broadcast and each tile
// stored transposed — equal the Go body in both dtypes, on bits, a NaN
// matching any NaN. The input's
// first four bytes give m, n (1–24) and k (1–transBPanelK); the rest are
// the operands' raw float32 bits, four bytes each, tiled over a then b
// (float64 takes the same values widened, ±0, ±Inf, NaN and float32's
// subnormals included). The checked-in corpus
// (testdata/fuzz/FuzzTransBForms) holds signed zeros against ±Inf and
// NaN on either side, a non-finite b-row after a group's first, float32
// subnormals, products that overflow, and k at the panel bound.
func FuzzTransBForms(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if !UseASM() || len(data) < 4 {
			return
		}
		m, n := 1+int(data[0])%24, 1+int(data[1])%24
		k := 1 + int(binary.LittleEndian.Uint16(data[2:]))%transBPanelK
		bits := data[4:]
		f32 := func(i int) float32 {
			var w [4]byte
			for j := range w {
				if len(bits) > 0 {
					w[j] = bits[(4*i+j)%len(bits)]
				}
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
		}
		f64 := func(i int) float64 { return float64(f32(i)) }
		checkTransBForms(t, m, k, n, f64)
		checkTransBForms(t, m, k, n, f32)
	})
}

// checkTransBForms fills a (m×k) then b (n×k) with value(0), value(1), …
// and runs both tile forms against matmulTransBRowsGo.
func checkTransBForms[T Float](t *testing.T, m, k, n int, value func(i int) T) {
	a, b := NewOf[T](m, k), NewOf[T](n, k)
	for i := range a.Data {
		a.Data[i] = value(i)
	}
	for i := range b.Data {
		b.Data[i] = value(len(a.Data) + i)
	}
	want := NewOf[T](m, n)
	matmulTransBRowsGo(want, a, b, 0, m)
	type form struct {
		name string
		got  *Of[T]
	}
	packB := form{"pack b", NewOf[T](m, n)}
	transBTiles(packB.got.Data, a.Data, b.Data, k, n, 0, m&^3)
	matmulTransBRowsGo(packB.got, a, b, m&^3, m)
	forms := []form{packB}
	if n >= 4 {
		packA := form{"pack a", NewOf[T](m, n)}
		transBTilesPackA(packA.got.Data, a.Data, b.Data, k, n, 0, m)
		forms = append(forms, packA)
	}
	for _, f := range forms {
		for i, w := range want.Data {
			if g := f.got.Data[i]; !sameBits(g, w) {
				t.Fatalf("m %d k %d n %d, %s: dst[%d,%d] = %v (%#x), Go body %v (%#x)",
					m, k, n, f.name, i/n, i%n, g, bitsOf(g), w, bitsOf(w))
			}
		}
	}
}
