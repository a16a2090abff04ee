package fl

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzRobustAggregate drives every robust strategy with adversarial
// gathers decoded straight from fuzz bytes — including the NaN and ±Inf
// payloads a byzantine uplink could carry past a buggy mask. The
// invariants: no strategy may panic on contract-valid input, the suspect
// count stays in [0, n], and a repeated call on the same input is
// bit-identical (the determinism clause of the Aggregator contract).
func FuzzRobustAggregate(f *testing.F) {
	seed := func(sel byte, frac float64, n, dim byte, raw []byte) {
		f.Add(sel, frac, n, dim, raw)
	}
	seed(0, 0.2, 5, 3, []byte("benign-looking-gather-bytes....."))
	nan := make([]byte, 8*4)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(nan[8*i:], math.Float64bits(math.NaN()))
	}
	seed(1, 0.3, 4, 1, nan)
	inf := make([]byte, 8*6)
	for i := 0; i < 6; i++ {
		binary.LittleEndian.PutUint64(inf[8*i:], math.Float64bits(math.Inf(1-2*(i%2))))
	}
	seed(2, 0.49, 6, 1, inf)
	seed(3, 0, 9, 2, make([]byte, 9*2*8))
	f.Fuzz(func(t *testing.T, sel byte, frac float64, nb, dimb byte, raw []byte) {
		if math.IsNaN(frac) || frac < 0 || frac >= 0.5 {
			return
		}
		n := 1 + int(nb)%16
		dim := 1 + int(dimb)%8
		aggs := []Aggregator{
			&plainMean{}, &TrimmedMean{Frac: frac}, &Median{},
			&Krum{Frac: frac}, &Krum{Frac: frac, M: 1 + int(sel)%4},
		}
		a := aggs[int(sel)%len(aggs)]
		word := func(k int) float64 {
			if 8*k+8 > len(raw) {
				return float64(k) // deterministic fill past the payload
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
		}
		vecs := make([][]float64, n)
		ws := make([]float64, n)
		for i := 0; i < n; i++ {
			v := make([]float64, dim)
			for j := range v {
				v[j] = word(i*dim + j)
			}
			vecs[i] = v
			// Weights must honor the contract (finite, non-negative):
			// the engine computes them, not the attacker.
			w := math.Abs(word(n*dim + i))
			if math.IsNaN(w) || math.IsInf(w, 0) {
				w = 1
			}
			ws[i] = w
		}
		dst := make([]float64, dim)
		s := a.Aggregate(dst, vecs, ws)
		if s < 0 || s > n {
			t.Fatalf("%s: suspects %d out of [0, %d]", a.Name(), s, n)
		}
		again := make([]float64, dim)
		if s2 := a.Aggregate(again, vecs, ws); s2 != s {
			t.Fatalf("%s: suspect count not deterministic (%d vs %d)", a.Name(), s, s2)
		}
		for j := range dst {
			if math.Float64bits(dst[j]) != math.Float64bits(again[j]) {
				t.Fatalf("%s: coord %d not deterministic across calls", a.Name(), j)
			}
		}
	})
}
