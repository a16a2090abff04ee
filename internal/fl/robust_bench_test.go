package fl

import (
	"fmt"
	"testing"

	"fedclust/internal/rng"
)

// benchGather draws an n-client gather of dim-sized update vectors with
// positive report weights — one server combine's worth of input.
func benchGather(n, dim int) ([][]float64, []float64) {
	r := rng.New(17)
	vecs := make([][]float64, n)
	ws := make([]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		vecs[i] = v
		ws[i] = 0.5 + r.Float64()
	}
	return vecs, ws
}

// BenchmarkAggregate pins the per-round cost of each server strategy at
// the paper's population scale (20 clients) and a stress scale (100),
// over a LeNet-sized parameter vector. Krum is O(n²·dim) in its distance
// matrix — the pinned pair documents the quadratic step so nobody
// mistakes it for a free defense at fleet scale (see BENCH_pr8.json).
func BenchmarkAggregate(b *testing.B) {
	const dim = 25_000
	for _, n := range []int{20, 100} {
		vecs, ws := benchGather(n, dim)
		dst := make([]float64, dim)
		frac := 0.2
		for _, a := range []Aggregator{
			&plainMean{}, &TrimmedMean{Frac: frac}, &Median{},
			&Krum{Frac: frac}, &Krum{Frac: frac, M: 3},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", a.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.Aggregate(dst, vecs, ws)
				}
			})
		}
	}
}
