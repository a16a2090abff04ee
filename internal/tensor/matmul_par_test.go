package tensor

import (
	"runtime"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/sched"
)

// randMat fills an m×n tensor with mixed-magnitude values (including
// exact zeros, to exercise the skip-zero rule).
func randMat(r *rng.Rng, m, n int) *Tensor {
	t := New(m, n)
	for i := range t.Data {
		if r.Intn(8) == 0 {
			continue // leave an exact zero
		}
		t.Data[i] = r.NormFloat64()
	}
	return t
}

// withProcs runs f under a temporary GOMAXPROCS so the parallel branch
// of parSlot.rows is reachable even on single-CPU machines.
func withProcs(p int, f func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestParallelMatMulBitIdentical: the executor-backed row-block dispatch
// must produce bit-identical results to the serial kernels for all three
// variants, at several widths. 96×512·512×96 is ~25M multiply-adds, far
// above parallelThreshold.
func TestParallelMatMulBitIdentical(t *testing.T) {
	r := rng.New(42)
	const m, k, n = 96, 512, 96
	a := randMat(r, m, k)
	b := randMat(r, k, n)
	bT := randMat(r, n, k)
	aT := randMat(r, k, m)

	serialMM, serialTB, serialTA := New(m, n), New(m, n), New(m, n)
	matmulRows(serialMM, a, b, 0, m)
	matmulTransBRows(serialTB, a, bT, 0, m)
	matmulTransAAddRows(serialTA, aT, b, 0, m)

	for _, procs := range []int{2, 3, 8} {
		withProcs(procs, func() {
			gotMM, gotTB, gotTA := New(m, n), New(m, n), New(m, n)
			MatMulInto(gotMM, a, b)
			MatMulTransBInto(gotTB, a, bT)
			MatMulTransAInto(gotTA, aT, b)
			for _, c := range []struct {
				name      string
				got, want *Tensor
			}{
				{"MatMul", gotMM, serialMM},
				{"MatMulTransB", gotTB, serialTB},
				{"MatMulTransA", gotTA, serialTA},
			} {
				for i := range c.want.Data {
					if c.got.Data[i] != c.want.Data[i] {
						t.Fatalf("procs=%d %s: element %d differs: %x vs %x",
							procs, c.name, i, c.got.Data[i], c.want.Data[i])
					}
				}
			}
		})
	}
}

// TestMatMulNestedFallsBackSerial: a large matmul issued from inside an
// executor region must not try to claim the executor again — it runs the
// serial kernel inline (no deadlock, no goroutine fan-out) and still
// produces the exact result.
func TestMatMulNestedFallsBackSerial(t *testing.T) {
	r := rng.New(7)
	const m, k, n = 64, 512, 64
	a := randMat(r, m, k)
	b := randMat(r, k, n)
	want := New(m, n)
	matmulRows(want, a, b, 0, m)

	withProcs(4, func() {
		outs := make([]*Tensor, 4)
		sched.Default().Run(len(outs), 4, func(w, i int) {
			out := New(m, n)
			MatMulInto(out, a, b) // nested: must fall back serial
			outs[i] = out
		})
		for i, out := range outs {
			for j := range want.Data {
				if out.Data[j] != want.Data[j] {
					t.Fatalf("nested matmul %d: element %d differs", i, j)
				}
			}
		}
	})
}
