package tensor

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"fedclust/internal/sched"
)

// parallelThreshold is the minimum number of multiply-adds in a matmul
// before the work is split across the shared executor. Small products
// stay on the calling goroutine to avoid scheduling overhead.
const parallelThreshold = 64 * 1024

// MatMulInto computes dst = a(m×k) · b(k×n) for rank-2 tensors,
// parallelizing over row blocks when the product is large enough. dst
// must not alias a or b and must have shape (a.rows, b.cols).
//
// All three products (this one, MatMulTransBInto, MatMulTransAInto) hand
// their rows to the element type's own kernels: the float64 loops below
// skip zero multiplicands; float32 (matmul32.go) is built from the dense
// dot/axpy primitives of kernels32.go, where a zero test would cost more
// than it saves and break the 4-wide blocking. Either way each output
// element is summed in a fixed order determined only by the operand
// shapes, so parallel and serial runs are bit-identical. The float64
// assembly (transBTiles, f64AxpyAVX2) keeps that order and both
// roundings of every term, so in float64 the gate changes no bit either.
func MatMulInto[T Float](dst, a, b *Of[T]) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v · %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	runRows(plain, dst, a, b, m, m*n*k)
}

// variant indexes the three matmul forms in the per-type kernel tables.
type variant int

const (
	plain variant = iota
	transB
	transA
)

// rowsKernel computes rows [lo, hi) of one matmul variant. Every serial
// kernel has this shape, so the parallel dispatch is a plain function
// value — no per-call closure.
type rowsKernel[T Float] func(dst, a, b *Of[T], lo, hi int)

var (
	kernels64 = [...]rowsKernel[float64]{plain: matmulRows, transB: matmulTransBRows, transA: matmulTransARows}
	kernels32 = [...]rowsKernel[float32]{plain: matmul32Rows, transB: matmulTransB32Rows, transA: matmulTransA32Rows}
)

// runRows is the one place the element type picks a kernel: a pointer
// type switch per matmul call, never per element.
func runRows[T Float](v variant, dst, a, b *Of[T], m, work int) {
	switch d := any(dst).(type) {
	case *Tensor:
		par64.rows(kernels64[v], d, any(a).(*Tensor), any(b).(*Tensor), m, work)
	case *Tensor32:
		par32.rows(kernels32[v], d, any(a).(*Tensor32), any(b).(*Tensor32), m, work)
	}
}

// cachedProcs caches runtime.GOMAXPROCS(0) so the splitRows gate — on
// the hot path of every matmul, parallel or not — costs one atomic load
// instead of a runtime call. refreshProcs re-reads the live value inside
// parallelRows after a successful executor acquire (off the per-call hot
// path), so a mid-process GOMAXPROCS change is picked up at the next
// parallel region; the lag is harmless because the partitioning never
// affects results, only which path computes them.
var cachedProcs atomic.Int32

// procsHint returns the cached GOMAXPROCS value, reading the runtime
// only on first use.
func procsHint() int {
	if p := cachedProcs.Load(); p > 0 {
		return int(p)
	}
	return refreshProcs()
}

// refreshProcs re-reads GOMAXPROCS from the runtime and updates the cache.
func refreshProcs() int {
	p := runtime.GOMAXPROCS(0)
	cachedProcs.Store(int32(p))
	return p
}

// parSlot is the operand slot of one element type's in-flight parallel
// region. It is guarded by the executor claim: only the goroutine that
// holds sched.Default()'s claim writes it, and it is cleared before the
// claim is released, so the executor's single-region discipline makes
// the whole dispatch closure-free and allocation-free.
type parSlot[T Float] struct {
	// threshold is the minimum number of multiply-adds before a product
	// is worth spreading across the executor.
	threshold int
	// runBlock is the slot's own block method, bound once at init — the
	// persistent task executor workers run.
	runBlock func(_, blk int)

	kernel    rowsKernel[T]
	dst, a, b *Of[T]
	chunk, m  int
}

var (
	par64 = newParSlot[float64](parallelThreshold)
	par32 = newParSlot[float32](parallelThreshold32)
)

func newParSlot[T Float](threshold int) *parSlot[T] {
	d := &parSlot[T]{threshold: threshold}
	d.runBlock = d.block
	return d
}

// block runs block blk of the in-flight region: rows
// [blk*chunk, min((blk+1)*chunk, m)).
func (d *parSlot[T]) block(_, blk int) {
	lo := blk * d.chunk
	hi := lo + d.chunk
	if hi > d.m {
		hi = d.m
	}
	d.kernel(d.dst, d.a, d.b, lo, hi)
}

// rows computes all m rows of dst with kernel: across the executor when
// the product (work multiply-adds) is large enough and the executor is
// free, on the calling goroutine otherwise. Small products — the
// per-batch products inside a training step — stay serial, which
// performs no scheduling work and no allocations.
func (d *parSlot[T]) rows(kernel rowsKernel[T], dst, a, b *Of[T], m, work int) {
	if work < d.threshold || procsHint() < 2 || m < 2 || !d.parallel(kernel, dst, a, b, m) {
		kernel(dst, a, b, 0, m)
	}
}

// parallel runs kernel over contiguous row blocks of [0, m) on the
// shared executor and reports whether it ran. It refuses — returning
// false, caller must run the serial kernel — when the executor is
// unavailable: the call is nested inside a running region (a kernel
// invoked from a client task of the round engine, or from an Env pinned
// to a private pool) or racing a concurrent region. That refusal is what
// eliminates nested oversubscription. The partitioning never affects
// results: every output element is produced by exactly one block with a
// fixed per-element summation order, so parallel and serial runs are
// bit-identical.
func (d *parSlot[T]) parallel(kernel rowsKernel[T], dst, a, b *Of[T], m int) bool {
	if sched.Busy() {
		return false
	}
	p := sched.Default()
	if !p.TryAcquire() {
		return false
	}
	defer p.Release()
	width := refreshProcs()
	if width > m {
		width = m
	}
	chunk := (m + width - 1) / width
	blocks := (m + chunk - 1) / chunk
	d.kernel, d.dst, d.a, d.b = kernel, dst, a, b
	d.chunk, d.m = chunk, m
	p.RunAcquired(blocks, width, d.runBlock)
	d.kernel, d.dst, d.a, d.b = nil, nil, nil, nil
	return true
}

// MatMulTransBInto computes dst = a · bᵀ for rank-2 tensors without
// materializing the transpose: a is (m, k), b is (n, k), dst is (m, n)
// and must not alias a or b. Each output element is the dot product of an
// a-row with a b-row; in float64 it is summed over p in increasing order
// with the same skip-zero rule as matmulRows, so the result is
// bit-identical to MatMulInto(dst, a, Transpose(b)).
func MatMulTransBInto[T Float](dst, a, b *Of[T]) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMulTransB requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v · %vᵀ", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransB dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	runRows(transB, dst, a, b, m, m*n*k)
}

// matmulTransBRows computes rows [lo,hi) of dst = a·bᵀ: on AVX2 hosts
// whole groups of four rows go through the assembly tile, the rest — the
// (hi-lo) mod 4 tail, blocks of fewer than four rows, k beyond the panel
// bound — through the Go body. Both produce the same bits for every
// element, so where a row block is cut decides nothing.
func matmulTransBRows(dst, a, b *Tensor, lo, hi int) {
	if k := a.Shape[1]; useASM && hi-lo >= 4 && k > 0 && k <= transBPanelK {
		mid := lo + (hi-lo)&^3
		transBTiles(dst.Data, a.Data, b.Data, k, dst.Shape[1], lo, mid)
		lo = mid
	}
	matmulTransBRowsGo(dst, a, b, lo, hi)
}

// matmulTransBRowsGo computes rows [lo,hi) of dst = a·bᵀ as dot products of
// contiguous a-rows and b-rows, four b-rows at a time. The blocking only
// adds independent accumulator chains (ILP); each output element is still
// summed over p in increasing order with the skip-zero rule, so results
// are bit-identical to the unblocked form.
//
// The unrolled 3/2/1 remainder cases are load-bearing, not residue: for
// small-n operands (a convolution with few output channels, e.g.
// LeNet-5's first conv) the remainder IS the whole computation, and the
// multi-chain unrolls are what keep it latency-hidden — a single-chain
// scalar remainder measured ~1.7× slower end to end on LeNet forward.
// When touching the summation rule (p order, skip-zero), update ALL
// four bodies identically; the golden-fingerprint suite enforces it.
//
// This is the specification of the product: the non-amd64 path, the
// fallback beside the assembly tile, and what the oracle tests compare
// the tile against with ==.
func matmulTransBRowsGo(dst, a, b *Tensor, lo, hi int) {
	k, n := a.Shape[1], dst.Shape[1]
	for i := lo; i < hi; i++ {
		aRow := a.Data[i*k : (i+1)*k]
		outRow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			outRow[j], outRow[j+1], outRow[j+2], outRow[j+3] = s0, s1, s2, s3
		}
		switch n - j {
		case 3:
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			var s0, s1, s2 float64
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
			}
			outRow[j], outRow[j+1], outRow[j+2] = s0, s1, s2
		case 2:
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			var s0, s1 float64
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += av * b0[p]
				s1 += av * b1[p]
			}
			outRow[j], outRow[j+1] = s0, s1
		case 1:
			b0 := b.Data[j*k : (j+1)*k]
			var s0 float64
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += av * b0[p]
			}
			outRow[j] = s0
		}
	}
}

// MatMulTransAInto computes dst = aᵀ · b without materializing the
// transpose: a is (k, m), b is (k, n), dst is (m, n) and must not alias
// a or b. In float64, row i of dst accumulates a's column i against b's
// rows over p in increasing order with the same skip-zero rule as
// matmulRows, so the result is bit-identical to MatMulInto(dst, Transpose(a), b).
func MatMulTransAInto[T Float](dst, a, b *Of[T]) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMulTransA requires rank-2 tensors")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %vᵀ · %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransA dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	runRows(transA, dst, a, b, m, m*n*k)
}

// axpyMinN is the shortest output row handed to f64AxpyAVX2: two vector
// steps. Shorter rows keep the inline loop.
const axpyMinN = 8

// matmulTransARows computes rows [lo,hi) of dst = aᵀ·b, streaming a's
// column i against b's rows. The accumulate under the skip-zero branch is
// f64AxpyAVX2 on AVX2 hosts — product rounded, then the sum, per element
// as in the loop it stands in for — and the loop itself otherwise.
func matmulTransARows(dst, a, b *Tensor, lo, hi int) {
	k, m, n := a.Shape[0], a.Shape[1], dst.Shape[1]
	wide := useASM && n >= axpyMinN
	for i := lo; i < hi; i++ {
		outRow := dst.Data[i*n : (i+1)*n]
		for x := range outRow {
			outRow[x] = 0
		}
		for p := 0; p < k; p++ {
			av := a.Data[p*m+i]
			if av == 0 {
				continue
			}
			bRow := b.Data[p*n : (p+1)*n]
			if wide {
				f64AxpyAVX2(&outRow[0], &bRow[0], av, n)
				continue
			}
			for j, bv := range bRow {
				outRow[j] += av * bv
			}
		}
	}
}

// matmulRows computes rows [lo,hi) of dst = a·b using an ikj loop order
// that streams b rows sequentially (cache-friendly without explicit
// tiling); the accumulate is dispatched as in matmulTransARows.
func matmulRows(dst, a, b *Tensor, lo, hi int) {
	k, n := a.Shape[1], b.Shape[1]
	wide := useASM && n >= axpyMinN
	for i := lo; i < hi; i++ {
		outRow := dst.Data[i*n : (i+1)*n]
		for x := range outRow {
			outRow[x] = 0
		}
		aRow := a.Data[i*k : (i+1)*k]
		for p, av := range aRow {
			if av == 0 {
				continue
			}
			bRow := b.Data[p*n : (p+1)*n]
			if wide {
				f64AxpyAVX2(&outRow[0], &bRow[0], av, n)
				continue
			}
			for j, bv := range bRow {
				outRow[j] += av * bv
			}
		}
	}
}

// Transpose returns the transpose of a rank-2 tensor as a new tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			out.Data[j*m+i] = v
		}
	}
	return out
}
