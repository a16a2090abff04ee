package tensor

// parallelThreshold32 is the float32 analogue of parallelThreshold. The
// float32 kernels move twice the elements per cache line and (on AVX2
// hosts) eight per instruction, so a product must be several times
// larger before the executor handoff pays for itself.
const parallelThreshold32 = 4 * parallelThreshold

// matmul32Rows computes rows [lo,hi) of dst = a·b: zero the output row,
// then accumulate four b-rows at a time through the 4-wide axpy kernel
// (one dst pass per four p values), with a single-row axpy remainder.
func matmul32Rows(dst, a, b *Tensor32, lo, hi int) {
	k, n := a.Shape[1], b.Shape[1]
	for i := lo; i < hi; i++ {
		outRow := dst.Data[i*n : (i+1)*n]
		for x := range outRow {
			outRow[x] = 0
		}
		aRow := a.Data[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy432(outRow,
				b.Data[p*n:(p+1)*n],
				b.Data[(p+1)*n:(p+2)*n],
				b.Data[(p+2)*n:(p+3)*n],
				b.Data[(p+3)*n:(p+4)*n],
				aRow[p], aRow[p+1], aRow[p+2], aRow[p+3])
		}
		for ; p < k; p++ {
			axpy32(outRow, b.Data[p*n:(p+1)*n], aRow[p])
		}
	}
}

// MatMulTransB32Into is MatMulTransBInto on float32 operands.
func MatMulTransB32Into(dst, a, b *Tensor32) { MatMulTransBInto(dst, a, b) }

// matmulTransB32Rows computes rows [lo,hi) of dst = a·bᵀ, four output
// columns at a time through the 4-wide dot kernel with a single-dot
// remainder.
func matmulTransB32Rows(dst, a, b *Tensor32, lo, hi int) {
	k, n := a.Shape[1], dst.Shape[1]
	for i := lo; i < hi; i++ {
		aRow := a.Data[i*k : (i+1)*k]
		outRow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			outRow[j], outRow[j+1], outRow[j+2], outRow[j+3] = dot432(aRow,
				b.Data[j*k:(j+1)*k],
				b.Data[(j+1)*k:(j+2)*k],
				b.Data[(j+2)*k:(j+3)*k],
				b.Data[(j+3)*k:(j+4)*k])
		}
		for ; j < n; j++ {
			outRow[j] = dot32(aRow, b.Data[j*k:(j+1)*k])
		}
	}
}

// matmulTransA32Rows computes rows [lo,hi) of dst = aᵀ·b: it zeroes
// them, then accumulates.
func matmulTransA32Rows(dst, a, b *Tensor32, lo, hi int) {
	n := dst.Shape[1]
	clear(dst.Data[lo*n : hi*n])
	matmulTransA32AddRows(dst, a, b, lo, hi)
}

// matmulTransA32AddRows accumulates aᵀ·b into rows [lo,hi) of dst,
// streaming a's column i against b's rows four at a time through the
// 4-wide axpy kernel.
func matmulTransA32AddRows(dst, a, b *Tensor32, lo, hi int) {
	k, m, n := a.Shape[0], a.Shape[1], dst.Shape[1]
	for i := lo; i < hi; i++ {
		outRow := dst.Data[i*n : (i+1)*n]
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy432(outRow,
				b.Data[p*n:(p+1)*n],
				b.Data[(p+1)*n:(p+2)*n],
				b.Data[(p+2)*n:(p+3)*n],
				b.Data[(p+3)*n:(p+4)*n],
				a.Data[p*m+i], a.Data[(p+1)*m+i], a.Data[(p+2)*m+i], a.Data[(p+3)*m+i])
		}
		for ; p < k; p++ {
			axpy32(outRow, b.Data[p*n:(p+1)*n], a.Data[p*m+i])
		}
	}
}
