package backend

// The register-tiled GEMM core the convolution kernels lower onto. Both
// micro-kernels compute a 2x4 block of outputs at a time in eight local
// accumulators; an odd last row takes a 1x4 row tile and the columns left
// over take 2x1 and 1x1 tiles. (Eight accumulators, four B values and two A
// values fit the 15 float registers Go allocates on amd64; a 4x4 block
// spills and runs about 1.6x slower.) Every output element owns one
// accumulator that starts at the stored value (or zero) and adds its k terms
// in ascending k, one product at a time. Go does not fuse a multiply and an
// add on amd64, so each element is rounded exactly as a plain
// `s += a[i,p]*b[p,j]` loop over p would round it — the tiling changes the
// speed, never the bits. Rows are sliced as x[lo:][:k] so the compiler can
// drop the bounds checks in the k loops.

// gemmNN computes out (m,n) = a (m,k) · b (k,n), adding to out's current
// values when acc is set and overwriting them otherwise.
func gemmNN(a, b, out []float32, m, n, k int, acc bool) {
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[i*k:][:k]
		a1 := a[(i+1)*k:][:k]
		o0 := out[i*n:][:n]
		o1 := out[(i+1)*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float32
			if acc {
				c00, c01, c02, c03 = o0[j], o0[j+1], o0[j+2], o0[j+3]
				c10, c11, c12, c13 = o1[j], o1[j+1], o1[j+2], o1[j+3]
			}
			off := j
			for p := 0; p < k; p++ {
				v0, v1 := a0[p], a1[p]
				bp := b[off : off+4 : off+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				off += n
				c00 += v0 * b0
				c01 += v0 * b1
				c02 += v0 * b2
				c03 += v0 * b3
				c10 += v1 * b0
				c11 += v1 * b1
				c12 += v1 * b2
				c13 += v1 * b3
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			var c0, c1 float32
			if acc {
				c0, c1 = o0[j], o1[j]
			}
			off := j
			for p := 0; p < k; p++ {
				bv := b[off]
				off += n
				c0 += a0[p] * bv
				c1 += a1[p] * bv
			}
			o0[j], o1[j] = c0, c1
		}
	}
	if i < m {
		arow := a[i*k:][:k]
		orow := out[i*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float32
			if acc {
				c0, c1, c2, c3 = orow[j], orow[j+1], orow[j+2], orow[j+3]
			}
			off := j
			for _, v := range arow {
				bp := b[off : off+4 : off+4]
				off += n
				c0 += v * bp[0]
				c1 += v * bp[1]
				c2 += v * bp[2]
				c3 += v * bp[3]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			var c float32
			if acc {
				c = orow[j]
			}
			off := j
			for _, v := range arow {
				c += v * b[off]
				off += n
			}
			orow[j] = c
		}
	}
}

// gemmNT accumulates a (m,k) · bᵀ into out (m,n) for b stored (n,k): both
// operands stream along k, row by row.
func gemmNT(a, b, out []float32, m, n, k int) {
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[i*k:][:k]
		a1 := a[(i+1)*k:][:k]
		o0 := out[i*n:][:n]
		o1 := out[(i+1)*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k:][:k]
			b1 := b[(j+1)*k:][:k]
			b2 := b[(j+2)*k:][:k]
			b3 := b[(j+3)*k:][:k]
			c00, c01, c02, c03 := o0[j], o0[j+1], o0[j+2], o0[j+3]
			c10, c11, c12, c13 := o1[j], o1[j+1], o1[j+2], o1[j+3]
			for p := 0; p < k; p++ {
				v0, v1 := a0[p], a1[p]
				w0, w1, w2, w3 := b0[p], b1[p], b2[p], b3[p]
				c00 += v0 * w0
				c01 += v0 * w1
				c02 += v0 * w2
				c03 += v0 * w3
				c10 += v1 * w0
				c11 += v1 * w1
				c12 += v1 * w2
				c13 += v1 * w3
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			brow := b[j*k:][:k]
			c0, c1 := o0[j], o1[j]
			for p := 0; p < k; p++ {
				w := brow[p]
				c0 += a0[p] * w
				c1 += a1[p] * w
			}
			o0[j], o1[j] = c0, c1
		}
	}
	if i < m {
		arow := a[i*k:][:k]
		orow := out[i*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k:][:k]
			b1 := b[(j+1)*k:][:k]
			b2 := b[(j+2)*k:][:k]
			b3 := b[(j+3)*k:][:k]
			c0, c1, c2, c3 := orow[j], orow[j+1], orow[j+2], orow[j+3]
			for p := 0; p < k; p++ {
				v := arow[p]
				c0 += v * b0[p]
				c1 += v * b1[p]
				c2 += v * b2[p]
				c3 += v * b3[p]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			brow := b[j*k:][:k]
			c := orow[j]
			for p := 0; p < k; p++ {
				c += arow[p] * brow[p]
			}
			orow[j] = c
		}
	}
}
