package blas

// Register micro-kernels. Each precision has two tiles: the portable pure-Go
// 4×4 fallback below, and an asm tile (8×8 FP32, 8×4 FP64 with AVX2+FMA;
// see kernel_amd64.go) present on amd64 CPUs that support it unless the
// build is tagged purego. Params with a zero tile, the default among them,
// run the asm tile when there is one; explicit Params may pin either tile,
// and Validate rejects every other shape.
//
// The asm tile keeps all MR×NR accumulators in vector registers. The
// fallback stays 4×4 because that is the widest tile gc keeps in its 16
// scalar float registers: pure-Go 8×4 and 4×8 tiles spill accumulators to
// the stack and run ~35% slower.
// maxTile is the largest MR*NR product across the tiles; the macro-kernel's
// accumulator block is sized to it.
const maxTile = 64

// tile is a register micro-tile shape, MR×NR.
type tile struct{ mr, nr int }

// fallbackTile is the portable pure-Go tile every build and precision runs.
var fallbackTile = tile{4, 4}

// asmTile returns the asm tile of precision T on this CPU, or the zero tile
// when there is none.
func asmTile[T float32 | float64]() tile {
	if isF32[T]() {
		return asmTileF32
	}
	return asmTileF64
}

func isF32[T float32 | float64]() bool {
	var z T
	_, ok := any(z).(float32)
	return ok
}

// macroKernel multiplies the packed mc×kc A block with the packed kc×nc B
// panel, updating C(ic:ic+mc, jc:jc+nc). first selects whether beta is
// applied (only on the first KC iteration).
//
//adsala:zeroalloc
func macroKernel[T float32 | float64](alpha T, packedA, packedB []T, beta T, c view[T], ic, jc, mc, nc, kc int, first bool, prm Params) {
	mr, nr := prm.MR, prm.NR
	var acc [maxTile]T
	for i0 := 0; i0 < mc; i0 += mr {
		ib := min(mr, mc-i0)
		aPanel := packedA[(i0/mr)*kc*mr:]
		for j0 := 0; j0 < nc; j0 += nr {
			jb := min(nr, nc-j0)
			bPanel := packedB[(j0/nr)*kc*nr:]
			microTile(aPanel, bPanel, kc, &acc, mr)
			storeTile(alpha, beta, first, &acc, c, ic+i0, jc+j0, ib, jb, nr)
		}
	}
}

// microTile computes one MR×NR tile into acc (row-major, row stride NR):
// the 4×4 fallback when mr is 4, else the precision's asm tile, the only
// other tile Validate admits.
//
//adsala:zeroalloc
func microTile[T float32 | float64](aPanel, bPanel []T, kc int, acc *[maxTile]T, mr int) {
	if mr == fallbackTile.mr {
		micro4x4(aPanel, bPanel, kc, acc)
		return
	}
	// Converting pointers, not slices, to interfaces boxes nothing.
	switch acc := any(acc).(type) {
	case *[maxTile]float32:
		microAsmF32(*any(&aPanel).(*[]float32), *any(&bPanel).(*[]float32), kc, acc)
	case *[maxTile]float64:
		microAsmF64(*any(&aPanel).(*[]float64), *any(&bPanel).(*[]float64), kc, acc)
	}
}

// micro4x4 computes one 4×4 tile over kc rank-1 updates. The k loop is
// unrolled 4×: the accumulators stay in registers across the unrolled body,
// and the per-step slice expressions collapse the bounds checks to one per
// operand per step. The per-accumulator addition order is identical to the
// rolled loop (ascending p), so results are bit-identical to it.
//
//adsala:zeroalloc
func micro4x4[T float32 | float64](aPanel, bPanel []T, kc int, acc *[maxTile]T) {
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	var c20, c21, c22, c23 T
	var c30, c31, c32, c33 T
	p := 0
	for ; p+3 < kc; p += 4 {
		a := aPanel[p*4 : p*4+16]
		b := bPanel[p*4 : p*4+16]
		{
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
		}
		{
			a0, a1, a2, a3 := a[4], a[5], a[6], a[7]
			b0, b1, b2, b3 := b[4], b[5], b[6], b[7]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
		}
		{
			a0, a1, a2, a3 := a[8], a[9], a[10], a[11]
			b0, b1, b2, b3 := b[8], b[9], b[10], b[11]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
		}
		{
			a0, a1, a2, a3 := a[12], a[13], a[14], a[15]
			b0, b1, b2, b3 := b[12], b[13], b[14], b[15]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
		}
	}
	for ; p < kc; p++ {
		a := aPanel[p*4 : p*4+4]
		b := bPanel[p*4 : p*4+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
	acc[8], acc[9], acc[10], acc[11] = c20, c21, c22, c23
	acc[12], acc[13], acc[14], acc[15] = c30, c31, c32, c33
}

// storeTile writes the accumulated tile into C with alpha/beta handling,
// clipping to the ib×jb valid region. nr is the accumulator row stride.
func storeTile[T float32 | float64](alpha, beta T, first bool, acc *[maxTile]T, c view[T], ci, cj, ib, jb, nr int) {
	for i := 0; i < ib; i++ {
		row := c.data[(ci+i)*c.stride+cj : (ci+i)*c.stride+cj+jb]
		av := acc[i*nr : i*nr+jb]
		switch {
		case !first:
			if alpha == 1 {
				for j, v := range av {
					row[j] += v
				}
			} else {
				for j, v := range av {
					row[j] += alpha * v
				}
			}
		case beta == 0:
			if alpha == 1 {
				copy(row, av)
			} else {
				for j, v := range av {
					row[j] = alpha * v
				}
			}
		default:
			for j, v := range av {
				row[j] = beta*row[j] + alpha*v
			}
		}
	}
}
