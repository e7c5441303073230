//go:build amd64 && !purego

package blas

// AVX2+FMA register kernels (kernel_amd64.s): 8×8 for FP32 and 8×4 for
// FP64. Both keep the tile in eight ymm accumulators, one per tile row; each
// k step loads one row of the packed B panel and broadcasts each of the
// eight packed A values into an FMA. Every element is a sum over k in
// ascending order inside one call, so results depend on the blocking only,
// never on the thread count.

// asmTileF32 and asmTileF64 are the asm tiles, or the zero tile when the CPU
// lacks AVX2, FMA or OS-enabled YMM state.
var asmTileF32, asmTileF64 = detectTiles()

func detectTiles() (f32, f64 tile) {
	if !hasAVX2FMA() {
		return tile{}, tile{}
	}
	return tile{8, 8}, tile{8, 4}
}

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves the
// YMM registers across context switches.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: XMM and YMM state enabled by the OS.
	if xgetbv0()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// microAsmF32 runs the 8×8 FP32 kernel. The index expressions bounds-check
// both panels before the asm reads kc·8 values of each (and reject kc < 1).
//
//adsala:zeroalloc
func microAsmF32(aPanel, bPanel []float32, kc int, acc *[maxTile]float32) {
	_ = aPanel[kc*8-1]
	_ = bPanel[kc*8-1]
	kernel8x8F32(&aPanel[0], &bPanel[0], kc, acc)
}

// microAsmF64 runs the 8×4 FP64 kernel after the same panel bounds checks.
//
//adsala:zeroalloc
func microAsmF64(aPanel, bPanel []float64, kc int, acc *[maxTile]float64) {
	_ = aPanel[kc*8-1]
	_ = bPanel[kc*4-1]
	kernel8x4F64(&aPanel[0], &bPanel[0], kc, acc)
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

//go:noescape
func kernel8x8F32(a, b *float32, kc int, c *[maxTile]float32)

//go:noescape
func kernel8x4F64(a, b *float64, kc int, c *[maxTile]float64)
