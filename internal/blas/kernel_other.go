//go:build !amd64 || purego

package blas

// Without the amd64 asm (other architectures, or the purego build tag)
// there is no asm tile: Validate admits only the 4×4 fallback, so the asm
// entry points are unreachable.
var asmTileF32, asmTileF64 tile

func microAsmF32(aPanel, bPanel []float32, kc int, acc *[maxTile]float32) {
	panic("blas: no asm micro-kernel in this build")
}

func microAsmF64(aPanel, bPanel []float64, kc int, acc *[maxTile]float64) {
	panic("blas: no asm micro-kernel in this build")
}
