//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func kernel8x8F32(a, b *float32, kc int, c *[maxTile]float32)
//
// Y0..Y7 accumulate rows 0..7 of the tile. Each k step loads one 8-wide
// row of the B panel into Y8 and broadcasts the eight A values of that
// step into FMAs, accumulator i taking A value i, so every accumulator
// sums its products in ascending k. kc >= 1.
TEXT ·kernel8x8F32(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   kc+16(FP), CX
	MOVQ   c+24(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

loop32:
	VMOVUPS      (DI), Y8
	VBROADCASTSS 0(SI), Y9
	VFMADD231PS  Y8, Y9, Y0
	VBROADCASTSS 4(SI), Y10
	VFMADD231PS  Y8, Y10, Y1
	VBROADCASTSS 8(SI), Y9
	VFMADD231PS  Y8, Y9, Y2
	VBROADCASTSS 12(SI), Y10
	VFMADD231PS  Y8, Y10, Y3
	VBROADCASTSS 16(SI), Y9
	VFMADD231PS  Y8, Y9, Y4
	VBROADCASTSS 20(SI), Y10
	VFMADD231PS  Y8, Y10, Y5
	VBROADCASTSS 24(SI), Y9
	VFMADD231PS  Y8, Y9, Y6
	VBROADCASTSS 28(SI), Y10
	VFMADD231PS  Y8, Y10, Y7
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          loop32

	VMOVUPS Y0, 0(DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	VZEROUPPER
	RET

// func kernel8x4F64(a, b *float64, kc int, c *[maxTile]float64)
//
// The FP64 counterpart: Y0..Y7 hold rows 0..7 of the tile, four doubles
// each. kc >= 1.
TEXT ·kernel8x4F64(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   kc+16(FP), CX
	MOVQ   c+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop64:
	VMOVUPD      (DI), Y8
	VBROADCASTSD 0(SI), Y9
	VFMADD231PD  Y8, Y9, Y0
	VBROADCASTSD 8(SI), Y10
	VFMADD231PD  Y8, Y10, Y1
	VBROADCASTSD 16(SI), Y9
	VFMADD231PD  Y8, Y9, Y2
	VBROADCASTSD 24(SI), Y10
	VFMADD231PD  Y8, Y10, Y3
	VBROADCASTSD 32(SI), Y9
	VFMADD231PD  Y8, Y9, Y4
	VBROADCASTSD 40(SI), Y10
	VFMADD231PD  Y8, Y10, Y5
	VBROADCASTSD 48(SI), Y9
	VFMADD231PD  Y8, Y9, Y6
	VBROADCASTSD 56(SI), Y10
	VFMADD231PD  Y8, Y10, Y7
	ADDQ         $64, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          loop64

	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET
