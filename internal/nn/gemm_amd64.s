#include "textflag.h"

// func gemm4x8(c *float64, ldc int, a *float64, ar, ak int, b *float64, ldb int, mt, nt, k int)
//
// C[r·ldc + j] += Σ_κ A[r·ar + κ·ak] · B[κ·ldb + j] over mt×nt tiles of
// 4 rows × 8 columns, κ ascending from 0 to k-1 (k ≥ 1, mt, nt ≥ 1). Each
// tile lives in Y0–Y7 (two registers a row); every step broadcasts one A
// element per row and multiplies then adds, never fused, so each element
// sees the rounding sequence of the scalar loop s += a·b.
TEXT ·gemm4x8(SB), NOSPLIT, $0-80
	MOVQ ldc+8(FP), R8
	SHLQ $3, R8            // R8 = row stride of C in bytes
	LEAQ (R8)(R8*2), R9    // R9 = 3 rows of C
	MOVQ ar+24(FP), R10
	SHLQ $3, R10           // R10 = row stride of A in bytes
	LEAQ (R10)(R10*2), R11 // R11 = 3 rows of A
	MOVQ ak+32(FP), R12
	SHLQ $3, R12           // R12 = κ stride of A in bytes
	MOVQ ldb+48(FP), R13
	SHLQ $3, R13           // R13 = κ stride of B in bytes
	MOVQ a+16(FP), R14     // R14 = A at the current row tile
	MOVQ c+0(FP), R15      // R15 = C at the current row tile

rowtile:
	MOVQ R15, DI      // DI = C at the current tile
	MOVQ b+40(FP), BX // BX = B at the current column tile
	MOVQ nt+64(FP), CX

coltile:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 0(DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD 0(DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD 0(DI)(R9*1), Y6
	VMOVUPD 32(DI)(R9*1), Y7
	MOVQ    R14, SI
	MOVQ    BX, DX
	MOVQ    k+72(FP), AX

kloop:
	VMOVUPD      0(DX), Y8
	VMOVUPD      32(DX), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (SI)(R10*1), Y13
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y13
	VADDPD       Y14, Y2, Y2
	VADDPD       Y13, Y3, Y3
	VBROADCASTSD (SI)(R10*2), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (SI)(R11*1), Y13
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y13
	VADDPD       Y14, Y6, Y6
	VADDPD       Y13, Y7, Y7
	ADDQ         R12, SI
	ADDQ         R13, DX
	DECQ         AX
	JNZ          kloop

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 0(DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, 0(DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, 0(DI)(R9*1)
	VMOVUPD Y7, 32(DI)(R9*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	DECQ    CX
	JNZ     coltile

	LEAQ (R14)(R10*4), R14
	LEAQ (R15)(R8*4), R15
	DECQ mt+56(FP)
	JNZ  rowtile

	VZEROUPPER
	RET

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
