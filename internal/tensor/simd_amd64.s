#include "textflag.h"

// AVX2 kernels of the tensor package. Each lane of a YMM register holds
// one output or one weight and takes the scalar Go loop's operations in
// the scalar loop's order: a separate VMULPD rounds every product before
// its VADDPD (never an FMA), and no sum is reassociated across lanes, so
// every result is bit-identical to the scalar code. Every kernel ends
// with VZEROUPPER.

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
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

// func axpyAVX2(alpha float64, x, y []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y8
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX
	XORQ         AX, AX

	// Two independent blocks per iteration, then the last one.
	MOVQ CX, DX
	ANDQ $~7, DX

axpy8:
	CMPQ    AX, DX
	JGE     axpy4
	VMULPD  (SI)(AX*8), Y8, Y0
	VMULPD  32(SI)(AX*8), Y8, Y1
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VADDPD  Y0, Y2, Y2
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     axpy8

axpy4:
	CMPQ    AX, CX
	JGE     axpyDone
	VMULPD  (SI)(AX*8), Y8, Y0
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y0, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)

axpyDone:
	VZEROUPPER
	RET

// func addRows8AVX2(drow []float64, cs *[8]float64, rows *[8][]float64)
TEXT ·addRows8AVX2(SB), NOSPLIT, $0-40
	MOVQ drow_base+0(FP), DI
	MOVQ drow_len+8(FP), CX
	MOVQ cs+24(FP), SI
	MOVQ rows+32(FP), DX

	VBROADCASTSD 0(SI), Y8
	VBROADCASTSD 8(SI), Y9
	VBROADCASTSD 16(SI), Y10
	VBROADCASTSD 24(SI), Y11
	VBROADCASTSD 32(SI), Y12
	VBROADCASTSD 40(SI), Y13
	VBROADCASTSD 48(SI), Y14
	VBROADCASTSD 56(SI), Y15

	// The base of each row slice (a slice header is 24 bytes).
	MOVQ 0(DX), R8
	MOVQ 24(DX), R9
	MOVQ 48(DX), R10
	MOVQ 72(DX), R11
	MOVQ 96(DX), R12
	MOVQ 120(DX), R13
	MOVQ 144(DX), AX
	MOVQ 168(DX), BX
	XORQ SI, SI

rows8:
	CMPQ    SI, CX
	JGE     rows8Done
	VMOVUPD (DI)(SI*8), Y0
	VMULPD  (R8)(SI*8), Y8, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R9)(SI*8), Y9, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R10)(SI*8), Y10, Y3
	VADDPD  Y3, Y0, Y0
	VMULPD  (R11)(SI*8), Y11, Y4
	VADDPD  Y4, Y0, Y0
	VMULPD  (R12)(SI*8), Y12, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R13)(SI*8), Y13, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  (AX)(SI*8), Y14, Y7
	VADDPD  Y7, Y0, Y0
	VMULPD  (BX)(SI*8), Y15, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(SI*8)
	ADDQ    $4, SI
	JMP     rows8

rows8Done:
	VZEROUPPER
	RET

// func mulABtAVX2(dst, a, bt []float64, rows, k, n int)
//
// For each row of a, sixteen columns at a time (four accumulators), then
// four: every lane starts at +0 and adds a[i][k']·bt[k'][j] for k' = 0..k-1.
TEXT ·mulABtAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ bt_base+48(FP), DX
	MOVQ rows+72(FP), R8
	MOVQ k+80(FP), R9
	MOVQ n+88(FP), R10
	MOVQ R10, R11
	ANDQ $~3, R11         // columns covered, and bt's row length
	LEAQ (R11*8), R12     // bt's row stride in bytes
	MOVQ R11, AX
	ANDQ $~15, AX         // columns covered sixteen at a time

mulRow:
	TESTQ R8, R8
	JZ    mulDone
	XORQ  BX, BX          // column j

mulCol16:
	CMPQ   BX, AX
	JGE    mulCol4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (DX)(BX*8), R13
	XORQ   CX, CX

mulK16:
	CMPQ         CX, R9
	JGE          mulStore16
	VBROADCASTSD (SI)(CX*8), Y4
	VMULPD       (R13), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R13), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R13), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R13), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R12, R13
	INCQ         CX
	JMP          mulK16

mulStore16:
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	ADDQ    $16, BX
	JMP     mulCol16

mulCol4:
	CMPQ   BX, R11
	JGE    mulNextRow
	VXORPD Y0, Y0, Y0
	LEAQ   (DX)(BX*8), R13
	XORQ   CX, CX

mulK4:
	CMPQ         CX, R9
	JGE          mulStore4
	VBROADCASTSD (SI)(CX*8), Y4
	VMULPD       (R13), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R12, R13
	INCQ         CX
	JMP          mulK4

mulStore4:
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     mulCol4

mulNextRow:
	LEAQ (SI)(R9*8), SI
	LEAQ (DI)(R10*8), DI
	DECQ R8
	JMP  mulRow

mulDone:
	VZEROUPPER
	RET

// func adamAVX2(w, g, m, v []float64, s *AdamStep)
//
// AdamStep's fields, in order: B1, D1, B2, D2, C1, C2, LR, Eps, Scale
// (float64s at offsets 0..64) and Clip (a bool at 72).
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), DX
	MOVQ v_base+72(FP), R8
	MOVQ s+96(FP), BX

	VBROADCASTSD 0(BX), Y8   // β1
	VBROADCASTSD 8(BX), Y9   // 1−β1
	VBROADCASTSD 16(BX), Y10 // β2
	VBROADCASTSD 24(BX), Y11 // 1−β2
	VBROADCASTSD 32(BX), Y12 // 1−β1^t
	VBROADCASTSD 40(BX), Y13 // 1−β2^t
	VBROADCASTSD 48(BX), Y14 // learning rate
	VBROADCASTSD 56(BX), Y15 // ε
	VBROADCASTSD 64(BX), Y6  // clip scale
	MOVBQZX      72(BX), R9  // clip
	VXORPD       Y7, Y7, Y7  // +0
	XORQ         AX, AX

adamLoop:
	CMPQ    AX, CX
	JGE     adamDone
	VMOVUPD (SI)(AX*8), Y0 // g
	TESTQ   R9, R9
	JZ      adamNoClip
	VMULPD  Y6, Y0, Y0     // g·scale

adamNoClip:
	VMOVUPD Y7, (SI)(AX*8)      // g = +0
	VMULPD  (DX)(AX*8), Y8, Y1  // β1·m
	VMULPD  Y0, Y9, Y3          // (1−β1)·g
	VADDPD  Y3, Y1, Y1          // m
	VMOVUPD Y1, (DX)(AX*8)
	VMULPD  (R8)(AX*8), Y10, Y2 // β2·v
	VMULPD  Y0, Y11, Y3         // (1−β2)·g
	VMULPD  Y0, Y3, Y3          // ((1−β2)·g)·g
	VADDPD  Y3, Y2, Y2          // v
	VMOVUPD Y2, (R8)(AX*8)
	VDIVPD  Y12, Y1, Y1         // m/(1−β1^t)
	VDIVPD  Y13, Y2, Y2         // v/(1−β2^t)
	VSQRTPD Y2, Y2
	VADDPD  Y15, Y2, Y2         // √(…) + ε
	VMULPD  Y1, Y14, Y1         // lr·(m/…)
	VDIVPD  Y2, Y1, Y1
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5          // w − step
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     adamLoop

adamDone:
	VZEROUPPER
	RET
