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

// func addRows8AVX2(drow []float64, cs *[8]float64, b []float64, ks *[8]int, stride int)
TEXT ·addRows8AVX2(SB), NOSPLIT, $0-72
	MOVQ drow_base+0(FP), DI
	MOVQ drow_len+8(FP), CX
	MOVQ cs+24(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ ks+56(FP), BX
	MOVQ stride+64(FP), AX
	SHLQ $3, AX            // b's row stride in bytes

	VBROADCASTSD 0(SI), Y8
	VBROADCASTSD 8(SI), Y9
	VBROADCASTSD 16(SI), Y10
	VBROADCASTSD 24(SI), Y11
	VBROADCASTSD 32(SI), Y12
	VBROADCASTSD 40(SI), Y13
	VBROADCASTSD 48(SI), Y14
	VBROADCASTSD 56(SI), Y15

	// The base of row ks[t] of b.
	MOVQ  0(BX), R8
	IMULQ AX, R8
	ADDQ  DX, R8
	MOVQ  8(BX), R9
	IMULQ AX, R9
	ADDQ  DX, R9
	MOVQ  16(BX), R10
	IMULQ AX, R10
	ADDQ  DX, R10
	MOVQ  24(BX), R11
	IMULQ AX, R11
	ADDQ  DX, R11
	MOVQ  32(BX), R12
	IMULQ AX, R12
	ADDQ  DX, R12
	MOVQ  40(BX), R13
	IMULQ AX, R13
	ADDQ  DX, R13
	MOVQ  48(BX), SI
	IMULQ AX, SI
	ADDQ  DX, SI
	MOVQ  56(BX), BX
	IMULQ AX, BX
	ADDQ  DX, BX
	MOVQ  SI, AX
	XORQ  SI, SI

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

// func biasAVX2(x, bias []float64, relu bool)
//
// Every row of x (len(bias) long) takes x + bias in its first len(bias)&^3
// columns, then, with relu, +0 wherever that sum is below 0: the ordered
// compare is false on NaN and on −0, which pass through as Go's `v < 0`
// test leaves them.
TEXT ·biasAVX2(SB), NOSPLIT, $0-49
	MOVQ    x_base+0(FP), DI
	MOVQ    x_len+8(FP), CX
	MOVQ    bias_base+24(FP), SI
	MOVQ    bias_len+32(FP), R8
	MOVBQZX relu+48(FP), R9
	MOVQ    R8, R10
	ANDQ    $~3, R10         // columns covered
	LEAQ    (DI)(CX*8), R11  // end of x
	VXORPD  Y7, Y7, Y7       // +0

biasRow:
	CMPQ DI, R11
	JGE  biasDone
	XORQ AX, AX

biasCol:
	CMPQ    AX, R10
	JGE     biasNextRow
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0 // x + bias
	TESTQ   R9, R9
	JZ      biasStore
	VCMPPD  $1, Y7, Y0, Y1     // x + bias < 0 (LT_OS)
	VANDNPD Y0, Y1, Y0

biasStore:
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     biasCol

biasNextRow:
	LEAQ (DI)(R8*8), DI
	JMP  biasRow

biasDone:
	VZEROUPPER
	RET

// func reluSumAVX2(dst, x, y []float64)
//
// dst[i] = x[i] + y[i] (x[i] alone when y is empty), then +0 wherever that
// is below 0, for i < len(dst).
TEXT ·reluSumAVX2(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   x_base+24(FP), SI
	MOVQ   y_base+48(FP), DX
	MOVQ   y_len+56(FP), R8
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX

reluSumLoop:
	CMPQ    AX, CX
	JGE     reluSumDone
	VMOVUPD (SI)(AX*8), Y0
	TESTQ   R8, R8
	JZ      reluSumMask
	VADDPD  (DX)(AX*8), Y0, Y0 // x + y

reluSumMask:
	VCMPPD  $1, Y7, Y0, Y1     // below 0 (LT_OS)
	VANDNPD Y0, Y1, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     reluSumLoop

reluSumDone:
	VZEROUPPER
	RET

// func reluMaskAVX2(g, v []float64)
//
// g[i] = +0 wherever v[i] <= 0 (LE_OS: false on NaN, true on −0), for
// i < len(g).
TEXT ·reluMaskAVX2(SB), NOSPLIT, $0-48
	MOVQ   g_base+0(FP), DI
	MOVQ   g_len+8(FP), CX
	MOVQ   v_base+24(FP), SI
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX

reluMaskLoop:
	CMPQ    AX, CX
	JGE     reluMaskDone
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD  $2, Y7, Y0, Y1       // v <= 0
	VANDNPD (DI)(AX*8), Y1, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     reluMaskLoop

reluMaskDone:
	VZEROUPPER
	RET

// func reluGradAVX2(dst, g, y []float64)
//
// dst[i] = g[i]·d with d = 1 where y[i] > 0 (GT_OS: false on NaN and on
// −0) and +0 elsewhere, for i < len(dst): the product is always taken, as
// Go's g·derivFromOutput(y) takes it, so an infinite or NaN g times +0
// gives NaN.
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         y_base+48(FP), DX
	VXORPD       Y7, Y7, Y7
	MOVQ         $0x3FF0000000000000, AX // 1.0
	MOVQ         AX, X6
	VBROADCASTSD X6, Y6
	XORQ         AX, AX

reluGradLoop:
	CMPQ    AX, CX
	JGE     reluGradDone
	VMOVUPD (DX)(AX*8), Y0
	VCMPPD  $14, Y7, Y0, Y1    // y > 0 (GT_OS)
	VANDPD  Y6, Y1, Y1         // 1 or +0
	VMOVUPD (SI)(AX*8), Y2
	VMULPD  Y1, Y2, Y2         // g·d
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     reluGradLoop

reluGradDone:
	VZEROUPPER
	RET

// func addMulAtBAVX2(t, a, b []float64, rows, m, n int)
//
// t is n×(m&^3), row j holding dst's column j for the outputs i < m&^3.
// Sixteen outputs at a time (then four), and for each block two columns j
// at a time (then one), the block's lanes stay in registers while the
// samples s = 0..rows-1 pass in ascending order: every lane takes
// t + a[s][i]·b[s][j] where a[s][i] != 0 (NEQ_UQ: true on NaN, false on
// ±0) and keeps t elsewhere, so a zero coefficient is skipped by select,
// never added as a product. The two columns of a pair share the sixteen
// coefficients' masks. rows must be at least 1.
TEXT ·addMulAtBAVX2(SB), NOSPLIT, $0-96
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ m+80(FP), R9
	MOVQ n+88(FP), R10
	MOVQ R9, R11
	ANDQ $~3, R11          // outputs covered
	MOVQ R11, R12
	ANDQ $~15, R12         // outputs covered sixteen at a time
	SHLQ $3, R9            // a's row stride in bytes
	SHLQ $3, R10           // b's row stride in bytes
	SHLQ $3, R11           // t's row stride in bytes
	XORQ BX, BX            // output i

atbBlock16:
	CMPQ BX, R12
	JGE  atbBlock4
	MOVQ t_base+0(FP), DI
	LEAQ (DI)(BX*8), DI    // t[j][i], j = 0
	XORQ R13, R13          // column j

atbPair16:
	LEAQ    1(R13), CX
	CMPQ    CX, n+88(FP)
	JGE     atbOne16
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD (DI)(R11*1), Y4
	VMOVUPD 32(DI)(R11*1), Y5
	VMOVUPD 64(DI)(R11*1), Y6
	VMOVUPD 96(DI)(R11*1), Y7
	LEAQ    (SI)(BX*8), AX // a[s][i]
	LEAQ    (DX)(R13*8), R8 // b[s][j]
	MOVQ    rows+72(FP), CX

atbPairS16:
	VXORPD       Y14, Y14, Y14
	VCMPPD       $4, (AX), Y14, Y8
	VCMPPD       $4, 32(AX), Y14, Y9
	VCMPPD       $4, 64(AX), Y14, Y10
	VCMPPD       $4, 96(AX), Y14, Y11
	VBROADCASTSD (R8), Y12
	VBROADCASTSD 8(R8), Y13
	VMULPD       (AX), Y12, Y14
	VADDPD       Y14, Y0, Y14
	VBLENDVPD    Y8, Y14, Y0, Y0
	VMULPD       32(AX), Y12, Y14
	VADDPD       Y14, Y1, Y14
	VBLENDVPD    Y9, Y14, Y1, Y1
	VMULPD       64(AX), Y12, Y14
	VADDPD       Y14, Y2, Y14
	VBLENDVPD    Y10, Y14, Y2, Y2
	VMULPD       96(AX), Y12, Y14
	VADDPD       Y14, Y3, Y14
	VBLENDVPD    Y11, Y14, Y3, Y3
	VMULPD       (AX), Y13, Y14
	VADDPD       Y14, Y4, Y14
	VBLENDVPD    Y8, Y14, Y4, Y4
	VMULPD       32(AX), Y13, Y14
	VADDPD       Y14, Y5, Y14
	VBLENDVPD    Y9, Y14, Y5, Y5
	VMULPD       64(AX), Y13, Y14
	VADDPD       Y14, Y6, Y14
	VBLENDVPD    Y10, Y14, Y6, Y6
	VMULPD       96(AX), Y13, Y14
	VADDPD       Y14, Y7, Y14
	VBLENDVPD    Y11, Y14, Y7, Y7
	ADDQ         R9, AX
	ADDQ         R10, R8
	DECQ         CX
	JNZ          atbPairS16

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (DI)(R11*1)
	VMOVUPD Y5, 32(DI)(R11*1)
	VMOVUPD Y6, 64(DI)(R11*1)
	VMOVUPD Y7, 96(DI)(R11*1)
	LEAQ    (DI)(R11*2), DI
	ADDQ    $2, R13
	JMP     atbPair16

atbOne16:
	CMPQ    R13, n+88(FP)
	JGE     atbNext16
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	LEAQ    (SI)(BX*8), AX
	LEAQ    (DX)(R13*8), R8
	MOVQ    rows+72(FP), CX

atbOneS16:
	VXORPD       Y14, Y14, Y14
	VCMPPD       $4, (AX), Y14, Y8
	VCMPPD       $4, 32(AX), Y14, Y9
	VCMPPD       $4, 64(AX), Y14, Y10
	VCMPPD       $4, 96(AX), Y14, Y11
	VBROADCASTSD (R8), Y12
	VMULPD       (AX), Y12, Y4
	VADDPD       Y4, Y0, Y4
	VBLENDVPD    Y8, Y4, Y0, Y0
	VMULPD       32(AX), Y12, Y5
	VADDPD       Y5, Y1, Y5
	VBLENDVPD    Y9, Y5, Y1, Y1
	VMULPD       64(AX), Y12, Y6
	VADDPD       Y6, Y2, Y6
	VBLENDVPD    Y10, Y6, Y2, Y2
	VMULPD       96(AX), Y12, Y7
	VADDPD       Y7, Y3, Y7
	VBLENDVPD    Y11, Y7, Y3, Y3
	ADDQ         R9, AX
	ADDQ         R10, R8
	DECQ         CX
	JNZ          atbOneS16

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)

atbNext16:
	ADDQ $16, BX
	JMP  atbBlock16

atbBlock4:
	LEAQ (BX*8), CX
	CMPQ CX, R11
	JGE  atbDone
	MOVQ t_base+0(FP), DI
	LEAQ (DI)(BX*8), DI
	XORQ R13, R13

atbCol4:
	CMPQ    R13, n+88(FP)
	JGE     atbNext4
	VMOVUPD (DI), Y0
	LEAQ    (SI)(BX*8), AX
	LEAQ    (DX)(R13*8), R8
	MOVQ    rows+72(FP), CX

atbS4:
	VXORPD       Y14, Y14, Y14
	VCMPPD       $4, (AX), Y14, Y8
	VBROADCASTSD (R8), Y12
	VMULPD       (AX), Y12, Y4
	VADDPD       Y4, Y0, Y4
	VBLENDVPD    Y8, Y4, Y0, Y0
	ADDQ         R9, AX
	ADDQ         R10, R8
	DECQ         CX
	JNZ          atbS4

	VMOVUPD Y0, (DI)
	ADDQ    R11, DI
	INCQ    R13
	JMP     atbCol4

atbNext4:
	ADDQ $4, BX
	JMP  atbBlock4

atbDone:
	VZEROUPPER
	RET
