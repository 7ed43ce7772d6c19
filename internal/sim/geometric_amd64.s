#include "textflag.h"

// geomLanes holds 1·gamma … 8·gamma, the draw offsets of one vector's
// eight lanes; geomStride is 8·gamma, the offset from one vector of
// draws to the next.
DATA geomLanes<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA geomLanes<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA geomLanes<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA geomLanes<>+24(SB)/8, $0x78dde6e5fd29f054
DATA geomLanes<>+32(SB)/8, $0x1715609f7c746c69
DATA geomLanes<>+40(SB)/8, $0xb54cda58fbbee87e
DATA geomLanes<>+48(SB)/8, $0x538454127b096493
DATA geomLanes<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL geomLanes<>(SB), RODATA|NOPTR, $64

DATA geomStride<>+0(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL geomStride<>(SB), RODATA|NOPTR, $8

// func searchAVX512(s, lim uint64, blocks int) (k int, found bool)
//
// Each step mixes draws d+1 … d+32 in four ZMM vectors (Z8–Z11 from the
// states in Z0–Z3), compares every lane against lim, and packs the four
// 8-bit masks into one word whose bit i is draw d+1+i. The lowest set bit
// is the first success in draw order.
TEXT ·searchAVX512(SB), NOSPLIT, $0-33
	MOVQ s+0(FP), AX
	MOVQ lim+8(FP), BX
	MOVQ blocks+16(FP), CX
	VPBROADCASTQ AX, Z0
	VPADDQ       geomLanes<>(SB), Z0, Z0 // Z0 = states of draws 1…8
	VPBROADCASTQ geomStride<>(SB), Z4
	VPBROADCASTQ BX, Z5
	MOVQ         $0xbf58476d1ce4e5b9, R8
	VPBROADCASTQ R8, Z6
	MOVQ         $0x94d049bb133111eb, R8
	VPBROADCASTQ R8, Z7
	XORQ         DX, DX                   // draws searched before this step

loop:
	VPADDQ Z4, Z0, Z1
	VPADDQ Z4, Z1, Z2
	VPADDQ Z4, Z2, Z3

	// z ^= z >> 30; z *= 0xbf58476d1ce4e5b9
	VPSRLQ  $30, Z0, Z8
	VPSRLQ  $30, Z1, Z9
	VPSRLQ  $30, Z2, Z10
	VPSRLQ  $30, Z3, Z11
	VPXORQ  Z0, Z8, Z8
	VPXORQ  Z1, Z9, Z9
	VPXORQ  Z2, Z10, Z10
	VPXORQ  Z3, Z11, Z11
	VPMULLQ Z6, Z8, Z8
	VPMULLQ Z6, Z9, Z9
	VPMULLQ Z6, Z10, Z10
	VPMULLQ Z6, Z11, Z11

	// z ^= z >> 27; z *= 0x94d049bb133111eb
	VPSRLQ  $27, Z8, Z12
	VPSRLQ  $27, Z9, Z13
	VPSRLQ  $27, Z10, Z14
	VPSRLQ  $27, Z11, Z16
	VPXORQ  Z12, Z8, Z8
	VPXORQ  Z13, Z9, Z9
	VPXORQ  Z14, Z10, Z10
	VPXORQ  Z16, Z11, Z11
	VPMULLQ Z7, Z8, Z8
	VPMULLQ Z7, Z9, Z9
	VPMULLQ Z7, Z10, Z10
	VPMULLQ Z7, Z11, Z11

	// z ^= z >> 31
	VPSRLQ $31, Z8, Z12
	VPSRLQ $31, Z9, Z13
	VPSRLQ $31, Z10, Z14
	VPSRLQ $31, Z11, Z16
	VPXORQ Z12, Z8, Z8
	VPXORQ Z13, Z9, Z9
	VPXORQ Z14, Z10, Z10
	VPXORQ Z16, Z11, Z11

	// Unsigned draw < lim, one mask bit per lane.
	VPCMPUQ $1, Z5, Z8, K1
	VPCMPUQ $1, Z5, Z9, K2
	VPCMPUQ $1, Z5, Z10, K3
	VPCMPUQ $1, Z5, Z11, K4
	KMOVB   K1, R8
	KMOVB   K2, R9
	KMOVB   K3, R10
	KMOVB   K4, R11
	SHLQ    $8, R9
	SHLQ    $16, R10
	SHLQ    $24, R11
	ORQ     R9, R8
	ORQ     R10, R8
	ORQ     R11, R8
	JNZ     hit

	VPADDQ Z4, Z3, Z0
	ADDQ   $32, DX
	DECQ   CX
	JNZ    loop

	VZEROUPPER
	MOVQ DX, k+24(FP)
	MOVB $0, found+32(FP)
	RET

hit:
	// TZCNT decodes as BSF on a CPU without BMI1; both agree on a
	// nonzero operand.
	TZCNTQ R8, R8
	LEAQ   1(DX)(R8*1), DX
	VZEROUPPER
	MOVQ   DX, k+24(FP)
	MOVB   $1, found+32(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// dueLanes holds the dword offsets 0 … 15, the offsets of one step's
// sixteen entries.
DATA dueLanes<>+0(SB)/8, $0x0000000100000000
DATA dueLanes<>+8(SB)/8, $0x0000000300000002
DATA dueLanes<>+16(SB)/8, $0x0000000500000004
DATA dueLanes<>+24(SB)/8, $0x0000000700000006
DATA dueLanes<>+32(SB)/8, $0x0000000900000008
DATA dueLanes<>+40(SB)/8, $0x0000000b0000000a
DATA dueLanes<>+48(SB)/8, $0x0000000d0000000c
DATA dueLanes<>+56(SB)/8, $0x0000000f0000000e
GLOBL dueLanes<>(SB), RODATA|NOPTR, $64

// func dueAVX512(ne *Slot, n int, t Slot, out *int32) (k int)
//
// Each step compares sixteen entries against t, eight per signed compare
// (t ≥ ne[c], predicate NLT), joins the two 8-bit masks into one 16-bit
// mask, and compresses the offsets of the set lanes to out+k. The
// compress writes only the popcount lanes, so no store passes the last
// due offset. A last half step takes the remaining eight entries.
TEXT ·dueAVX512(SB), NOSPLIT, $0-40
	MOVQ         ne+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVQ         t+16(FP), AX
	MOVQ         out+24(FP), DI
	VPBROADCASTQ AX, Z0
	VMOVDQU32    dueLanes<>(SB), Z1 // Z1 = offsets of the step's entries
	MOVL         $16, R8
	VPBROADCASTD R8, Z2
	XORQ         DX, DX             // due offsets written
	XORQ         BX, BX             // entries compared
	SUBQ         $16, CX            // last start of a whole step
	JLT          half

loop:
	VPCMPQ      $5, (SI)(BX*8), Z0, K1
	VPCMPQ      $5, 64(SI)(BX*8), Z0, K2
	KUNPCKBW    K1, K2, K3
	VPCOMPRESSD Z1, K3, (DI)(DX*4)
	KMOVW       K3, R8
	POPCNTL     R8, R8
	ADDQ        R8, DX
	VPADDD      Z2, Z1, Z1
	ADDQ        $16, BX
	CMPQ        BX, CX
	JLE         loop

half:
	ADDQ        $16, CX
	CMPQ        BX, CX
	JGE         done
	VPCMPQ      $5, (SI)(BX*8), Z0, K1
	VPCOMPRESSD Z1, K1, (DI)(DX*4)
	KMOVW       K1, R8
	POPCNTL     R8, R8
	ADDQ        R8, DX

done:
	VZEROUPPER
	MOVQ DX, k+32(FP)
	RET
