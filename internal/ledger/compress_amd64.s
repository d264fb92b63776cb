// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// The SHA-NI compression behind leafHash2 and nodeHash2, adapted from
// blockSHANI in the Go distribution's
// src/crypto/internal/fips140/sha256/sha256block_amd64.s (generated there
// from _asm/sha256block_amd64_shani.go). The rounds are Go's, written out
// for two independent messages at once, with four changes: the state starts
// from the SHA-256 IV instead of a digest argument and leaves as the
// big-endian digest, the VEX moves are their SSE forms (MOVOU, MOVO) so the
// kernel needs no AVX state, the K table is stored once instead of in the
// AVX2 routine's doubled rows (stride 16, not 32), and each four rounds
// extend the message schedule before they run, so that the lane's one
// scratch register is free to hold its W+K words across both SHA256RNDS2.
// Reference: S. Gulley et al., "New Instructions Supporting the Secure Hash
// Algorithm on Intel Architecture Processors", July 2013.

//go:build !purego

#include "textflag.h"

// func hashSHANI2(d0, d1 *[HashBytes]byte, p0, p1 []byte)
// Requires: SHA, SSE2, SSE4.1, SSSE3
//
// Register budget. SHA256RNDS2 reads its W+K words from X0 implicitly, so
// the lanes share X0 and each copies its words in just before each pair of
// rounds. Lane 0 (p0) keeps ABEF, CDGH in X1, X2, its four message
// registers in X3-X6 and its scratch in X7; lane 1 (p1) the same in X8, X9,
// X10-X13 and X14. X15 holds the byte-swap mask. The four state registers
// a block adds back at its end wait in the 64-byte frame.
TEXT ·hashSHANI2(SB), NOSPLIT, $64-64
	MOVQ  d0+0(FP), R8
	MOVQ  d1+8(FP), R9
	MOVQ  p0_base+16(FP), SI
	MOVQ  p0_len+24(FP), DX
	MOVQ  p1_base+40(FP), DI
	MOVOU iv_abef<>+0(SB), X1
	MOVOU iv_cdgh<>+0(SB), X2
	MOVO  X1, X8
	MOVO  X2, X9
	MOVOU flip_mask<>+0(SB), X15
	LEAQ  K256<>+0(SB), AX
	SHRQ  $0x06, DX
	SHLQ  $0x06, DX
	CMPQ  DX, $0x00
	JEQ   output
	ADDQ  SI, DX

roundLoop:
	// save hash values for addition after rounds
	MOVOU X1, 0(SP)
	MOVOU X2, 16(SP)
	MOVOU X8, 32(SP)
	MOVOU X9, 48(SP)

	// rounds 0-3
	MOVOU       (SI), X3
	PSHUFB      X15, X3
	MOVOU       (DI), X10
	PSHUFB      X15, X10
	MOVO        X3, X7
	PADDD       (AX), X7
	MOVO        X10, X14
	PADDD       (AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8

	// rounds 4-7
	MOVOU       16(SI), X4
	PSHUFB      X15, X4
	MOVOU       16(DI), X11
	PSHUFB      X15, X11
	MOVO        X4, X7
	PADDD       16(AX), X7
	MOVO        X11, X14
	PADDD       16(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X4, X3
	SHA256MSG1  X11, X10

	// rounds 8-11
	MOVOU       32(SI), X5
	PSHUFB      X15, X5
	MOVOU       32(DI), X12
	PSHUFB      X15, X12
	MOVO        X5, X7
	PADDD       32(AX), X7
	MOVO        X12, X14
	PADDD       32(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X5, X4
	SHA256MSG1  X12, X11

	// rounds 12-15
	MOVOU       48(SI), X6
	PSHUFB      X15, X6
	MOVOU       48(DI), X13
	PSHUFB      X15, X13
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	MOVO        X13, X14
	PALIGNR     $0x04, X12, X14
	PADDD       X14, X10
	SHA256MSG2  X13, X10
	MOVO        X6, X7
	PADDD       48(AX), X7
	MOVO        X13, X14
	PADDD       48(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X6, X5
	SHA256MSG1  X13, X12

	// rounds 16-19
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	MOVO        X10, X14
	PALIGNR     $0x04, X13, X14
	PADDD       X14, X11
	SHA256MSG2  X10, X11
	MOVO        X3, X7
	PADDD       64(AX), X7
	MOVO        X10, X14
	PADDD       64(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X3, X6
	SHA256MSG1  X10, X13

	// rounds 20-23
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	MOVO        X11, X14
	PALIGNR     $0x04, X10, X14
	PADDD       X14, X12
	SHA256MSG2  X11, X12
	MOVO        X4, X7
	PADDD       80(AX), X7
	MOVO        X11, X14
	PADDD       80(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X4, X3
	SHA256MSG1  X11, X10

	// rounds 24-27
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	MOVO        X12, X14
	PALIGNR     $0x04, X11, X14
	PADDD       X14, X13
	SHA256MSG2  X12, X13
	MOVO        X5, X7
	PADDD       96(AX), X7
	MOVO        X12, X14
	PADDD       96(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X5, X4
	SHA256MSG1  X12, X11

	// rounds 28-31
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	MOVO        X13, X14
	PALIGNR     $0x04, X12, X14
	PADDD       X14, X10
	SHA256MSG2  X13, X10
	MOVO        X6, X7
	PADDD       112(AX), X7
	MOVO        X13, X14
	PADDD       112(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X6, X5
	SHA256MSG1  X13, X12

	// rounds 32-35
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	MOVO        X10, X14
	PALIGNR     $0x04, X13, X14
	PADDD       X14, X11
	SHA256MSG2  X10, X11
	MOVO        X3, X7
	PADDD       128(AX), X7
	MOVO        X10, X14
	PADDD       128(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X3, X6
	SHA256MSG1  X10, X13

	// rounds 36-39
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	MOVO        X11, X14
	PALIGNR     $0x04, X10, X14
	PADDD       X14, X12
	SHA256MSG2  X11, X12
	MOVO        X4, X7
	PADDD       144(AX), X7
	MOVO        X11, X14
	PADDD       144(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X4, X3
	SHA256MSG1  X11, X10

	// rounds 40-43
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	MOVO        X12, X14
	PALIGNR     $0x04, X11, X14
	PADDD       X14, X13
	SHA256MSG2  X12, X13
	MOVO        X5, X7
	PADDD       160(AX), X7
	MOVO        X12, X14
	PADDD       160(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X5, X4
	SHA256MSG1  X12, X11

	// rounds 44-47
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	MOVO        X13, X14
	PALIGNR     $0x04, X12, X14
	PADDD       X14, X10
	SHA256MSG2  X13, X10
	MOVO        X6, X7
	PADDD       176(AX), X7
	MOVO        X13, X14
	PADDD       176(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X6, X5
	SHA256MSG1  X13, X12

	// rounds 48-51
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	MOVO        X10, X14
	PALIGNR     $0x04, X13, X14
	PADDD       X14, X11
	SHA256MSG2  X10, X11
	MOVO        X3, X7
	PADDD       192(AX), X7
	MOVO        X10, X14
	PADDD       192(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8
	SHA256MSG1  X3, X6
	SHA256MSG1  X10, X13

	// rounds 52-55
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	MOVO        X11, X14
	PALIGNR     $0x04, X10, X14
	PADDD       X14, X12
	SHA256MSG2  X11, X12
	MOVO        X4, X7
	PADDD       208(AX), X7
	MOVO        X11, X14
	PADDD       208(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8

	// rounds 56-59
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	MOVO        X12, X14
	PALIGNR     $0x04, X11, X14
	PADDD       X14, X13
	SHA256MSG2  X12, X13
	MOVO        X5, X7
	PADDD       224(AX), X7
	MOVO        X12, X14
	PADDD       224(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8

	// rounds 60-63
	MOVO        X6, X7
	PADDD       240(AX), X7
	MOVO        X13, X14
	PADDD       240(AX), X14
	MOVO        X7, X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X14, X0
	SHA256RNDS2 X0, X8, X9
	PSHUFD      $0x0e, X7, X0
	SHA256RNDS2 X0, X2, X1
	PSHUFD      $0x0e, X14, X0
	SHA256RNDS2 X0, X9, X8

	// add current hash values with previously saved
	MOVOU 0(SP), X7
	PADDD X7, X1
	MOVOU 16(SP), X7
	PADDD X7, X2
	MOVOU 32(SP), X14
	PADDD X14, X8
	MOVOU 48(SP), X14
	PADDD X14, X9

	// advance data pointers; loop until buffer empty
	ADDQ $0x40, SI
	ADDQ $0x40, DI
	CMPQ DX, SI
	JNE  roundLoop

output:
	// ABEF, CDGH back to ABCD, EFGH, each word big-endian
	PSHUFD  $0x1b, X1, X1
	PSHUFD  $0xb1, X2, X2
	MOVO    X1, X7
	PBLENDW $0xf0, X2, X1
	PALIGNR $0x08, X7, X2
	PSHUFB  X15, X1
	PSHUFB  X15, X2
	MOVOU   X1, (R8)
	MOVOU   X2, 16(R8)
	PSHUFD  $0x1b, X8, X8
	PSHUFD  $0xb1, X9, X9
	MOVO    X8, X14
	PBLENDW $0xf0, X9, X8
	PALIGNR $0x08, X14, X9
	PSHUFB  X15, X8
	PSHUFB  X15, X9
	MOVOU   X8, (R9)
	MOVOU   X9, 16(R9)
	RET

// The SHA-256 IV (H0..H7 = a..h) as SHA256RNDS2 holds it: ABEF is the
// dwords f, e, b, a from low to high and CDGH is h, g, d, c.
DATA iv_abef<>+0(SB)/4, $0x9b05688c
DATA iv_abef<>+4(SB)/4, $0x510e527f
DATA iv_abef<>+8(SB)/4, $0xbb67ae85
DATA iv_abef<>+12(SB)/4, $0x6a09e667
GLOBL iv_abef<>(SB), RODATA|NOPTR, $16

DATA iv_cdgh<>+0(SB)/4, $0x5be0cd19
DATA iv_cdgh<>+4(SB)/4, $0x1f83d9ab
DATA iv_cdgh<>+8(SB)/4, $0xa54ff53a
DATA iv_cdgh<>+12(SB)/4, $0x3c6ef372
GLOBL iv_cdgh<>(SB), RODATA|NOPTR, $16

// flip_mask byte-swaps each dword: message words in, digest words out.
DATA flip_mask<>+0(SB)/8, $0x0405060700010203
DATA flip_mask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flip_mask<>(SB), RODATA|NOPTR, $16

// K256 is the 64 round constants, four to a PADDD. The legacy SSE PADDD
// reads them from memory, so the table must be 16-byte aligned: the linker
// aligns a 256-byte symbol to 32.
DATA K256<>+0(SB)/4, $0x428a2f98
DATA K256<>+4(SB)/4, $0x71374491
DATA K256<>+8(SB)/4, $0xb5c0fbcf
DATA K256<>+12(SB)/4, $0xe9b5dba5
DATA K256<>+16(SB)/4, $0x3956c25b
DATA K256<>+20(SB)/4, $0x59f111f1
DATA K256<>+24(SB)/4, $0x923f82a4
DATA K256<>+28(SB)/4, $0xab1c5ed5
DATA K256<>+32(SB)/4, $0xd807aa98
DATA K256<>+36(SB)/4, $0x12835b01
DATA K256<>+40(SB)/4, $0x243185be
DATA K256<>+44(SB)/4, $0x550c7dc3
DATA K256<>+48(SB)/4, $0x72be5d74
DATA K256<>+52(SB)/4, $0x80deb1fe
DATA K256<>+56(SB)/4, $0x9bdc06a7
DATA K256<>+60(SB)/4, $0xc19bf174
DATA K256<>+64(SB)/4, $0xe49b69c1
DATA K256<>+68(SB)/4, $0xefbe4786
DATA K256<>+72(SB)/4, $0x0fc19dc6
DATA K256<>+76(SB)/4, $0x240ca1cc
DATA K256<>+80(SB)/4, $0x2de92c6f
DATA K256<>+84(SB)/4, $0x4a7484aa
DATA K256<>+88(SB)/4, $0x5cb0a9dc
DATA K256<>+92(SB)/4, $0x76f988da
DATA K256<>+96(SB)/4, $0x983e5152
DATA K256<>+100(SB)/4, $0xa831c66d
DATA K256<>+104(SB)/4, $0xb00327c8
DATA K256<>+108(SB)/4, $0xbf597fc7
DATA K256<>+112(SB)/4, $0xc6e00bf3
DATA K256<>+116(SB)/4, $0xd5a79147
DATA K256<>+120(SB)/4, $0x06ca6351
DATA K256<>+124(SB)/4, $0x14292967
DATA K256<>+128(SB)/4, $0x27b70a85
DATA K256<>+132(SB)/4, $0x2e1b2138
DATA K256<>+136(SB)/4, $0x4d2c6dfc
DATA K256<>+140(SB)/4, $0x53380d13
DATA K256<>+144(SB)/4, $0x650a7354
DATA K256<>+148(SB)/4, $0x766a0abb
DATA K256<>+152(SB)/4, $0x81c2c92e
DATA K256<>+156(SB)/4, $0x92722c85
DATA K256<>+160(SB)/4, $0xa2bfe8a1
DATA K256<>+164(SB)/4, $0xa81a664b
DATA K256<>+168(SB)/4, $0xc24b8b70
DATA K256<>+172(SB)/4, $0xc76c51a3
DATA K256<>+176(SB)/4, $0xd192e819
DATA K256<>+180(SB)/4, $0xd6990624
DATA K256<>+184(SB)/4, $0xf40e3585
DATA K256<>+188(SB)/4, $0x106aa070
DATA K256<>+192(SB)/4, $0x19a4c116
DATA K256<>+196(SB)/4, $0x1e376c08
DATA K256<>+200(SB)/4, $0x2748774c
DATA K256<>+204(SB)/4, $0x34b0bcb5
DATA K256<>+208(SB)/4, $0x391c0cb3
DATA K256<>+212(SB)/4, $0x4ed8aa4a
DATA K256<>+216(SB)/4, $0x5b9cca4f
DATA K256<>+220(SB)/4, $0x682e6ff3
DATA K256<>+224(SB)/4, $0x748f82ee
DATA K256<>+228(SB)/4, $0x78a5636f
DATA K256<>+232(SB)/4, $0x84c87814
DATA K256<>+236(SB)/4, $0x8cc70208
DATA K256<>+240(SB)/4, $0x90befffa
DATA K256<>+244(SB)/4, $0xa4506ceb
DATA K256<>+248(SB)/4, $0xbef9a3f7
DATA K256<>+252(SB)/4, $0xc67178f2
GLOBL K256<>(SB), RODATA|NOPTR, $256

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
