// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// The SHA-NI compression behind leafHash and nodeHash, adapted from
// blockSHANI in the Go distribution's
// src/crypto/internal/fips140/sha256/sha256block_amd64.s (generated there
// from _asm/sha256block_amd64_shani.go). The rounds are Go's, with three
// changes: the state starts from the SHA-256 IV instead of a digest
// argument and leaves as the big-endian digest, the VEX moves are their
// SSE forms (MOVOU, MOVO) so the kernel needs no AVX state, and the K table
// is stored once instead of in the AVX2 routine's doubled rows (stride 16,
// not 32). Reference: S. Gulley et al., "New Instructions Supporting the
// Secure Hash Algorithm on Intel Architecture Processors", July 2013.

//go:build !purego

#include "textflag.h"

// func hashSHANI(digest *[HashBytes]byte, p []byte)
// Requires: SHA, SSE2, SSE4.1, SSSE3
TEXT ·hashSHANI(SB), NOSPLIT, $0-32
	MOVQ  digest+0(FP), DI
	MOVQ  p_base+8(FP), SI
	MOVQ  p_len+16(FP), DX
	MOVOU iv_abef<>+0(SB), X1
	MOVOU iv_cdgh<>+0(SB), X2
	MOVOU flip_mask<>+0(SB), X8
	LEAQ  K256<>+0(SB), AX
	SHRQ  $0x06, DX
	SHLQ  $0x06, DX
	CMPQ  DX, $0x00
	JEQ   output
	ADDQ  SI, DX

roundLoop:
	// save hash values for addition after rounds
	MOVO    X1, X9
	MOVO    X2, X10

	// do rounds 0-59
	MOVOU       (SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X3
	PADDD       (AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVOU       16(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X4
	PADDD       16(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVOU       32(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X5
	PADDD       32(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVOU       48(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X6
	PADDD       48(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       64(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       80(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       96(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       112(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       128(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       144(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       160(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       176(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       192(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       208(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVO        X5, X0
	PADDD       224(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// do rounds 60-63
	MOVO        X6, X0
	PADDD       240(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// add current hash values with previously saved
	PADDD X9, X1
	PADDD X10, X2

	// advance data pointer; loop until buffer empty
	ADDQ $0x40, SI
	CMPQ DX, SI
	JNE  roundLoop

output:
	// ABEF, CDGH back to ABCD, EFGH, each word big-endian
	PSHUFD  $0x1b, X1, X1
	PSHUFD  $0xb1, X2, X2
	MOVO    X1, X7
	PBLENDW $0xf0, X2, X1
	PALIGNR $0x08, X7, X2
	PSHUFB  X8, X1
	PSHUFB  X8, X2
	MOVOU   X1, (DI)
	MOVOU   X2, 16(DI)
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
