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
//
// The file also holds hashAVX512, the 16-lane kernel behind hashBatch,
// which is this package's own: FIPS 180-4's rounds on sixteen messages at
// once, one to a dword lane of each ZMM register. It shares the IV, the
// byte-swap mask and the K table below with hashSHANI2.

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

// The wide kernel's steps, each on sixteen dword lanes at once.
//
// GATHER loads word off/4 of the current block of every lane into w and
// byte-swaps it; the gather clears its mask, so each sets it first.
#define GATHER(off, w) \
	KXNORW     K0, K0, K1; \
	VPGATHERDD off(SI)(Z30*1), K1, w; \
	VPSHUFB    Z31, w, w

// SCHED extends the schedule ring in place: w16 holds W[t-16] and becomes
// W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]. VPTERNLOGD $0x96 is a
// three-way XOR.
#define SCHED(w16, w15, w7, w2) \
	VPRORD     $7, w15, Z24; \
	VPRORD     $18, w15, Z25; \
	VPSRLD     $3, w15, Z26; \
	VPTERNLOGD $0x96, Z24, Z25, Z26; \
	VPADDD     Z26, w16, w16; \
	VPADDD     w7, w16, w16; \
	VPRORD     $17, w2, Z24; \
	VPRORD     $19, w2, Z25; \
	VPSRLD     $10, w2, Z26; \
	VPTERNLOGD $0x96, Z24, Z25, Z26; \
	VPADDD     Z26, w16, w16

// ROUND is SHA-256 round t with W[t] in w and K[t] at k(AX): h becomes
// T1 = h + Σ1(e) + Ch(e, f, g) + K[t] + W[t], d becomes d + T1 and h then
// T1 + Σ0(a) + Maj(a, b, c), the next round's a. VPTERNLOGD $0xCA picks f
// where e is set and g elsewhere (Ch); $0xE8 is the bitwise majority (Maj).
#define ROUND(a, b, c, d, e, f, g, h, w, k) \
	VPADDD      w, h, h; \
	VPADDD.BCST k(AX), h, h; \
	VPRORD      $6, e, Z24; \
	VPRORD      $11, e, Z25; \
	VPRORD      $25, e, Z26; \
	VPTERNLOGD  $0x96, Z24, Z25, Z26; \
	VMOVDQA32   e, Z27; \
	VPTERNLOGD  $0xCA, g, f, Z27; \
	VPADDD      Z26, h, h; \
	VPADDD      Z27, h, h; \
	VPADDD      h, d, d; \
	VPRORD      $2, a, Z24; \
	VPRORD      $13, a, Z25; \
	VPRORD      $22, a, Z28; \
	VPTERNLOGD  $0x96, Z24, Z25, Z28; \
	VMOVDQA32   a, Z29; \
	VPTERNLOGD  $0xE8, c, b, Z29; \
	VPADDD      Z28, h, h; \
	VPADDD      Z29, h, h

// SCATTER writes state word w, byte-swapped, as word off/4 of every lane's
// digest.
#define SCATTER(w, off) \
	VPSHUFB     Z31, w, w; \
	KXNORW      K0, K0, K1; \
	VPSCATTERDD w, K1, off(DI)(Z30*1)

// func hashAVX512(d *[batch][HashBytes]byte, p []byte)
// Requires: AVX512F, AVX512BW
//
// Sixteen messages of equal length, laid out back to back in p, each
// len(p)/16 bytes of whole SHA-256 blocks with the padding in place, are
// compressed from the IV, one message to a dword lane of each ZMM
// register, and digest i is written to d[i]. Z0-Z7 hold the state a-h;
// each round's macro names them rotated by one, so no state moves. Z8-Z23
// are the message-schedule ring W[t mod 16], Z24-Z29 scratch, Z30 the
// gather (then scatter) index and Z31 the byte-swap mask. A block's words
// come in by VPGATHERDD, lane i reading at i*len(p)/16, and are byte-swapped
// with VPSHUFB; K comes in by embedded broadcast. The state a block adds
// back at its end waits in the 512-byte frame. The digests leave
// byte-swapped by VPSCATTERDD, lane i writing at i*32.
TEXT ·hashAVX512(SB), NOSPLIT, $512-32
	MOVQ            d+0(FP), DI
	MOVQ            p_base+8(FP), SI
	MOVQ            p_len+16(FP), DX
	SHRQ            $0x04, DX
	VPBROADCASTD    DX, Z30
	VPMULLD         lanes<>+0(SB), Z30, Z30
	VBROADCASTI32X4 flip_mask<>+0(SB), Z31
	VPBROADCASTD    iv_abef<>+12(SB), Z0
	VPBROADCASTD    iv_abef<>+8(SB), Z1
	VPBROADCASTD    iv_cdgh<>+12(SB), Z2
	VPBROADCASTD    iv_cdgh<>+8(SB), Z3
	VPBROADCASTD    iv_abef<>+4(SB), Z4
	VPBROADCASTD    iv_abef<>+0(SB), Z5
	VPBROADCASTD    iv_cdgh<>+4(SB), Z6
	VPBROADCASTD    iv_cdgh<>+0(SB), Z7
	LEAQ            K256<>+0(SB), AX
	ADDQ            SI, DX

wideLoop:
	VMOVDQU32 Z0, 0(SP)
	VMOVDQU32 Z1, 64(SP)
	VMOVDQU32 Z2, 128(SP)
	VMOVDQU32 Z3, 192(SP)
	VMOVDQU32 Z4, 256(SP)
	VMOVDQU32 Z5, 320(SP)
	VMOVDQU32 Z6, 384(SP)
	VMOVDQU32 Z7, 448(SP)

	GATHER(0, Z8)
	GATHER(4, Z9)
	GATHER(8, Z10)
	GATHER(12, Z11)
	GATHER(16, Z12)
	GATHER(20, Z13)
	GATHER(24, Z14)
	GATHER(28, Z15)
	GATHER(32, Z16)
	GATHER(36, Z17)
	GATHER(40, Z18)
	GATHER(44, Z19)
	GATHER(48, Z20)
	GATHER(52, Z21)
	GATHER(56, Z22)
	GATHER(60, Z23)
	// rounds 0-7
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, 0)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z9, 4)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z10, 8)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z11, 12)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z12, 16)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z13, 20)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z14, 24)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z15, 28)

	// rounds 8-15
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 32)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 36)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 40)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 44)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 48)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 52)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 56)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 60)

	// rounds 16-23
	SCHED(Z8, Z9, Z17, Z22)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, 64)
	SCHED(Z9, Z10, Z18, Z23)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z9, 68)
	SCHED(Z10, Z11, Z19, Z8)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z10, 72)
	SCHED(Z11, Z12, Z20, Z9)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z11, 76)
	SCHED(Z12, Z13, Z21, Z10)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z12, 80)
	SCHED(Z13, Z14, Z22, Z11)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z13, 84)
	SCHED(Z14, Z15, Z23, Z12)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z14, 88)
	SCHED(Z15, Z16, Z8, Z13)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z15, 92)

	// rounds 24-31
	SCHED(Z16, Z17, Z9, Z14)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 96)
	SCHED(Z17, Z18, Z10, Z15)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 100)
	SCHED(Z18, Z19, Z11, Z16)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 104)
	SCHED(Z19, Z20, Z12, Z17)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 108)
	SCHED(Z20, Z21, Z13, Z18)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 112)
	SCHED(Z21, Z22, Z14, Z19)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 116)
	SCHED(Z22, Z23, Z15, Z20)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 120)
	SCHED(Z23, Z8, Z16, Z21)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 124)

	// rounds 32-39
	SCHED(Z8, Z9, Z17, Z22)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, 128)
	SCHED(Z9, Z10, Z18, Z23)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z9, 132)
	SCHED(Z10, Z11, Z19, Z8)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z10, 136)
	SCHED(Z11, Z12, Z20, Z9)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z11, 140)
	SCHED(Z12, Z13, Z21, Z10)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z12, 144)
	SCHED(Z13, Z14, Z22, Z11)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z13, 148)
	SCHED(Z14, Z15, Z23, Z12)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z14, 152)
	SCHED(Z15, Z16, Z8, Z13)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z15, 156)

	// rounds 40-47
	SCHED(Z16, Z17, Z9, Z14)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 160)
	SCHED(Z17, Z18, Z10, Z15)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 164)
	SCHED(Z18, Z19, Z11, Z16)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 168)
	SCHED(Z19, Z20, Z12, Z17)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 172)
	SCHED(Z20, Z21, Z13, Z18)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 176)
	SCHED(Z21, Z22, Z14, Z19)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 180)
	SCHED(Z22, Z23, Z15, Z20)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 184)
	SCHED(Z23, Z8, Z16, Z21)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 188)

	// rounds 48-55
	SCHED(Z8, Z9, Z17, Z22)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, 192)
	SCHED(Z9, Z10, Z18, Z23)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z9, 196)
	SCHED(Z10, Z11, Z19, Z8)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z10, 200)
	SCHED(Z11, Z12, Z20, Z9)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z11, 204)
	SCHED(Z12, Z13, Z21, Z10)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z12, 208)
	SCHED(Z13, Z14, Z22, Z11)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z13, 212)
	SCHED(Z14, Z15, Z23, Z12)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z14, 216)
	SCHED(Z15, Z16, Z8, Z13)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z15, 220)

	// rounds 56-63
	SCHED(Z16, Z17, Z9, Z14)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 224)
	SCHED(Z17, Z18, Z10, Z15)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 228)
	SCHED(Z18, Z19, Z11, Z16)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 232)
	SCHED(Z19, Z20, Z12, Z17)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 236)
	SCHED(Z20, Z21, Z13, Z18)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 240)
	SCHED(Z21, Z22, Z14, Z19)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 244)
	SCHED(Z22, Z23, Z15, Z20)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 248)
	SCHED(Z23, Z8, Z16, Z21)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 252)

	VPADDD 0(SP), Z0, Z0
	VPADDD 64(SP), Z1, Z1
	VPADDD 128(SP), Z2, Z2
	VPADDD 192(SP), Z3, Z3
	VPADDD 256(SP), Z4, Z4
	VPADDD 320(SP), Z5, Z5
	VPADDD 384(SP), Z6, Z6
	VPADDD 448(SP), Z7, Z7
	ADDQ   $0x40, SI
	CMPQ   SI, DX
	JB     wideLoop

	VMOVDQU32 lanes<>+0(SB), Z30
	VPSLLD    $0x05, Z30, Z30
	SCATTER(Z0, 0)
	SCATTER(Z1, 4)
	SCATTER(Z2, 8)
	SCATTER(Z3, 12)
	SCATTER(Z4, 16)
	SCATTER(Z5, 20)
	SCATTER(Z6, 24)
	SCATTER(Z7, 28)
	VZEROUPPER
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

// lanes is 0..15, one dword a lane: times a message's length it is the
// wide kernel's gather index, times 32 its scatter index.
DATA lanes<>+0(SB)/8, $0x0000000100000000
DATA lanes<>+8(SB)/8, $0x0000000300000002
DATA lanes<>+16(SB)/8, $0x0000000500000004
DATA lanes<>+24(SB)/8, $0x0000000700000006
DATA lanes<>+32(SB)/8, $0x0000000900000008
DATA lanes<>+40(SB)/8, $0x0000000b0000000a
DATA lanes<>+48(SB)/8, $0x0000000d0000000c
DATA lanes<>+56(SB)/8, $0x0000000f0000000e
GLOBL lanes<>(SB), RODATA|NOPTR, $64

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
