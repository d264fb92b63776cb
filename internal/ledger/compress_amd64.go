//go:build !purego

package ledger

// useSHANI selects the SHA-NI kernel in hash2. It needs the SHA extensions
// (CPUID leaf 7, EBX bit 29), SSSE3 and SSE4.1 (leaf 1, ECX bits 9 and 19);
// the kernel has no VEX encoding, so AVX state is not asked for.
//
// useAVX512 selects the wide kernel in hashBatch. It needs AVX512F and
// AVX512BW (leaf 7, EBX bits 16 and 30), and an OS that saves the opmask
// and ZMM state: OSXSAVE (leaf 1, ECX bit 27) and XCR0's SSE, AVX, opmask
// and both ZMM bits (0xE6). XGETBV runs only once OSXSAVE is known.
//
// Both are variables so that the tests can step down to each narrower
// branch the CPU has.
var useSHANI, useAVX512 = cpuFeatures()

func cpuFeatures() (shani, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	leaf7 := maxLeaf >= 7
	return leaf7 && ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0,
		leaf7 && ecx1&(1<<27) != 0 && ebx7&(1<<16) != 0 && ebx7&(1<<30) != 0 && xgetbv()&0xE6 == 0xE6
}

// hashSHANI2 compresses two messages of equal length at once, p0 into d0
// and p1 into d1: each is whole SHA-256 blocks with the padding already in
// place, compressed from the SHA-256 IV. len(p1) must equal len(p0).
//
//go:noescape
func hashSHANI2(d0, d1 *[HashBytes]byte, p0, p1 []byte)

// hashAVX512 compresses the batch messages of p at once, message i into
// d[i]: p is the messages back to back, each len(p)/batch bytes of whole
// SHA-256 blocks with the padding already in place (at least one block),
// compressed from the SHA-256 IV.
//
//go:noescape
func hashAVX512(d *[batch][HashBytes]byte, p []byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads the low word of XCR0, the state components the OS saves.
func xgetbv() (eax uint32)
