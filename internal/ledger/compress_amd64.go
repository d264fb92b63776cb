//go:build !purego

package ledger

// useSHANI selects the SHA-NI kernel in leafHash2 and nodeHash2. It needs
// the SHA extensions (CPUID leaf 7, EBX bit 29), SSSE3 and SSE4.1 (leaf 1,
// ECX bits 9 and 19); the kernel has no VEX encoding, so AVX state is not
// asked for.
var useSHANI = shaniSupported()

func shaniSupported() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}

// hashSHANI2 compresses two messages of equal length at once, p0 into d0
// and p1 into d1: each is whole SHA-256 blocks with the padding already in
// place, compressed from the SHA-256 IV. len(p1) must equal len(p0).
//
//go:noescape
func hashSHANI2(d0, d1 *[HashBytes]byte, p0, p1 []byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
