//go:build !purego

package ledger

// useSHANI selects the SHA-NI kernel in leafHash and nodeHash. It needs
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

// hashSHANI compresses p, whole SHA-256 blocks with the padding already
// in place, starting from the SHA-256 IV, and writes the digest.
//
//go:noescape
func hashSHANI(digest *[HashBytes]byte, p []byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
