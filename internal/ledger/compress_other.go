//go:build !amd64 || purego

package ledger

// useSHANI is false where there is no SHA-NI kernel: leafHash2 and
// nodeHash2 call sha256.Sum256 once a lane.
const useSHANI = false

func hashSHANI2(d0, d1 *[HashBytes]byte, p0, p1 []byte) {
	panic("ledger: no SHA-NI kernel in this build")
}
