//go:build !amd64 || purego

package ledger

// useSHANI and useAVX512 are false where there is no kernel: hash2 calls
// sha256.Sum256 once a lane, and hashBatch hash2 once a pair. They are
// variables, as on amd64, for the tests.
var useSHANI, useAVX512 = false, false

func hashSHANI2(d0, d1 *[HashBytes]byte, p0, p1 []byte) {
	panic("ledger: no SHA-NI kernel in this build")
}

func hashAVX512(d *[batch][HashBytes]byte, p []byte) {
	panic("ledger: no AVX-512 kernel in this build")
}
