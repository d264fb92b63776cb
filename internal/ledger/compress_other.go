//go:build !amd64 || purego

package ledger

// useSHANI is false where there is no SHA-NI kernel: leafHash and nodeHash
// call sha256.Sum256.
const useSHANI = false

func hashSHANI(digest *[HashBytes]byte, p []byte) { panic("ledger: no SHA-NI kernel in this build") }
