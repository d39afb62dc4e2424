package experiments

import (
	"paccel/internal/core"
)

// secureKey is the secure fixture's pre-shared master key.
var secureKey = []byte("paccel secure fixture key")

// SecureLeanStack is LeanStack with the AEAD in the checksum's place: frag +
// secure + ident, windowless so the fast path has no timer machinery
// behind the measurement and the nonce prediction never sees a gap. The
// root benchmarks BenchmarkSecureRoundTrip and BenchmarkSecureAllocs
// stand on it.
var SecureLeanStack = core.BuildStack(core.StackOptions{
	NoWindow: true, Secure: &core.SecureConfig{Key: secureKey},
})
