package experiments

import (
	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/stack"
)

// secureKey is the secure fixture's pre-shared master key.
var secureKey = []byte("paccel secure fixture key")

// SecureLeanStack is LeanStack with the AEAD in the checksum's place: frag +
// secure + ident, windowless so the fast path has no timer machinery
// behind the measurement and the nonce prediction never sees a gap. The
// root benchmarks BenchmarkSecureRoundTrip and BenchmarkSecureAllocs
// stand on it.
func SecureLeanStack(spec core.PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
	return []stack.Layer{
		layers.NewFrag(),
		layers.NewSecure(secureKey, spec.LocalID, spec.RemoteID, spec.LocalPort, spec.RemotePort),
		&layers.Ident{
			Local: spec.LocalID, Remote: spec.RemoteID,
			LocalPort: spec.LocalPort, RemotePort: spec.RemotePort,
			Epoch: spec.Epoch, Order: order,
		},
	}, nil
}
