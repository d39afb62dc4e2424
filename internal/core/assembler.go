package core

import (
	"time"

	"paccel/internal/bits"
	"paccel/internal/layers"
	"paccel/internal/stack"
)

// StackOptions parameterizes BuildStack. The zero value is the paper's
// measured four-layer stack (DefaultStack): checksum, fragmentation, a
// 16-entry sliding window and connection identification. Every stack
// the repository runs is one of these values; a setting only one stack
// needs (a heartbeat seed, a probe layer, a counting digest) is applied
// by its own StackBuilder to the layers BuildStack returned.
type StackOptions struct {
	// WindowSize overrides the 16-entry window.
	WindowSize int
	// FragThreshold overrides the fragmentation payload limit. It also
	// bounds packing: messages backlogged behind a closed window are
	// packed into frames no larger than it, so a path MTU set here holds
	// for packed frames too.
	FragThreshold int
	// AdaptiveRTO enables Jacobson/Karels retransmission-timeout
	// estimation in the window layer.
	AdaptiveRTO bool
	// RetransTimeout overrides the window's base retransmission timeout
	// (layers.DefaultRetransTimeout). The seeded fault, recovery and
	// topology schedules shorten it so lossy schedules converge in
	// bounded time.
	RetransTimeout time.Duration
	// Naks makes the window request a retransmission as soon as it sees
	// a gap. The seeded schedules set it.
	Naks bool
	// NoWindow leaves the sliding window out, and with it every window
	// setting above and DoubleWindow. The allocation and
	// router-contention benchmarks set it: without sequence numbers or
	// ack timers every replayed datagram stays on the predicted path.
	NoWindow bool
	// Heartbeat adds a keepalive layer with this interval.
	Heartbeat time.Duration
	// HeartbeatJitter spreads each beat by a uniform draw from
	// [0, HeartbeatJitter), so fleets of connections primed together
	// (a mass reconnect) desynchronize instead of beating in lockstep.
	HeartbeatJitter time.Duration
	// OnSilence receives peer-silence reports, naming the peer by its
	// RemoteID (requires Heartbeat).
	OnSilence func(peer []byte, quiet time.Duration)
	// Stamp adds the message-timestamp layer and reports one-way
	// latency samples.
	Stamp func(oneWay time.Duration)
	// DoubleWindow stacks the window layer twice (the §5 experiment);
	// both windows take the settings above.
	DoubleWindow bool
	// Secure replaces the checksum layer with AES-GCM encryption — the
	// GCM tag subsumes the checksum's integrity check. Both sides must
	// use the same key; see DESIGN.md §17. Nil keeps the stack
	// plaintext.
	Secure *SecureConfig
}

// SecureConfig configures the encrypted-channel layer (layers.Secure):
// AES-GCM with traffic keys derived from a pre-shared master key bound
// to the connection identification, a predicted counter nonce, the tag
// as a message-specific field, and rekeying on session resumption.
type SecureConfig struct {
	// Key is the pre-shared master key. Required; any non-zero length
	// (it is hashed into per-direction traffic keys, not used directly).
	Key []byte
	// NonceLimit caps the per-epoch nonce counter; reaching it fails
	// the connection terminally with ErrNonceExhausted. 0 selects a
	// safe default (2^62).
	NonceLimit uint64
}

// DefaultStack is the paper's measured four-layer configuration: checksum
// integrity, fragmentation, a 16-entry sliding window, and connection
// identification.
var DefaultStack = BuildStack(StackOptions{})

// BuildStack returns a StackBuilder assembling the paper's stack with the
// given options, top layer first: stamp, checksum or secure channel,
// fragmentation (above the secure channel), window (twice when doubled),
// heartbeat, identification. The returned slice holds exactly its layers.
func BuildStack(opts StackOptions) StackBuilder {
	windows := 1
	if opts.NoWindow {
		windows = 0
	} else if opts.DoubleWindow {
		windows = 2
	}
	n := 3 + windows // checksum or secure, frag, windows, ident
	if opts.Stamp != nil {
		n++
	}
	if opts.Heartbeat > 0 {
		n++
	}
	return func(spec PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
		ls := make([]stack.Layer, 0, n)
		if opts.Stamp != nil {
			st := layers.NewStamp()
			st.OnSample = opts.Stamp
			ls = append(ls, st)
		}
		if opts.Secure == nil {
			ls = append(ls, layers.NewChksum())
		}
		frag := layers.NewFrag()
		if opts.FragThreshold > 0 {
			frag.Threshold = opts.FragThreshold
		}
		ls = append(ls, frag)
		if opts.Secure != nil {
			// Above the window: Resume rekeys before the window replays
			// its unacked frames, so replays re-seal under the new epoch.
			sec := layers.NewSecure(opts.Secure.Key,
				spec.LocalID, spec.RemoteID, spec.LocalPort, spec.RemotePort)
			sec.NonceLimit = opts.Secure.NonceLimit
			ls = append(ls, sec)
		}
		for i := 0; i < windows; i++ {
			w := layers.NewWindow()
			w.Size = opts.WindowSize
			w.RetransTimeout = opts.RetransTimeout
			w.Naks = opts.Naks
			w.AdaptiveRTO = opts.AdaptiveRTO
			ls = append(ls, w)
		}
		if opts.Heartbeat > 0 {
			hb := layers.NewHeartbeat()
			hb.Interval = opts.Heartbeat
			hb.Jitter = opts.HeartbeatJitter
			if opts.OnSilence != nil {
				peer := append([]byte(nil), spec.RemoteID...)
				hb.OnSilence = func(d time.Duration) { opts.OnSilence(peer, d) }
			}
			ls = append(ls, hb)
		}
		ls = append(ls, &layers.Ident{
			Local: spec.LocalID, Remote: spec.RemoteID,
			LocalPort: spec.LocalPort, RemotePort: spec.RemotePort,
			Epoch: spec.Epoch, Order: order,
		})
		return ls, nil
	}
}
