package layers

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"paccel/internal/bits"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/stack"
	"paccel/internal/telemetry"
)

// ErrNonceExhausted reports that a secure layer's nonce space is spent.
// The connection hard-fails (no recovery: a resume would rekey and reset
// the counter, masking the very guard that refused to reuse a nonce).
var ErrNonceExhausted = errors.New("layers: secure nonce space exhausted")

// gcmTagLen is AES-GCM's authentication tag size, carried as a
// message-specific blob field like chksum's digest.
const gcmTagLen = 16

// defaultNonceLimit bounds the per-epoch counter far below the 64-bit
// wrap; past it the layer refuses to seal.
const defaultNonceLimit = uint64(1) << 62

// Secure is an AES-GCM encryption layer in the accelerator's canonical
// form. Each piece of its wire state rides the header class the paper's
// taxonomy (§2.1) assigns it:
//
//   - nonce: a 64-bit counter, protocol-specific — predicted like a
//     sequence number (§3.2), so in-order traffic stays on the fast path.
//   - tag: the 16-byte GCM tag, message-specific — filled in by the send
//     packet filter's Seal op and checked by the delivery filter's Open
//     op, exactly like chksum's digest (§3.3).
//   - enc: a 1-bit message-specific flag marking the payload sealed.
//   - epoch: a 16-bit key generation number, gossip — piggybacked on
//     every message so a rekey needs no handshake round-trip.
//
// There is no key exchange protocol: both sides hold a pre-shared master
// key, and traffic keys are derived by binding it to the connection
// identification (endpoint IDs, ports, epoch) — the identified
// first-message path of §2.2 is what authenticates the binding, the same
// way it lets cookies skip an agreement round-trip.
//
// Rekeying rides session resumption: Resume bumps the sender's epoch and
// re-derives its key, so the recovery probes and the window layer's
// replayed frames (which the engine re-seals via Reseal — GCM forbids
// nonce reuse, so replays burn fresh counters under the new key) reach
// the peer already under the post-resume key. The receiver adopts a
// serially newer epoch on the first frame that authenticates under it
// and keeps one previous epoch for stragglers. The two directions rekey
// independently.
//
// The AEAD authenticates the payload plus the protocol-specific, gossip
// and message-specific regions (the tag's own bytes zeroed). The packing
// header is NOT authenticated: an attacker can re-split a packed frame
// into different sub-sizes of the same total, but cannot alter, reorder
// or splice the decrypted bytes themselves.
type Secure struct {
	// Key is the pre-shared master key (any non-zero length; it is
	// hashed, not used directly).
	Key []byte
	// Local and Remote identify the endpoints; with the ports they bind
	// the derived traffic keys to the connection identification and
	// separate the two directions.
	Local, Remote         []byte
	LocalPort, RemotePort uint16
	// NonceLimit caps the per-epoch counter (0 means a safe default).
	// Reaching it makes Seal fail terminally with ErrNonceExhausted.
	NonceLimit uint64

	nonce header.Handle // ProtoSpec: predicted send counter
	enc   header.Handle // MsgSpec: sealed flag
	tag   header.Handle // MsgSpec: GCM tag blob
	epoch header.Handle // Gossip: key generation

	order        bits.ByteOrder
	pSend, pRecv [header.NumClasses][]byte
	protoN, msgN int
	gosN         int
	tagOff       int // tag's byte offset inside the MsgSpec region
	primed       bool
	terminal     error

	// Send direction: current epoch, counter and key.
	sendEpoch uint16
	sendCtr   uint64
	sendAEAD  cipher.AEAD
	sendSalt  [4]byte
	// Retired send epoch, derived on demand when Reseal meets a frame
	// sealed before a rekey (one generation cached).
	oldSendEpoch uint16
	oldSendAEAD  cipher.AEAD
	oldSendSalt  [4]byte

	// Receive direction: current epoch plus one previous for stragglers,
	// and a candidate being auditioned (serially newer epoch seen on the
	// wire, adopted once a frame authenticates under it).
	recvEpoch     uint16
	recvAEAD      cipher.AEAD
	recvSalt      [4]byte
	prevRecvEpoch uint16
	prevRecvAEAD  cipher.AEAD
	prevRecvSalt  [4]byte
	candEpoch     uint16
	candAEAD      cipher.AEAD
	candSalt      [4]byte

	// Scratches sized once and reused: seal/open output (payload+tag),
	// the additional authenticated data, and the 12-byte GCM nonce.
	sealBuf  []byte
	aadBuf   []byte
	nonceBuf [12]byte

	stats SecureStats

	tel       *telemetry.Recorder
	telCookie uint64
}

// SecureStats counts the layer's activity.
type SecureStats struct {
	Sealed    uint64 // frames encrypted (incl. control frames)
	Opened    uint64 // frames verified and decrypted
	AuthFails uint64 // frames dropped: bad tag, unknown epoch, or unsealed
	Rekeys    uint64 // send-epoch bumps (session resumptions)
	Adoptions uint64 // receive-epoch adoptions (peer rekeys observed)
	Reseals   uint64 // replayed frames re-sealed under a newer epoch

	SendEpoch, RecvEpoch uint16
}

// NewSecure returns an encryption layer for the given pre-shared key and
// connection identity.
func NewSecure(key, local, remote []byte, localPort, remotePort uint16) *Secure {
	return &Secure{
		Key: key, Local: local, Remote: remote,
		LocalPort: localPort, RemotePort: remotePort,
	}
}

// Name implements stack.Layer.
func (s *Secure) Name() string { return "secure" }

// Init implements stack.Layer: it registers the four fields and programs
// both packet filters. The filter programs are a single instruction each —
// all crypto state lives behind the engine's AEAD hook, keeping the VM's
// "simple language" property (§3.3) intact.
func (s *Secure) Init(ic *stack.InitContext) error {
	if len(s.Key) == 0 {
		return fmt.Errorf("layers: secure: empty key")
	}
	var err error
	if s.nonce, err = ic.Schema.AddField(header.ProtoSpec, s.Name(), "nonce", 64, header.DontCare); err != nil {
		return err
	}
	if s.enc, err = ic.Schema.AddField(header.MsgSpec, s.Name(), "enc", 1, header.DontCare); err != nil {
		return err
	}
	if s.tag, err = ic.Schema.AddBytes(header.MsgSpec, s.Name(), "tag", gcmTagLen); err != nil {
		return err
	}
	if s.epoch, err = ic.Schema.AddField(header.Gossip, s.Name(), "epoch", 16, header.DontCare); err != nil {
		return err
	}
	ic.SendFilter.Seal(s.tag)
	ic.RecvFilter.Open(s.tag)
	return nil
}

// Prime implements stack.Layer: derive the epoch-1 traffic keys and prime
// the predictions — the sealed flag and epoch travel on every message, and
// the first nonce is 0.
func (s *Secure) Prime(ctx *stack.Context) {
	s.order = ctx.Order
	s.pSend = ctx.PredictSend
	s.pRecv = ctx.PredictRecv
	s.protoN = len(ctx.PredictSend[header.ProtoSpec])
	s.msgN = len(ctx.PredictSend[header.MsgSpec])
	s.gosN = len(ctx.PredictSend[header.Gossip])
	s.tagOff = s.tag.Offset() / 8

	s.sendEpoch, s.sendCtr = 1, 0
	s.sendAEAD, s.sendSalt = s.derive(1, s.Local, s.LocalPort, s.Remote, s.RemotePort)
	s.recvEpoch = 1
	s.recvAEAD, s.recvSalt = s.derive(1, s.Remote, s.RemotePort, s.Local, s.LocalPort)

	s.enc.Write(s.pSend[header.MsgSpec], s.order, 1)
	s.epoch.Write(s.pSend[header.Gossip], s.order, uint64(s.sendEpoch))
	s.nonce.Write(s.pSend[header.ProtoSpec], s.order, 0)
	s.enc.Write(s.pRecv[header.MsgSpec], s.order, 1)
	s.epoch.Write(s.pRecv[header.Gossip], s.order, uint64(s.recvEpoch))
	s.nonce.Write(s.pRecv[header.ProtoSpec], s.order, 0)
	s.primed = true
}

// PreSend implements stack.Layer. It is deliberately a no-op: the engine
// runs the send packet filter once over every outgoing frame, slow path
// and layer-generated messages included, and its Seal is the only code
// that encrypts.
func (s *Secure) PreSend(*stack.Context, *message.Msg) stack.Verdict { return stack.Continue }

// PostSend mirrors the prediction updates the filter's Seal made: the
// next counter value and the current epoch.
func (s *Secure) PostSend(*stack.Context, *message.Msg) {
	s.nonce.Write(s.pSend[header.ProtoSpec], s.order, s.sendCtr)
	s.epoch.Write(s.pSend[header.Gossip], s.order, uint64(s.sendEpoch))
}

// PreDeliver implements stack.Layer. A no-op like PreSend: the delivery
// packet filter's Open runs on every incoming frame before the verdict
// phases, so by the time any pre-deliver phase sees the message the
// payload is already verified plaintext.
func (s *Secure) PreDeliver(*stack.Context, *message.Msg) stack.Verdict { return stack.Continue }

// PostDeliver predicts the peer's next nonce from the frame just
// delivered. Control frames burn counters without passing through here
// (they are consumed below this layer), so a gap costs one slow-path
// delivery and the prediction self-heals on the next data frame.
func (s *Secure) PostDeliver(ctx *stack.Context, _ *message.Msg) {
	if ctx.Env == nil || len(ctx.Env.Hdr[header.ProtoSpec]) == 0 {
		return
	}
	n := s.nonce.Read(ctx.Env.Hdr[header.ProtoSpec], ctx.Env.Order)
	s.nonce.Write(s.pRecv[header.ProtoSpec], s.order, n+1)
}

// SetTelemetry implements the engine's structural telemetry hookup.
func (s *Secure) SetTelemetry(r *telemetry.Recorder, cookie uint64, _ uint32) {
	s.tel = r
	s.telCookie = cookie
}

// Stats returns a snapshot of the layer's counters. Like all layer state
// it is maintained under the connection lock; snapshot while quiesced.
func (s *Secure) Stats() SecureStats {
	st := s.stats
	st.SendEpoch, st.RecvEpoch = s.sendEpoch, s.recvEpoch
	return st
}

// TerminalErr reports the layer's unrecoverable failure, if any. The
// engine checks it when a send fails and hard-fails the connection,
// bypassing recovery.
func (s *Secure) TerminalErr() error { return s.terminal }

// Resume implements stack.Resumer: rekey the send direction. The layer
// sits above the window layer, so by the time the window replays its
// unacked frames the new epoch is live and the engine's Reseal hook
// re-seals them under it — recovery, address migration and crypto state
// move in one step.
func (s *Secure) Resume() {
	if !s.primed || s.terminal != nil {
		return
	}
	s.sendEpoch++
	s.sendCtr = 0
	s.sendAEAD, s.sendSalt = s.derive(s.sendEpoch, s.Local, s.LocalPort, s.Remote, s.RemotePort)
	s.epoch.Write(s.pSend[header.Gossip], s.order, uint64(s.sendEpoch))
	s.nonce.Write(s.pSend[header.ProtoSpec], s.order, 0)
	s.stats.Rekeys++
	s.tel.Event(telemetry.EventResume, s.telCookie,
		fmt.Sprintf("rekey: send epoch %d", s.sendEpoch))
}

// Seal implements filter.AEAD for the send filter's Seal op: stamp the
// counter, epoch and sealed flag, then encrypt the payload in place and
// write the tag. Runs for every outgoing frame, fast and slow path alike.
func (s *Secure) Seal(env *filter.Env, tagH header.Handle) int {
	if s.terminal != nil {
		return filter.StatusFault
	}
	if s.sendCtr >= s.limit() {
		s.terminal = ErrNonceExhausted
		return filter.StatusFault
	}
	ctr := s.sendCtr
	s.sendCtr++
	proto := env.Hdr[header.ProtoSpec]
	msg := env.Hdr[header.MsgSpec]
	gos := env.Hdr[header.Gossip]
	s.nonce.Write(proto, env.Order, ctr)
	s.epoch.Write(gos, env.Order, uint64(s.sendEpoch))
	s.enc.Write(msg, env.Order, 1)
	s.sealRaw(s.sendAEAD, s.sendSalt, ctr, proto, msg, gos, env.Payload, tagH.Bytes(msg))
	s.stats.Sealed++
	return filter.StatusOK
}

// Open implements filter.AEAD for the delivery filter's Open op: select
// the key by the frame's epoch, verify the tag and decrypt in place.
// Serially newer epochs are auditioned and adopted on the first frame
// that authenticates; the previous epoch stays valid for stragglers.
func (s *Secure) Open(env *filter.Env, tagH header.Handle) int {
	proto := env.Hdr[header.ProtoSpec]
	msg := env.Hdr[header.MsgSpec]
	gos := env.Hdr[header.Gossip]
	if s.enc.Read(msg, env.Order) != 1 {
		s.stats.AuthFails++
		return filter.StatusDrop
	}
	ep := uint16(s.epoch.Read(gos, env.Order))
	var aead cipher.AEAD
	var salt [4]byte
	adopt := false
	switch {
	case ep == s.recvEpoch:
		aead, salt = s.recvAEAD, s.recvSalt
	case s.prevRecvAEAD != nil && ep == s.prevRecvEpoch:
		aead, salt = s.prevRecvAEAD, s.prevRecvSalt
	case epochLT(s.recvEpoch, ep):
		if s.candAEAD == nil || s.candEpoch != ep {
			s.candAEAD, s.candSalt = s.derive(ep, s.Remote, s.RemotePort, s.Local, s.LocalPort)
			s.candEpoch = ep
		}
		aead, salt, adopt = s.candAEAD, s.candSalt, true
	default: // older than the retained generations
		s.stats.AuthFails++
		return filter.StatusDrop
	}
	ctr := s.nonce.Read(proto, env.Order)
	if !s.openRaw(aead, salt, ctr, proto, msg, gos, env.Payload, tagH.Bytes(msg)) {
		s.stats.AuthFails++
		return filter.StatusDrop
	}
	if adopt {
		s.prevRecvAEAD, s.prevRecvSalt, s.prevRecvEpoch = s.recvAEAD, s.recvSalt, s.recvEpoch
		s.recvAEAD, s.recvSalt, s.recvEpoch = aead, salt, ep
		s.candAEAD = nil
		s.epoch.Write(s.pRecv[header.Gossip], s.order, uint64(ep))
		s.stats.Adoptions++
	}
	s.stats.Opened++
	return filter.StatusOK
}

// Reseal re-seals a stored frame about to be retransmitted raw (the
// window layer's replays). A frame sealed under the current epoch goes
// out unchanged — retransmitting identical bytes is nonce reuse only in
// name, the (nonce, key, plaintext) triple is unchanged. A frame sealed
// under a retired epoch is opened with the old key and sealed again
// under the current one with a fresh counter, in place: GCM ciphertext
// length equals plaintext length, so the stored clone's geometry fits.
func (s *Secure) Reseal(m *message.Msg) error {
	if s.terminal != nil {
		return s.terminal
	}
	b := m.Bytes()
	payload := m.Payload()
	hdrLen := len(b) - len(payload)
	if hdrLen < s.protoN+s.msgN+s.gosN {
		return nil // not a full frame; nothing this layer sealed
	}
	proto := b[:s.protoN]
	msg := b[s.protoN : s.protoN+s.msgN]
	gos := b[s.protoN+s.msgN : s.protoN+s.msgN+s.gosN]
	if s.enc.Read(msg, s.order) != 1 {
		return nil
	}
	ep := uint16(s.epoch.Read(gos, s.order))
	if ep == s.sendEpoch {
		return nil
	}
	var aead cipher.AEAD
	var salt [4]byte
	if s.oldSendAEAD != nil && s.oldSendEpoch == ep {
		aead, salt = s.oldSendAEAD, s.oldSendSalt
	} else {
		aead, salt = s.derive(ep, s.Local, s.LocalPort, s.Remote, s.RemotePort)
		s.oldSendAEAD, s.oldSendSalt, s.oldSendEpoch = aead, salt, ep
	}
	tag := s.tag.Bytes(msg)
	ctr := s.nonce.Read(proto, s.order)
	if !s.openRaw(aead, salt, ctr, proto, msg, gos, payload, tag) {
		return fmt.Errorf("layers: secure: reseal: stored frame fails authentication under epoch %d", ep)
	}
	if s.sendCtr >= s.limit() {
		s.terminal = ErrNonceExhausted
		return s.terminal
	}
	newCtr := s.sendCtr
	s.sendCtr++
	s.nonce.Write(proto, s.order, newCtr)
	s.epoch.Write(gos, s.order, uint64(s.sendEpoch))
	s.sealRaw(s.sendAEAD, s.sendSalt, newCtr, proto, msg, gos, payload, tag)
	s.stats.Reseals++
	return nil
}

// sealRaw encrypts payload in place and writes the tag, authenticating
// the three header regions (tag bytes zeroed in the AAD copy). The
// pooled scratches keep this allocation-free after warm-up.
func (s *Secure) sealRaw(aead cipher.AEAD, salt [4]byte, ctr uint64, proto, msg, gos, payload, tag []byte) {
	aad := s.aad(proto, msg, gos)
	copy(s.nonceBuf[:4], salt[:])
	binary.BigEndian.PutUint64(s.nonceBuf[4:], ctr)
	ct := aead.Seal(s.sealBuf[:0], s.nonceBuf[:], payload, aad)
	s.sealBuf = ct
	copy(payload, ct[:len(payload)])
	copy(tag, ct[len(payload):])
}

// openRaw verifies the tag and decrypts payload in place, reporting
// success. The ciphertext is staged in the scratch because GCM cannot
// decrypt a buffer onto itself while reading the tag from it.
func (s *Secure) openRaw(aead cipher.AEAD, salt [4]byte, ctr uint64, proto, msg, gos, payload, tag []byte) bool {
	aad := s.aad(proto, msg, gos)
	copy(s.nonceBuf[:4], salt[:])
	binary.BigEndian.PutUint64(s.nonceBuf[4:], ctr)
	ct := append(s.sealBuf[:0], payload...)
	ct = append(ct, tag...)
	s.sealBuf = ct
	_, err := aead.Open(payload[:0], s.nonceBuf[:], ct, aad)
	return err == nil
}

// aad assembles the additional authenticated data: proto ‖ gossip ‖
// msg-with-tag-zeroed. The nonce, epoch and sealed flag are all under
// the tag; only the packing header is not (see the type comment).
func (s *Secure) aad(proto, msg, gos []byte) []byte {
	buf := append(s.aadBuf[:0], proto...)
	buf = append(buf, gos...)
	base := len(buf)
	buf = append(buf, msg...)
	clear(buf[base+s.tagOff : base+s.tagOff+gcmTagLen])
	s.aadBuf = buf
	return buf
}

// derive computes one direction's traffic key and nonce salt for an
// epoch: SHA-256 over the master key, a domain label, the epoch, and the
// length-prefixed sender→receiver identity. The first 16 bytes key
// AES-128, the next 4 salt the GCM nonce (salt ‖ big-endian counter).
func (s *Secure) derive(epoch uint16, senderID []byte, senderPort uint16, recvID []byte, recvPort uint16) (cipher.AEAD, [4]byte) {
	h := sha256.New()
	var num [2]byte
	h.Write(s.Key)
	h.Write([]byte("paccel secure v1"))
	binary.BigEndian.PutUint16(num[:], epoch)
	h.Write(num[:])
	h.Write([]byte{byte(len(senderID))})
	h.Write(senderID)
	binary.BigEndian.PutUint16(num[:], senderPort)
	h.Write(num[:])
	h.Write([]byte{byte(len(recvID))})
	h.Write(recvID)
	binary.BigEndian.PutUint16(num[:], recvPort)
	h.Write(num[:])
	sum := h.Sum(nil)
	block, err := aes.NewCipher(sum[:16])
	if err != nil {
		panic(err) // unreachable: the key length is fixed
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err) // unreachable: standard nonce and tag sizes
	}
	var salt [4]byte
	copy(salt[:], sum[16:20])
	return aead, salt
}

func (s *Secure) limit() uint64 {
	if s.NonceLimit > 0 {
		return s.NonceLimit
	}
	return defaultNonceLimit
}

// epochLT orders epochs with serial-number arithmetic, so the 16-bit
// generation counter may wrap.
func epochLT(a, b uint16) bool { return int16(a-b) < 0 }
