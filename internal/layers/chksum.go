// Package layers provides the protocol micro-layers used by the paper's
// experiments: integrity (chksum), fragmentation (frag), a sliding window
// (window), connection identification (ident), liveness (heartbeat) and a
// latency meter (stamp). Layers are per-connection instances in canonical
// form (see package stack).
package layers

import (
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/stack"
)

// Chksum protects messages with a 16-bit length and a configurable digest
// (default: the RFC 1071 Internet checksum). Both fields are
// message-specific (§2.1): the send packet filter fills them in and the
// delivery packet filter verifies them (§3.3). Every engine runs those
// programs on every frame, fast path or slow, so they are the layer's
// only code for its fields and its phases have nothing to do.
type Chksum struct {
	// Digest selects the digest function; zero value means the Internet
	// checksum.
	Digest filter.DigestID

	length header.Handle
	sum    header.Handle
}

// NewChksum returns an integrity layer using the Internet checksum.
func NewChksum() *Chksum { return &Chksum{Digest: filter.DigestInternet} }

// Name implements stack.Layer.
func (c *Chksum) Name() string { return "chksum" }

// Init implements stack.Layer: it registers the two message-specific
// fields and programs both packet filters.
func (c *Chksum) Init(ic *stack.InitContext) error {
	var err error
	if c.length, err = ic.Schema.AddField(header.MsgSpec, c.Name(), "len", 16, header.DontCare); err != nil {
		return err
	}
	if c.sum, err = ic.Schema.AddField(header.MsgSpec, c.Name(), "ck", 16, header.DontCare); err != nil {
		return err
	}
	// Send: len := size; ck := digest(payload).
	ic.SendFilter.PushSize()
	ic.SendFilter.PopField(c.length)
	ic.SendFilter.Digest(c.Digest)
	ic.SendFilter.PopField(c.sum)
	// Recv: drop unless len == size && ck == digest(payload).
	ic.RecvFilter.PushField(c.length)
	ic.RecvFilter.PushSize()
	ic.RecvFilter.Arith(filter.Ne)
	ic.RecvFilter.Abort(filter.StatusDrop)
	ic.RecvFilter.PushField(c.sum)
	ic.RecvFilter.Digest(c.Digest)
	ic.RecvFilter.Arith(filter.Ne)
	ic.RecvFilter.Abort(filter.StatusDrop)
	return nil
}

// Prime implements stack.Layer. Message-specific fields cannot be
// predicted (§3.2), so there is nothing to prime.
func (c *Chksum) Prime(*stack.Context) {}

// PreSend implements stack.Layer; the send filter fills both fields.
func (c *Chksum) PreSend(*stack.Context, *message.Msg) stack.Verdict { return stack.Continue }

// PostSend implements stack.Layer; the layer is stateless.
func (c *Chksum) PostSend(*stack.Context, *message.Msg) {}

// PreDeliver implements stack.Layer; the delivery filter has already
// dropped any frame whose fields do not match its payload.
func (c *Chksum) PreDeliver(*stack.Context, *message.Msg) stack.Verdict { return stack.Continue }

// PostDeliver implements stack.Layer; the layer is stateless.
func (c *Chksum) PostDeliver(*stack.Context, *message.Msg) {}
