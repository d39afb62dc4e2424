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
// message-specific (§2.1), so on the fast path they are filled in by the
// send packet filter and verified by the delivery packet filter (§3.3) —
// the layer's own pre phases do identical work for the slow path, making
// the two paths byte-identical on the wire.
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

// PreSend fills the fields on the slow path, mirroring the send filter.
func (c *Chksum) PreSend(ctx *stack.Context, m *message.Msg) stack.Verdict {
	hdr := ctx.Env.Hdr[header.MsgSpec]
	c.length.Write(hdr, ctx.Env.Order, uint64(len(ctx.Env.Payload)))
	fn := c.digestFunc()
	c.sum.Write(hdr, ctx.Env.Order, fn(ctx.Env.Payload))
	return stack.Continue
}

// PostSend implements stack.Layer; the layer is stateless.
func (c *Chksum) PostSend(*stack.Context, *message.Msg) {}

// PreDeliver verifies the fields on the slow path (and is the only check
// in engines without packet filters, such as the baseline).
func (c *Chksum) PreDeliver(ctx *stack.Context, m *message.Msg) stack.Verdict {
	hdr := ctx.Env.Hdr[header.MsgSpec]
	if c.length.Read(hdr, ctx.Env.Order) != uint64(len(ctx.Env.Payload)) {
		return stack.Drop
	}
	fn := c.digestFunc()
	if c.sum.Read(hdr, ctx.Env.Order) != fn(ctx.Env.Payload) {
		return stack.Drop
	}
	return stack.Continue
}

// PostDeliver implements stack.Layer; the layer is stateless.
func (c *Chksum) PostDeliver(*stack.Context, *message.Msg) {}

func (c *Chksum) digestFunc() filter.DigestFunc {
	if fn, ok := filter.DigestByID(c.Digest); ok {
		return fn
	}
	return filter.InternetChecksum
}
