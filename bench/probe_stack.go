package main

import (
	"sync"
	"time"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

var _ = probeNames("ns", "stack.pre_send_ns", "stack.post_send_ns", "stack.pre_deliver_ns", "stack.post_deliver_ns")

// stackHarness builds the default stack the way the layers' own test
// harness does: public constructors, Init against a fresh schema and two
// filter builders, Compile, Build, Prime against a mock stack.Services.
type stackHarness struct {
	layers       []stack.Layer
	st           *stack.Stack
	schema       *header.Schema
	sendF, recvF *filter.Program
	svc          *probeServices
	ctx          stack.Context
}

func newStackHarness() (*stackHarness, error) {
	ls, err := core.DefaultStack(core.PeerSpec{
		LocalID: []byte("client"), RemoteID: []byte("server"), LocalPort: 1, RemotePort: 2, Epoch: 1,
	}, bits.BigEndian)
	if err != nil {
		return nil, err
	}
	h := &stackHarness{layers: ls, schema: header.New(), svc: &probeServices{}}
	if h.st, err = stack.NewStack(ls...); err != nil {
		return nil, err
	}
	sb, rb := filter.NewBuilder(), filter.NewBuilder()
	if err = h.st.Init(&stack.InitContext{Schema: h.schema, SendFilter: sb, RecvFilter: rb}); err != nil {
		return nil, err
	}
	if err = h.schema.Compile(); err != nil {
		return nil, err
	}
	if h.sendF, err = sb.Build(); err != nil {
		return nil, err
	}
	if h.recvF, err = rb.Build(); err != nil {
		return nil, err
	}
	h.ctx = stack.Context{Order: bits.BigEndian, S: h.svc}
	for c := header.Class(0); c < header.NumClasses; c++ {
		h.ctx.PredictSend[c] = make([]byte, h.schema.Size(c))
		h.ctx.PredictRecv[c] = make([]byte, h.schema.Size(c))
	}
	h.st.Prime(&h.ctx)
	return h, nil
}

// close stops the timers the layers armed.
func (h *stackHarness) close() {
	h.svc.mu.Lock()
	defer h.svc.mu.Unlock()
	for _, l := range h.layers {
		if c, ok := l.(interface{ Close() error }); ok {
			c.Close()
		}
	}
}

// field finds a registered header field by layer and name.
func (h *stackHarness) field(layer, name string) header.Handle {
	for _, f := range h.schema.Fields() {
		if f.Layer() == layer && f.Name() == name {
			return f
		}
	}
	panic("bench: default stack has no field " + layer + "." + name)
}

// frame is a message with its class header regions pushed (wire order:
// proto, msg, gossip in front of the payload) and the views of them.
type frame struct {
	m   *message.Msg
	env filter.Env
	ctx stack.Context
}

func (h *stackHarness) newFrame(payload []byte) *frame {
	f := &frame{m: message.New(payload), ctx: h.ctx}
	f.env = filter.Env{Payload: f.m.Payload(), Order: bits.BigEndian}
	f.env.Hdr[header.Gossip] = f.m.Push(h.schema.Size(header.Gossip))
	f.env.Hdr[header.MsgSpec] = f.m.Push(h.schema.Size(header.MsgSpec))
	f.env.Hdr[header.ProtoSpec] = f.m.Push(h.schema.Size(header.ProtoSpec))
	f.ctx.Env = &f.env
	return f
}

// probeServices is the mock engine surface: it counts what the layers ask
// for and frees what they hand over. Timers are real (the layers' timer
// cost is part of their post phases); their callbacks take mu, as the
// engine's take the connection lock, and the probe holds mu while it is
// inside a layer.
type probeServices struct {
	mu       sync.Mutex
	controls int
	deferred []func()
}

func (s *probeServices) Clock() vclock.Clock { return vclock.Real{} }
func (s *probeServices) AfterFunc(d time.Duration, f func()) vclock.Timer {
	return vclock.Real{}.AfterFunc(d, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		f()
	})
}
func (s *probeServices) DisableSend() {}
func (s *probeServices) EnableSend()  {}
func (s *probeServices) DisableRecv() {}
func (s *probeServices) EnableRecv()  {}
func (s *probeServices) SendControl(_ stack.Layer, m *message.Msg, _ stack.ControlOpts) error {
	s.controls++
	m.Free()
	return nil
}
func (s *probeServices) SendRaw(*message.Msg, bool) error { return nil }
func (s *probeServices) EnqueueDeliver(_ stack.Layer, m *message.Msg) {
	m.Free()
}
func (s *probeServices) Defer(f func()) { s.deferred = append(s.deferred, f) }

// phases are the four canonical phase calls of a whole stack or of one
// layer.
type phases struct {
	preSend, postSend, preDeliver, postDeliver func(ctx *stack.Context, m *message.Msg)
}

// phaseBatch is how many post-phase calls share one pair of clock reads:
// half the window, so the send window never closes and every delivery
// acknowledges exactly one frame — what one side of a ping-pong does.
const phaseBatch = 8

// probePhases times the four phases of ph and records them as
// prefix+"pre_send_ns" and so on.
//
// Pre phases are pure (canonical form: they change no layer state), so
// they are timed in a plain loop over one frame. Post phases change state,
// so they run as a conversation: phaseBatch PostSends of consecutive
// sequence numbers, then phaseBatch PostDelivers of consecutive incoming
// frames whose piggybacked acks release those sends one by one. Each batch
// is timed by one pair of clock reads, whose cost is subtracted.
func (h *stackHarness) probePhases(p *prober, prefix string, ph phases) {
	seq, typ, ack := h.field("window", "seq"), h.field("window", "type"), h.field("window", "ack")
	// stamp makes f the data frame with the given sequence number and
	// piggybacked acknowledgement.
	stamp := func(f *frame, seqNo, ackNo uint32) {
		seq.Write(f.env.Hdr[header.ProtoSpec], f.env.Order, uint64(seqNo))
		typ.Write(f.env.Hdr[header.ProtoSpec], f.env.Order, 0)
		ack.Write(f.env.Hdr[header.Gossip], f.env.Order, uint64(ackNo))
	}
	payload := make([]byte, 8)
	out, in := make([]*frame, phaseBatch), make([]*frame, phaseBatch)
	for i := range out {
		out[i], in[i] = h.newFrame(payload), h.newFrame(payload)
		// The whole stack's PreSend makes the frames valid for every
		// layer (length, checksum); the window's fields are restamped per
		// batch below.
		h.st.PreSend(&out[i].ctx, out[i].m)
		h.st.PreSend(&in[i].ctx, in[i].m)
	}
	defer func() {
		for i := range out {
			out[i].m.Free()
			in[i].m.Free()
		}
	}()
	h.svc.mu.Lock()
	defer h.svc.mu.Unlock()

	p.loop(prefix+"pre_send_ns", func(n int) {
		f := out[0]
		for i := 0; i < n; i++ {
			ph.preSend(&f.ctx, f.m)
		}
	})

	var clockCost float64
	{
		const n = 10000
		t0 := nanos()
		var last int64
		for i := 0; i < n; i++ {
			last = nanos()
		}
		clockCost = float64(last-t0) / n
	}
	var sent, recvd uint32 // the conversation's sequence state, mirrored
	sendNs, delivNs := make([]float64, 0, probeReps), make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		var ts, td int64
		rounds := 0
		for deadline := nanos() + int64(p.rep); nanos() < deadline; rounds++ {
			for i, f := range out {
				stamp(f, sent+uint32(i), recvd)
			}
			t0 := nanos()
			for _, f := range out {
				ph.postSend(&f.ctx, f.m)
			}
			ts += nanos() - t0
			for i, f := range in {
				stamp(f, recvd+uint32(i), sent+uint32(i)+1)
			}
			t0 = nanos()
			for _, f := range in {
				ph.postDeliver(&f.ctx, f.m)
			}
			td += nanos() - t0
			sent += phaseBatch
			recvd += phaseBatch
			h.svc.deferred = h.svc.deferred[:0]
		}
		calls := float64(rounds * phaseBatch)
		sendNs = append(sendNs, (float64(ts)-float64(rounds)*clockCost)/calls)
		delivNs = append(delivNs, (float64(td)-float64(rounds)*clockCost)/calls)
	}
	p.set(prefix+"post_send_ns", sendNs)
	p.set(prefix+"post_deliver_ns", delivNs)

	// The next expected incoming frame, for the pure pre-deliver loop.
	f := in[0]
	stamp(f, recvd, sent)
	p.loop(prefix+"pre_deliver_ns", func(n int) {
		for i := 0; i < n; i++ {
			ph.preDeliver(&f.ctx, f.m)
		}
	})
}

func probeStack(p *prober) {
	h, err := newStackHarness()
	if err != nil {
		p.fail(err)
		return
	}
	defer h.close()
	h.probePhases(p, "stack.", phases{
		preSend:     func(c *stack.Context, m *message.Msg) { h.st.PreSend(c, m) },
		postSend:    h.st.PostSend,
		preDeliver:  func(c *stack.Context, m *message.Msg) { h.st.PreDeliver(c, m) },
		postDeliver: h.st.PostDeliver,
	})
}
