package layers

import (
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

var t0 = time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC)

// harness drives layers the way the engine does, with a mock Services.
type harness struct {
	t      *testing.T
	schema *header.Schema
	st     *stack.Stack
	sendF  *filter.Program
	recvF  *filter.Program
	clk    *vclock.Manual
	svc    *mockServices
	base   stack.Context
}

func newHarness(t *testing.T, ls ...stack.Layer) *harness {
	t.Helper()
	h := &harness{t: t, schema: header.New(), clk: vclock.NewManual(t0)}
	st, err := stack.NewStack(ls...)
	if err != nil {
		t.Fatal(err)
	}
	h.st = st
	sb, rb := filter.NewBuilder(), filter.NewBuilder()
	if err := st.Init(&stack.InitContext{Schema: h.schema, SendFilter: sb, RecvFilter: rb}); err != nil {
		t.Fatal(err)
	}
	if err := h.schema.Compile(); err != nil {
		t.Fatal(err)
	}
	if h.sendF, err = sb.Build(); err != nil {
		t.Fatal(err)
	}
	if h.recvF, err = rb.Build(); err != nil {
		t.Fatal(err)
	}
	h.svc = &mockServices{h: h, clock: h.clk}
	h.base = stack.Context{Order: bits.BigEndian, S: h.svc}
	for c := header.Class(0); c < header.NumClasses; c++ {
		h.base.PredictSend[c] = make([]byte, h.schema.Size(c))
		h.base.PredictRecv[c] = make([]byte, h.schema.Size(c))
	}
	st.Prime(&h.base)
	return h
}

// env builds a message with pushed class header regions (wire order) and
// the filter environment viewing them.
func (h *harness) env(payload []byte) (*message.Msg, *filter.Env) {
	m := message.New(payload)
	return m, h.attach(m)
}

// attach pushes zeroed header regions onto m and returns views.
func (h *harness) attach(m *message.Msg) *filter.Env {
	env := &filter.Env{Payload: m.Payload(), Order: bits.BigEndian}
	// Wire order: proto, msg, gossip in front of payload; push reversed.
	env.Hdr[header.Gossip] = m.Push(h.schema.Size(header.Gossip))
	env.Hdr[header.MsgSpec] = m.Push(h.schema.Size(header.MsgSpec))
	env.Hdr[header.ProtoSpec] = m.Push(h.schema.Size(header.ProtoSpec))
	return env
}

// ctx returns a phase context for the given message environment.
func (h *harness) ctx(env *filter.Env) *stack.Context {
	c := h.base
	c.Env = env
	return &c
}

// receive runs an incoming frame through the stack as the engine's slow
// path does: the delivery pre-phases, then the post-phases of every layer
// the frame reached, the one that consumed or dropped it with its verdict.
func (h *harness) receive(env *filter.Env, m *message.Msg) stack.Verdict {
	ctx := h.ctx(env)
	v, at := h.st.PreDeliver(ctx, m)
	h.st.PostDeliverSpan(ctx, m, v, at, nil)
	return v
}

// send runs PreSend, the send filter and PostSend through the whole stack
// for payload, as the engine's slow path does, and returns the message
// and its env.
func (h *harness) send(payload []byte) (*message.Msg, *filter.Env) {
	m, env := h.env(payload)
	ctx := h.ctx(env)
	v, _ := h.st.PreSend(ctx, m)
	if v != stack.Continue {
		h.t.Fatalf("PreSend verdict = %v", v)
	}
	if st := h.sendF.Run(env); st != filter.StatusOK {
		h.t.Fatalf("send filter = %d", st)
	}
	h.st.PostSend(ctx, m)
	return m, env
}

type controlRec struct {
	from stack.Layer
	m    *message.Msg
	env  *filter.Env
	opts stack.ControlOpts
}

type rawRec struct {
	m       *message.Msg
	connID  bool
	payload []byte
}

type enqRec struct {
	from stack.Layer
	m    *message.Msg
}

// mockServices records engine interactions.
type mockServices struct {
	h           *harness
	clock       vclock.Clock // h.clk unless a test hooks the timers
	sendDisable int
	controls    []controlRec
	raws        []rawRec
	enq         []enqRec
}

func (s *mockServices) Clock() vclock.Clock { return s.clock }
func (s *mockServices) AfterFunc(d time.Duration, f func()) vclock.Timer {
	return s.clock.AfterFunc(d, f)
}
func (s *mockServices) DisableSend() { s.sendDisable++ }
func (s *mockServices) EnableSend()  { s.sendDisable-- }

func (s *mockServices) SendControl(from stack.Layer, m *message.Msg, opts stack.ControlOpts) error {
	env := s.h.attach(m)
	if opts.Build != nil {
		opts.Build(env)
	}
	s.controls = append(s.controls, controlRec{from: from, m: m, env: env, opts: opts})
	return nil
}

func (s *mockServices) SendRaw(m *message.Msg, connID bool) error {
	s.raws = append(s.raws, rawRec{m: m, connID: connID, payload: append([]byte(nil), m.Payload()...)})
	return nil
}

func (s *mockServices) EnqueueDeliver(from stack.Layer, m *message.Msg) {
	s.enq = append(s.enq, enqRec{from: from, m: m})
}
