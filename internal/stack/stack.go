// Package stack is the layered protocol framework the Protocol
// Accelerator accelerates — the Horus substrate of the paper.
//
// Layers follow canonical protocol processing (paper §3.1): every send and
// delivery is split into a pre-processing phase that builds or checks
// header fields without touching protocol state, and a post-processing
// phase that updates state and predicts the next message's
// protocol-specific header (§3.2). Because pre phases are pure, the engine
// may run all pre phases before any post phase, transmit or deliver in
// between, and defer the post phases off the critical path entirely.
package stack

import (
	"fmt"
	"time"

	"paccel/internal/bits"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/vclock"
)

// Verdict is the outcome of a pre-processing phase.
type Verdict int

// Pre-phase verdicts.
const (
	// Continue passes the message to the next layer (and ultimately to
	// the network or the application).
	Continue Verdict = iota
	// Consume stops processing: the layer has taken responsibility for
	// the message (buffered a future fragment, absorbed an ack).
	Consume
	// Drop discards the message (duplicate, stale, corrupt).
	Drop
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Continue:
		return "continue"
	case Consume:
		return "consume"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Layer is one protocol micro-layer in canonical form.
//
// Init registers header fields and packet-filter instructions. Prime runs
// once, after the schema is compiled, to fill in the initial predicted
// headers (and, for the bottom layer, the connection identification).
// The four phase methods implement canonical protocol processing. The Pre*
// methods change no layer state; PreDeliver has no effects at all (PreSend
// may emit control messages in place of the message it consumes, as
// fragmentation does). Neither writes a message-specific field: the
// packet-filter instructions from Init are the only code for those, and
// every engine runs them once per frame. Every delivery-side state change
// is in PostDeliver, which runs for every layer the message reached, including
// the one that returned Consume or Drop: that layer finds its verdict in
// Context.Verdict, the others find Continue. The Post* methods also
// rewrite this layer's fields in the predicted headers.
type Layer interface {
	// Name identifies the layer in schema reports and errors.
	Name() string
	// Init registers the layer's header fields and filter code.
	Init(ctx *InitContext) error
	// Prime writes the layer's initial predicted header fields.
	Prime(ctx *Context)
	// PreSend fills the layer's header fields for an outgoing message.
	PreSend(ctx *Context, m *message.Msg) Verdict
	// PostSend updates protocol state after a send and predicts the
	// layer's fields for the next outgoing message.
	PostSend(ctx *Context, m *message.Msg)
	// PreDeliver checks the layer's header fields of an incoming
	// message.
	PreDeliver(ctx *Context, m *message.Msg) Verdict
	// PostDeliver updates protocol state after a delivery and predicts
	// the layer's fields for the next incoming message. It also runs
	// after this layer's PreDeliver returned Consume or Drop, with the
	// verdict in ctx.Verdict; the engine frees m when it returns.
	PostDeliver(ctx *Context, m *message.Msg)
}

// InitContext carries the registration surfaces a layer uses during Init.
type InitContext struct {
	// Schema receives the layer's header fields.
	Schema *header.Schema
	// SendFilter and RecvFilter receive the layer's packet-filter
	// instructions for message-specific information (§3.3).
	SendFilter, RecvFilter *filter.Builder
	// MaxPayload is the largest payload one frame may carry; 0 until a
	// layer declares a limit. A layer that bounds frames (fragmentation)
	// lowers it to its bound, never raises it; the engine packs
	// backlogged messages under it (§3.4) and sends a longer message
	// down the layered path, before any filter runs (§6).
	MaxPayload int
}

// Context is passed to Prime and the four phase methods.
type Context struct {
	// Env exposes the current message's header regions, payload and
	// byte order. It is nil during Prime.
	Env *filter.Env
	// Order is the connection's native byte order, used for the
	// predicted header regions (whose writer is always the local side).
	Order bits.ByteOrder
	// PredictSend and PredictRecv expose the predicted header regions
	// for the next send and the next delivery. PredictSend[ConnID] is
	// the connection identification written during Prime. Valid in
	// Prime and the Post* phases; pre phases must not write to them.
	PredictSend [header.NumClasses][]byte
	PredictRecv [header.NumClasses][]byte
	// S is the engine's service surface.
	S Services
	// Verdict is what this layer's PreDeliver returned, during the
	// PostDeliver of a layer that consumed or dropped the message. It
	// is Continue (the zero value) for every other layer, in every
	// other phase and on the fast path, where no pre phase runs.
	Verdict Verdict
}

// ControlOpts parameterizes a layer-generated message (§3.2: acks,
// retransmissions, fragments).
type ControlOpts struct {
	// Build writes the generating layer's own header fields; it runs
	// after the header regions have been pushed onto the message.
	Build func(env *filter.Env)
	// IncludeConnID marks the message "unusual": the connection
	// identification travels with it (§2.2 — retransmissions).
	IncludeConnID bool
}

// Services is the engine surface available to layers. The engine
// serializes all calls on a connection, so layer code never needs its own
// locking.
type Services interface {
	// Clock returns the connection's time source.
	Clock() vclock.Clock
	// AfterFunc schedules f on the connection's clock; f runs holding
	// the connection lock.
	AfterFunc(d time.Duration, f func()) vclock.Timer
	// DisableSend increments the send-prediction disable counter
	// (§3.2: e.g. the send window is full); EnableSend decrements it.
	// While non-zero, application sends go to the backlog.
	DisableSend()
	EnableSend()
	// SendControl emits a layer-generated message from the given layer.
	// It traverses only the layers below from (§3.2), then the send
	// packet filter, and is transmitted immediately (control messages
	// bypass the backlog).
	SendControl(from Layer, m *message.Msg, opts ControlOpts) error
	// SendRaw retransmits a message whose header regions are already
	// complete (a clone saved at PostSend time). No layer code or
	// filter runs.
	SendRaw(m *message.Msg, includeConnID bool) error
	// EnqueueDeliver re-enters the delivery path above from with a
	// message the layer had buffered (in-order release). A Synthetic
	// message (reassembled data) goes to the application in place,
	// ahead of anything released after it.
	EnqueueDeliver(from Layer, m *message.Msg)
}

// Resumer is implemented by layers that take part in session
// resumption. When the engine probes a disrupted connection it calls
// Resume on every implementing layer (top to bottom, under the
// connection lock): the layer re-transmits whatever the peer needs to
// reconcile state — the window layer sends an identified probe carrying
// its cumulative ack and replays its unacked frames. Layers without
// resumable state simply don't implement the interface.
type Resumer interface {
	Resume()
}

// Stack is an ordered list of layers, index 0 on top (nearest the
// application).
type Stack struct {
	layers []Layer
}

// NewStack builds a stack from top to bottom. Layer instances must be
// distinct.
func NewStack(layers ...Layer) (*Stack, error) {
	s := &Stack{layers: layers}
	for i, l := range layers {
		if s.Index(l) != i {
			return nil, fmt.Errorf("stack: layer instance %q appears twice", l.Name())
		}
	}
	return s, nil
}

// Len returns the number of layers.
func (s *Stack) Len() int { return len(s.layers) }

// Layers returns the layers, top first. The slice must not be modified.
func (s *Stack) Layers() []Layer { return s.layers }

// Init runs every layer's Init, top to bottom, against the given
// registration surfaces.
func (s *Stack) Init(ic *InitContext) error {
	for _, l := range s.layers {
		if err := l.Init(ic); err != nil {
			return fmt.Errorf("stack: init %s: %w", l.Name(), err)
		}
	}
	return nil
}

// Prime runs every layer's Prime, top to bottom.
func (s *Stack) Prime(ctx *Context) {
	for _, l := range s.layers {
		l.Prime(ctx)
	}
}

// PreSend runs the send pre-phases top to bottom, stopping at the first
// non-Continue verdict, which it returns along with the index of the layer
// that issued it (-1 when all layers continued).
func (s *Stack) PreSend(ctx *Context, m *message.Msg) (Verdict, int) {
	return s.preSendBelow(ctx, m, -1)
}

// preSendBelow runs send pre-phases for layers strictly below index from.
func (s *Stack) preSendBelow(ctx *Context, m *message.Msg, from int) (Verdict, int) {
	for i := from + 1; i < len(s.layers); i++ {
		if v := s.layers[i].PreSend(ctx, m); v != Continue {
			return v, i
		}
	}
	return Continue, -1
}

// PostSend runs the send post-phases top to bottom.
func (s *Stack) PostSend(ctx *Context, m *message.Msg) {
	s.postSendBelow(ctx, m, -1)
}

func (s *Stack) postSendBelow(ctx *Context, m *message.Msg, from int) {
	for i := from + 1; i < len(s.layers); i++ {
		s.layers[i].PostSend(ctx, m)
	}
}

// PreDeliver runs the delivery pre-phases bottom to top, stopping at the
// first non-Continue verdict.
func (s *Stack) PreDeliver(ctx *Context, m *message.Msg) (Verdict, int) {
	return s.preDeliverAbove(ctx, m, len(s.layers))
}

// preDeliverAbove runs delivery pre-phases for layers strictly above index
// from (bottom to top).
func (s *Stack) preDeliverAbove(ctx *Context, m *message.Msg, from int) (Verdict, int) {
	for i := from - 1; i >= 0; i-- {
		if v := s.layers[i].PreDeliver(ctx, m); v != Continue {
			return v, i
		}
	}
	return Continue, -1
}

// PostDeliver runs the delivery post-phases bottom to top.
func (s *Stack) PostDeliver(ctx *Context, m *message.Msg) {
	s.PostDeliverSpan(ctx, m, Continue, -1, nil)
}

// PostDeliverSpan runs the delivery post-phases of the layers a message
// reached: v and at are what PreDeliver or DeliverAbove returned, and end
// is the releasing layer the message re-entered above (nil: it came from
// the network). On Continue (at is -1) every layer above end runs, bottom
// to top. On Consume or Drop, layer at runs first with ctx.Verdict set to
// v, then the layers between it and end, bottom to top: they had accepted
// the message and still get their post-processing ("the message is handed
// to the stack again for post-processing", §4).
func (s *Stack) PostDeliverSpan(ctx *Context, m *message.Msg, v Verdict, at int, end Layer) {
	bottom := len(s.layers)
	if end != nil {
		bottom = s.mustIndex(end)
	}
	if v != Continue {
		ctx.Verdict = v
		s.layers[at].PostDeliver(ctx, m)
		ctx.Verdict = Continue
	}
	for i := bottom - 1; i > at; i-- {
		s.layers[i].PostDeliver(ctx, m)
	}
}

// Index returns the position of l in the stack, or -1. Stacks are a
// handful of layers, so a scan beats hashing the interface value.
func (s *Stack) Index(l Layer) int {
	for i, x := range s.layers {
		if x == l {
			return i
		}
	}
	return -1
}

// ControlSend runs the send path for a control message generated by layer
// from: pre phases of the layers below it only (§3.2).
func (s *Stack) ControlSend(ctx *Context, m *message.Msg, from Layer) (Verdict, int) {
	return s.preSendBelow(ctx, m, s.mustIndex(from))
}

// ControlPostSend runs the send post-phases of the layers below from.
func (s *Stack) ControlPostSend(ctx *Context, m *message.Msg, from Layer) {
	s.postSendBelow(ctx, m, s.mustIndex(from))
}

// DeliverAbove runs the delivery pre-phases of the layers above from, used
// when a layer releases a buffered message.
func (s *Stack) DeliverAbove(ctx *Context, m *message.Msg, from Layer) (Verdict, int) {
	return s.preDeliverAbove(ctx, m, s.mustIndex(from))
}

func (s *Stack) mustIndex(l Layer) int {
	i := s.Index(l)
	if i < 0 {
		panic(fmt.Sprintf("stack: layer %q not in stack", l.Name()))
	}
	return i
}
