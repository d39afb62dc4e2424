package layers

import (
	"math/rand"
	"sync/atomic"
	"time"

	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

// DefaultHeartbeatInterval is the default keepalive period.
const DefaultHeartbeatInterval = time.Second

// Heartbeat is a liveness micro-layer: it emits a small layer-generated
// message when the connection has been silent for an interval, and invokes
// OnSilence when nothing has been heard from the peer for several
// intervals. It demonstrates a second independent source of layer-
// generated messages (§3.2) and another protocol-specific bit that keeps
// control traffic off the receive fast path.
type Heartbeat struct {
	// Interval between keepalives; 0 means DefaultHeartbeatInterval.
	Interval time.Duration
	// Misses is the number of silent intervals before OnSilence fires;
	// 0 means 3.
	Misses int
	// OnSilence is called (once per silence episode, under the
	// connection lock) when the peer has been quiet too long. It must
	// not call back into the connection (Send, Close): unlike the
	// engine's OnConnFail/OnRecover callbacks, layer callbacks run
	// inside the serialized critical path.
	OnSilence func(quiet time.Duration)
	// Jitter spreads each beat: the gap between beats is Interval plus
	// a uniform draw from [0, Jitter). Thousands of connections primed
	// together (a shared partition healing, a mass reconnect) then
	// desynchronize instead of beating in lockstep forever. 0 (the
	// default) keeps exact intervals. Silence detection is unaffected:
	// it measures time since the peer was heard, not tick phase.
	Jitter time.Duration
	// Seed pins the jitter sequence for deterministic tests; 0 draws a
	// per-layer seed so distinct connections differ.
	Seed int64

	hb header.Handle // ProtoSpec: 1 iff this frame is a keepalive

	s         stack.Services
	lastHeard time.Time
	timer     vclock.Timer
	silenced  bool
	rng       *rand.Rand

	// Beats counts keepalives sent; Heard counts keepalives received.
	Beats, Heard uint64
}

// NewHeartbeat returns a keepalive layer with default timing.
func NewHeartbeat() *Heartbeat { return &Heartbeat{} }

// Name implements stack.Layer.
func (h *Heartbeat) Name() string { return "heartbeat" }

func (h *Heartbeat) interval() time.Duration {
	if h.Interval <= 0 {
		return DefaultHeartbeatInterval
	}
	return h.Interval
}

func (h *Heartbeat) misses() int {
	if h.Misses <= 0 {
		return 3
	}
	return h.Misses
}

// Init registers the keepalive bit.
func (h *Heartbeat) Init(ic *stack.InitContext) error {
	var err error
	h.hb, err = ic.Schema.AddField(header.ProtoSpec, h.Name(), "hb", 1, header.DontCare)
	return err
}

// Prime predicts non-keepalive frames and starts the interval timer.
func (h *Heartbeat) Prime(ctx *stack.Context) {
	h.s = ctx.S
	h.hb.Write(ctx.PredictSend[header.ProtoSpec], ctx.Order, 0)
	h.hb.Write(ctx.PredictRecv[header.ProtoSpec], ctx.Order, 0)
	h.lastHeard = ctx.S.Clock().Now()
	h.arm()
}

// hbSeedSeq disperses auto-drawn jitter seeds across layer instances.
var hbSeedSeq atomic.Int64

func (h *Heartbeat) arm() {
	d := h.interval()
	if h.Jitter > 0 {
		if h.rng == nil {
			seed := h.Seed
			if seed == 0 {
				seed = hbSeedSeq.Add(1) * 0x5851F42D // distinct per instance
			}
			h.rng = rand.New(rand.NewSource(seed))
		}
		d += time.Duration(h.rng.Int63n(int64(h.Jitter)))
	}
	if h.timer == nil {
		h.timer = h.s.AfterFunc(d, h.tick)
	} else {
		h.timer.Reset(d) // from tick, its own callback: one timer per connection
	}
}

func (h *Heartbeat) tick() {
	now := h.s.Clock().Now()
	quiet := now.Sub(h.lastHeard)
	if quiet >= time.Duration(h.misses())*h.interval() && !h.silenced {
		h.silenced = true
		if h.OnSilence != nil {
			h.OnSilence(quiet)
		}
	}
	h.beat()
	h.arm()
}

// beat emits one keepalive control message through the layers below.
func (h *Heartbeat) beat() {
	h.Beats++
	msg := message.New(nil)
	err := h.s.SendControl(h, msg, stack.ControlOpts{
		Build: func(env *filter.Env) {
			h.hb.Write(env.Hdr[header.ProtoSpec], env.Order, 1)
		},
	})
	if err != nil {
		msg.Free()
	}
}

// PreSend marks normal frames as non-keepalive.
func (h *Heartbeat) PreSend(ctx *stack.Context, m *message.Msg) stack.Verdict {
	h.hb.Write(ctx.Env.Hdr[header.ProtoSpec], ctx.Env.Order, 0)
	return stack.Continue
}

// PostSend implements stack.Layer.
func (h *Heartbeat) PostSend(*stack.Context, *message.Msg) {}

// PreDeliver consumes keepalives.
func (h *Heartbeat) PreDeliver(ctx *stack.Context, m *message.Msg) stack.Verdict {
	if h.hb.Read(ctx.Env.Hdr[header.ProtoSpec], ctx.Env.Order) == 1 {
		return stack.Consume
	}
	return stack.Continue
}

// PostDeliver notes liveness for every frame that reaches the layer, fast
// path included, and counts the keepalives it consumed.
func (h *Heartbeat) PostDeliver(ctx *stack.Context, _ *message.Msg) {
	h.lastHeard = h.s.Clock().Now()
	h.silenced = false
	if ctx.Verdict == stack.Consume {
		h.Heard++
	}
}

// Stop cancels the interval timer (connection teardown).
func (h *Heartbeat) Stop() {
	if h.timer != nil {
		h.timer.Stop()
		h.timer = nil
	}
}

// Close implements io.Closer for connection teardown.
func (h *Heartbeat) Close() error {
	h.Stop()
	return nil
}
