package layers

import (
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/stack"
)

// DefaultFragThreshold is the default maximum payload carried by one
// frame, comfortably under the ATM/netsim MTU once headers are added.
const DefaultFragThreshold = 8000

// Frag implements fragmentation/reassembly as the paper's §6 prescribes
// for the PA, with one change: where §6 adds code to the send packet
// filter to reject messages over the threshold, the layer declares the
// threshold as the stack's frame limit (stack.InitContext.MaxPayload) and
// the engine sends longer messages down the slow path, where PreSend
// splits them, before any filter runs. Fragments carry a
// protocol-specific bit so the receiving PA never treats a fragment as
// predicted — fragments always reach the stack for reassembly.
//
// Fragments are emitted as layer-generated messages, so the layers below
// (the sliding window) sequence and retransmit each fragment individually;
// reassembly relies on their FIFO exactly-once delivery and needs no
// fragment identifiers — just an end-marker bit.
type Frag struct {
	// Threshold is the maximum payload per frame; 0 means
	// DefaultFragThreshold.
	Threshold int

	isFrag header.Handle // 1 iff this frame is a fragment
	last   header.Handle // 1 iff this fragment completes a message

	assembling [][]byte // chunks of the message being reassembled
	pending    int      // bytes accumulated
}

// NewFrag returns a fragmentation layer with the default threshold.
func NewFrag() *Frag { return &Frag{Threshold: DefaultFragThreshold} }

// Name implements stack.Layer.
func (f *Frag) Name() string { return "frag" }

func (f *Frag) threshold() int {
	if f.Threshold <= 0 {
		return DefaultFragThreshold
	}
	return f.Threshold
}

// Init registers the two fragment bits and declares the threshold as the
// stack's frame limit.
func (f *Frag) Init(ic *stack.InitContext) error {
	var err error
	if f.isFrag, err = ic.Schema.AddField(header.ProtoSpec, f.Name(), "isfrag", 1, header.DontCare); err != nil {
		return err
	}
	if f.last, err = ic.Schema.AddField(header.ProtoSpec, f.Name(), "last", 1, header.DontCare); err != nil {
		return err
	}
	if thr := f.threshold(); ic.MaxPayload == 0 || thr < ic.MaxPayload {
		ic.MaxPayload = thr
	}
	return nil
}

// Prime predicts non-fragment frames in both directions.
func (f *Frag) Prime(ctx *stack.Context) {
	f.isFrag.Write(ctx.PredictSend[header.ProtoSpec], ctx.Order, 0)
	f.last.Write(ctx.PredictSend[header.ProtoSpec], ctx.Order, 0)
	f.isFrag.Write(ctx.PredictRecv[header.ProtoSpec], ctx.Order, 0)
	f.last.Write(ctx.PredictRecv[header.ProtoSpec], ctx.Order, 0)
}

// PreSend passes small messages through and splits large ones into
// fragment control messages routed through the layers below.
func (f *Frag) PreSend(ctx *stack.Context, m *message.Msg) stack.Verdict {
	payload := ctx.Env.Payload
	thr := f.threshold()
	if len(payload) <= thr {
		hdr := ctx.Env.Hdr[header.ProtoSpec]
		f.isFrag.Write(hdr, ctx.Env.Order, 0)
		f.last.Write(hdr, ctx.Env.Order, 0)
		return stack.Continue
	}
	for off := 0; off < len(payload); off += thr {
		end := off + thr
		if end > len(payload) {
			end = len(payload)
		}
		isLast := end == len(payload)
		frag := message.New(payload[off:end])
		err := ctx.S.SendControl(f, frag, stack.ControlOpts{
			Build: func(env *filter.Env) {
				hdr := env.Hdr[header.ProtoSpec]
				f.isFrag.Write(hdr, env.Order, 1)
				f.last.Write(hdr, env.Order, b1(isLast))
			},
		})
		if err != nil {
			return stack.Drop
		}
	}
	return stack.Consume // original message replaced by its fragments
}

// PostSend implements stack.Layer; fragment state lives on the receive
// side only.
func (f *Frag) PostSend(*stack.Context, *message.Msg) {}

// PreDeliver consumes fragments; PostDeliver reassembles them.
func (f *Frag) PreDeliver(ctx *stack.Context, m *message.Msg) stack.Verdict {
	if f.isFrag.Read(ctx.Env.Hdr[header.ProtoSpec], ctx.Env.Order) == 0 {
		return stack.Continue
	}
	return stack.Consume
}

// PostDeliver adds a consumed fragment to the reassembly buffer and, when
// the end marker arrives, releases the reassembled message upward.
func (f *Frag) PostDeliver(ctx *stack.Context, m *message.Msg) {
	if ctx.Verdict != stack.Consume {
		return
	}
	f.assembling = append(f.assembling, append([]byte(nil), ctx.Env.Payload...))
	f.pending += len(ctx.Env.Payload)
	if f.last.Read(ctx.Env.Hdr[header.ProtoSpec], ctx.Env.Order) == 0 {
		return
	}
	whole := make([]byte, 0, f.pending)
	for _, c := range f.assembling {
		whole = append(whole, c...)
	}
	f.assembling = nil
	f.pending = 0
	out := message.New(whole)
	out.Synthetic = true
	ctx.S.EnqueueDeliver(f, out)
}

// AssemblingBytes reports the bytes buffered for reassembly (for tests
// and introspection).
func (f *Frag) AssemblingBytes() int { return f.pending }

func b1(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
