package layers

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

func windowHarness(t *testing.T, w *Window) *harness {
	t.Helper()
	return newHarness(t, w)
}

// dataFrame builds an incoming data frame with the given seq and
// piggybacked ack.
func dataFrame(h *harness, w *Window, seq, ack uint32, payload []byte) (*message.Msg, *filter.Env) {
	m, env := h.env(payload)
	w.seq.Write(env.Hdr[header.ProtoSpec], env.Order, uint64(seq))
	w.typ.Write(env.Hdr[header.ProtoSpec], env.Order, TypeData)
	w.ack.Write(env.Hdr[header.Gossip], env.Order, uint64(ack))
	return m, env
}

func ctrlFrame(h *harness, w *Window, typ uint64, seq, ack uint32) (*message.Msg, *filter.Env) {
	m, env := h.env(nil)
	w.seq.Write(env.Hdr[header.ProtoSpec], env.Order, uint64(seq))
	w.typ.Write(env.Hdr[header.ProtoSpec], env.Order, typ)
	w.ack.Write(env.Hdr[header.Gossip], env.Order, uint64(ack))
	return m, env
}

func TestWindowPreSendStamps(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	_, env := h.send([]byte("a"))
	if got := w.seq.Read(env.Hdr[header.ProtoSpec], env.Order); got != 0 {
		t.Fatalf("first seq = %d", got)
	}
	if got := w.typ.Read(env.Hdr[header.ProtoSpec], env.Order); got != TypeData {
		t.Fatalf("type = %d", got)
	}
	_, env2 := h.send([]byte("b"))
	if got := w.seq.Read(env2.Hdr[header.ProtoSpec], env2.Order); got != 1 {
		t.Fatalf("second seq = %d", got)
	}
}

func TestWindowPostSendSavesAndPredicts(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	h.send([]byte("saved"))
	if w.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", w.Outstanding())
	}
	if !bytes.Equal(w.unacked[0].Payload(), []byte("saved")) {
		t.Fatal("saved frame payload mismatch")
	}
	// Prediction: next send is seq 1, data.
	if got := w.seq.Read(h.base.PredictSend[header.ProtoSpec], bits.BigEndian); got != 1 {
		t.Fatalf("predicted seq = %d", got)
	}
	if got := w.typ.Read(h.base.PredictSend[header.ProtoSpec], bits.BigEndian); got != TypeData {
		t.Fatalf("predicted type = %d", got)
	}
}

func TestWindowFillsAndDisables(t *testing.T) {
	w := NewWindow()
	w.Size = 2
	h := windowHarness(t, w)
	h.send([]byte("0"))
	if h.svc.sendDisable != 0 {
		t.Fatal("disabled too early")
	}
	h.send([]byte("1"))
	if h.svc.sendDisable != 1 {
		t.Fatalf("disable count = %d, want 1", h.svc.sendDisable)
	}
	// Ack both: window reopens.
	m, env := ctrlFrame(h, w, TypeAck, 0, 2)
	defer m.Free()
	if v := h.receive(env, m); v != stack.Consume {
		t.Fatal("ack not consumed")
	}
	if h.svc.sendDisable != 0 {
		t.Fatalf("disable count after ack = %d", h.svc.sendDisable)
	}
	if w.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", w.Outstanding())
	}
	if w.Stats.AcksReceived != 1 {
		t.Fatalf("acks received = %d", w.Stats.AcksReceived)
	}
}

func TestWindowInSequenceDelivery(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	m, env := dataFrame(h, w, 0, 0, []byte("x"))
	defer m.Free()
	if v := h.receive(env, m); v != stack.Continue {
		t.Fatal("in-seq frame not delivered")
	}
	if w.Expected() != 1 {
		t.Fatalf("expected = %d", w.Expected())
	}
	// Recv prediction now expects seq 1.
	if got := w.seq.Read(h.base.PredictRecv[header.ProtoSpec], bits.BigEndian); got != 1 {
		t.Fatalf("predicted recv seq = %d", got)
	}
	// Send prediction's piggyback ack freshened to 1.
	if got := w.ack.Read(h.base.PredictSend[header.Gossip], bits.BigEndian); got != 1 {
		t.Fatalf("predicted piggyback ack = %d", got)
	}
}

func TestWindowDuplicateDropsAndReacks(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	m, env := dataFrame(h, w, 0, 0, []byte("x"))
	defer m.Free()
	h.receive(env, m)

	dup, denv := dataFrame(h, w, 0, 0, []byte("x"))
	defer dup.Free()
	if v := h.receive(denv, dup); v != stack.Drop {
		t.Fatal("duplicate not dropped")
	}
	if w.Stats.Dups != 1 {
		t.Fatalf("dups = %d", w.Stats.Dups)
	}
	// The dup triggered an immediate re-ack.
	found := false
	for _, c := range h.svc.controls {
		if w.typ.Read(c.env.Hdr[header.ProtoSpec], c.env.Order) == TypeAck {
			found = true
			if got := w.ack.Read(c.env.Hdr[header.Gossip], c.env.Order); got != 1 {
				t.Fatalf("re-ack value = %d", got)
			}
		}
	}
	if !found {
		t.Fatal("no re-ack sent for duplicate")
	}
}

func TestWindowFutureBufferedAndReleased(t *testing.T) {
	w := NewWindow()
	w.Naks = true
	h := windowHarness(t, w)
	// Frame 1 arrives before frame 0.
	f1, env1 := dataFrame(h, w, 1, 0, []byte("one"))
	if v := h.receive(env1, f1); v != stack.Consume {
		t.Fatal("future frame not consumed")
	}
	if w.Stats.FuturesStored != 1 {
		t.Fatalf("futures stored = %d", w.Stats.FuturesStored)
	}
	// A nak for the missing frame 0 went out.
	if w.Stats.NaksSent != 1 {
		t.Fatalf("naks sent = %d", w.Stats.NaksSent)
	}
	// Frame 0 arrives: deliver, then release frame 1 via EnqueueDeliver.
	f0, env0 := dataFrame(h, w, 0, 0, []byte("zero"))
	defer f0.Free()
	if v := h.receive(env0, f0); v != stack.Continue {
		t.Fatal("in-seq frame rejected")
	}
	if len(h.svc.enq) != 1 {
		t.Fatalf("enqueued releases = %d", len(h.svc.enq))
	}
	if !bytes.Equal(h.svc.enq[0].m.Payload(), []byte("one")) {
		t.Fatal("released wrong frame")
	}
	if w.Expected() != 2 {
		t.Fatalf("expected = %d", w.Expected())
	}
}

func TestWindowNakTriggersResend(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	h.send([]byte("frame0"))
	h.send([]byte("frame1"))
	m, env := ctrlFrame(h, w, TypeNak, 1, 0)
	defer m.Free()
	if v := h.receive(env, m); v != stack.Consume {
		t.Fatal("nak not consumed")
	}
	if len(h.svc.raws) != 1 {
		t.Fatalf("raw resends = %d", len(h.svc.raws))
	}
	if !bytes.Equal(h.svc.raws[0].payload, []byte("frame1")) {
		t.Fatalf("resent wrong frame: %q", h.svc.raws[0].payload)
	}
	if !h.svc.raws[0].connID {
		t.Fatal("retransmission must carry the connection identification")
	}
}

func TestWindowTimeoutRetransmitsAll(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	h.send([]byte("a"))
	h.send([]byte("b"))
	h.clk.Advance(w.rto())
	if len(h.svc.raws) != 2 {
		t.Fatalf("retransmits = %d, want 2", len(h.svc.raws))
	}
	if w.Stats.Timeouts != 1 {
		t.Fatalf("timeouts = %d", w.Stats.Timeouts)
	}
	// Backoff: next timeout takes twice as long.
	h.clk.Advance(w.rto())
	if len(h.svc.raws) != 2 {
		t.Fatal("retransmitted before backoff expired")
	}
	h.clk.Advance(w.rto())
	if len(h.svc.raws) != 4 {
		t.Fatalf("retransmits after backoff = %d, want 4", len(h.svc.raws))
	}
}

func TestWindowAckStopsRetransmit(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	h.send([]byte("a"))
	m, env := ctrlFrame(h, w, TypeAck, 0, 1)
	defer m.Free()
	h.receive(env, m)
	h.clk.Advance(10 * w.rto())
	if len(h.svc.raws) != 0 {
		t.Fatalf("retransmits after full ack = %d", len(h.svc.raws))
	}
}

func TestWindowDelayedAck(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	m, env := dataFrame(h, w, 0, 0, []byte("x"))
	defer m.Free()
	h.receive(env, m)
	if w.Stats.AcksSent != 0 {
		t.Fatal("acked immediately despite small pending count")
	}
	h.clk.Advance(w.delayedAck())
	if w.Stats.AcksSent != 1 {
		t.Fatalf("acks after delayed-ack timer = %d", w.Stats.AcksSent)
	}
}

func TestWindowAckEveryThreshold(t *testing.T) {
	w := NewWindow()
	w.Size = 4 // ackEvery = 2
	h := windowHarness(t, w)
	for i := uint32(0); i < 2; i++ {
		m, env := dataFrame(h, w, i, 0, []byte("x"))
		h.receive(env, m)
		m.Free()
	}
	if w.Stats.AcksSent != 1 {
		t.Fatalf("acks = %d, want 1 after %d deliveries", w.Stats.AcksSent, 2)
	}
}

func TestWindowPiggybackSuppressesAck(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	m, env := dataFrame(h, w, 0, 0, []byte("x"))
	defer m.Free()
	h.receive(env, m)
	// Reverse data goes out before the delayed ack fires: it piggybacks.
	h.send([]byte("reply"))
	h.clk.Advance(10 * w.delayedAck())
	if w.Stats.AcksSent != 0 {
		t.Fatalf("standalone acks = %d, want 0 (piggybacked)", w.Stats.AcksSent)
	}
}

func TestWindowPreDeliverIsPure(t *testing.T) {
	// PreDeliver on a future data frame only classifies it: the
	// bookkeeping waits for PostDeliver.
	w := NewWindow()
	h := windowHarness(t, w)
	m, env := dataFrame(h, w, 5, 3, nil) // future frame with ack info
	defer m.Free()
	before := *w
	h.st.PreDeliver(h.ctx(env), m)
	if w.expected != before.expected || w.ackedTo != before.ackedTo ||
		w.nextSeq != before.nextSeq || w.buffered != 0 {
		t.Fatal("PreDeliver mutated window state")
	}
}

func TestWindowSeqLT(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{0, 1, true}, {1, 0, false}, {5, 5, false},
		{0xFFFFFFFF, 0, true}, // wraparound
		{0, 0xFFFFFFFF, false},
		{0x7FFFFFFF, 0x80000000, true},
	}
	for _, c := range cases {
		if got := seqLT(c.a, c.b); got != c.want {
			t.Errorf("seqLT(%#x,%#x) = %v", c.a, c.b, got)
		}
	}
}

func TestWindowStaleAckIgnored(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	h.send([]byte("a"))
	h.send([]byte("b"))
	m, env := ctrlFrame(h, w, TypeAck, 0, 2)
	defer m.Free()
	h.receive(env, m)
	// A stale ack (1) arrives late: must not regress.
	m2, env2 := ctrlFrame(h, w, TypeAck, 0, 1)
	defer m2.Free()
	h.receive(env2, m2)
	if w.ackedTo != 2 {
		t.Fatalf("ackedTo = %d", w.ackedTo)
	}
}

func TestWindowDoubledLayers(t *testing.T) {
	// The §5 experiment: the window layer stacked twice must still work
	// (each instance registers its own fields).
	w1, w2 := NewWindow(), NewWindow()
	h := newHarness(t, w1, w2)
	_, env := h.send([]byte("x"))
	if got := w1.seq.Read(env.Hdr[header.ProtoSpec], env.Order); got != 0 {
		t.Fatalf("w1 seq = %d", got)
	}
	if got := w2.seq.Read(env.Hdr[header.ProtoSpec], env.Order); got != 0 {
		t.Fatalf("w2 seq = %d", got)
	}
	if w1.Outstanding() != 1 || w2.Outstanding() != 1 {
		t.Fatal("both instances must save the frame")
	}
	// Proto-spec header now carries two seq fields + two type bits.
	if h.schema.Size(header.ProtoSpec) < 9 {
		t.Fatalf("doubled proto-spec header = %d bytes", h.schema.Size(header.ProtoSpec))
	}
}

func TestWindowFarFutureFreed(t *testing.T) {
	w := NewWindow()
	w.Size = 6 // reorder ring: 4×6 = 24 futures in 32 slots
	h := windowHarness(t, w)
	for _, c := range []struct {
		seq    uint32
		stored int
	}{{1000, 0}, {25, 0}, {24, 1}, {24, 1}, {1, 2}} {
		far, env := dataFrame(h, w, c.seq, 0, nil)
		h.receive(env, far)
		if w.buffered != c.stored || w.Stats.FuturesStored != uint64(c.stored) {
			t.Fatalf("after future %d: %d buffered, %d stored, want %d",
				c.seq, w.buffered, w.Stats.FuturesStored, c.stored)
		}
	}
	if got := w.ExportState().Buffered; !reflect.DeepEqual(got, []uint32{1, 24}) {
		t.Fatalf("buffered = %v, want [1 24]", got)
	}
}

func TestWindowConfigDefaults(t *testing.T) {
	w := NewWindow()
	if w.size() != DefaultWindowSize {
		t.Fatal("default size")
	}
	if w.ackEvery() != DefaultWindowSize/2 {
		t.Fatal("default ackEvery")
	}
	if w.rto() != DefaultRetransTimeout {
		t.Fatal("default rto")
	}
	if w.delayedAck() != DefaultDelayedAck {
		t.Fatal("default delayed ack")
	}
	w.Size = 8
	w.AckEvery = 3
	w.RetransTimeout = time.Second
	w.DelayedAck = time.Millisecond * 7
	if w.size() != 8 || w.ackEvery() != 3 || w.rto() != time.Second || w.delayedAck() != 7*time.Millisecond {
		t.Fatal("explicit config ignored")
	}
}

func TestAdaptiveRTOEstimation(t *testing.T) {
	w := NewWindow()
	w.AdaptiveRTO = true
	w.RetransTimeout = 200 * time.Millisecond
	h := windowHarness(t, w)
	// Before any sample, the RTO is the configured maximum.
	if w.rto() != 200*time.Millisecond {
		t.Fatalf("initial rto = %v", w.rto())
	}
	// Send a frame, then ack it 500 µs later: the estimator converges
	// toward the observed round trip.
	h.send([]byte("sample"))
	h.clk.Advance(500 * time.Microsecond)
	m, env := ctrlFrame(h, w, TypeAck, 0, 1)
	defer m.Free()
	h.receive(env, m)
	srtt, rttvar := w.RTTEstimate()
	if srtt != 500*time.Microsecond || rttvar != 250*time.Microsecond {
		t.Fatalf("first sample: srtt=%v rttvar=%v", srtt, rttvar)
	}
	// rto = srtt + 4*rttvar = 1.5ms, above the floor (200ms/8 = 25ms)?
	// No: 1.5ms < 25ms, so the floor clamps it.
	if got := w.rto(); got != 25*time.Millisecond {
		t.Fatalf("rto = %v, want the 25ms floor", got)
	}
}

func TestAdaptiveRTOKarnsRule(t *testing.T) {
	w := NewWindow()
	w.AdaptiveRTO = true
	h := windowHarness(t, w)
	h.send([]byte("frame"))
	// Timeout fires: the frame is retransmitted, so its eventual ack
	// must not contribute an RTT sample (it is ambiguous).
	h.clk.Advance(w.rto())
	if len(h.svc.raws) != 1 {
		t.Fatalf("retransmits = %d", len(h.svc.raws))
	}
	h.clk.Advance(time.Millisecond)
	m, env := ctrlFrame(h, w, TypeAck, 0, 1)
	defer m.Free()
	h.receive(env, m)
	if srtt, _ := w.RTTEstimate(); srtt != 0 {
		t.Fatalf("retransmitted frame contributed a sample: srtt=%v", srtt)
	}
}

func TestAdaptiveRTOConvergence(t *testing.T) {
	w := NewWindow()
	w.AdaptiveRTO = true
	w.RetransTimeout = time.Second
	h := windowHarness(t, w)
	// Feed many consistent samples; srtt converges and the RTO drops
	// well below the maximum (but respects the floor).
	for i := uint32(0); i < 40; i++ {
		h.send([]byte("x"))
		h.clk.Advance(40 * time.Millisecond)
		m, env := ctrlFrame(h, w, TypeAck, 0, i+1)
		h.receive(env, m)
		m.Free()
	}
	srtt, _ := w.RTTEstimate()
	if srtt < 35*time.Millisecond || srtt > 45*time.Millisecond {
		t.Fatalf("srtt = %v, want ≈40ms", srtt)
	}
	if got := w.rto(); got >= time.Second || got < 40*time.Millisecond {
		t.Fatalf("adapted rto = %v", got)
	}
}

// deliver runs one in-sequence data frame through the stack's delivery
// phases, as the engine's slow path does.
func deliver(h *harness, w *Window, seq, ack uint32) {
	h.t.Helper()
	m, env := dataFrame(h, w, seq, ack, []byte("x"))
	defer m.Free()
	if v := h.receive(env, m); v != stack.Continue {
		h.t.Fatalf("frame %d not deliverable: %v", seq, v)
	}
}

// ackTo feeds the window a standalone cumulative acknowledgement.
func ackTo(h *harness, w *Window, ack uint32) {
	m, env := ctrlFrame(h, w, TypeAck, 0, ack)
	defer m.Free()
	h.receive(env, m)
}

// The delayed ack is due DelayedAck after the first delivery it covers.
// A reply disarms the timer and a later delivery re-arms it inside the
// interval that was pending: the old deadline must pass silently and the
// ack must go out exactly DelayedAck after that later delivery.
func TestWindowDelayedAckExactAfterRearm(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	d := w.delayedAck()
	deliver(h, w, 0, 0) // armed, due at d
	h.clk.Advance(d * 4 / 10)
	h.send([]byte("reply")) // piggybacks the ack: disarmed
	h.clk.Advance(d * 2 / 10)
	deliver(h, w, 1, 0) // re-armed at 0.6d, due at 1.6d
	h.clk.Advance(d - time.Nanosecond)
	if w.Stats.AcksSent != 0 {
		t.Fatalf("ack sent %v early (old deadline fired?)", time.Nanosecond)
	}
	h.clk.Advance(time.Nanosecond)
	if w.Stats.AcksSent != 1 {
		t.Fatalf("acks = %d exactly DelayedAck after the re-arming delivery, want 1", w.Stats.AcksSent)
	}
	deliver(h, w, 2, 0) // a fired timer re-arms too
	h.clk.Advance(d)
	if w.Stats.AcksSent != 2 {
		t.Fatalf("acks = %d after the fired timer was re-armed, want 2", w.Stats.AcksSent)
	}
}

// The retransmission timeout runs rto()<<backoff from the last re-arm: a
// partial ack restarts it, an already running one is not pushed back by
// further sends, and each expiry doubles the next.
func TestWindowRTOExactAfterRearm(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	rto := w.rto()
	h.send([]byte("a")) // armed, due at rto
	h.clk.Advance(rto / 4)
	h.send([]byte("b")) // already armed: deadline unchanged
	h.clk.Advance(rto / 4)
	ackTo(h, w, 1) // partial ack at rto/2: re-armed, due at 1.5 rto
	h.clk.Advance(rto - time.Nanosecond)
	if w.Stats.Timeouts != 0 {
		t.Fatal("timed out before rto had passed since the re-arm")
	}
	h.clk.Advance(time.Nanosecond)
	if w.Stats.Timeouts != 1 || len(h.svc.raws) != 1 {
		t.Fatalf("timeouts = %d, retransmits = %d exactly rto after the re-arm, want 1 and 1",
			w.Stats.Timeouts, len(h.svc.raws))
	}
	h.clk.Advance(2*rto - time.Nanosecond)
	if w.Stats.Timeouts != 1 {
		t.Fatal("second timeout before the doubled rto")
	}
	h.clk.Advance(time.Nanosecond)
	if w.Stats.Timeouts != 2 {
		t.Fatalf("timeouts = %d after the doubled rto, want 2", w.Stats.Timeouts)
	}
}

// A timer disarmed on the per-message path stays queued and wakes up at
// its old deadline: the wake-up must send nothing and count nothing.
func TestWindowDisarmedWakeupIsNoop(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	deliver(h, w, 0, 0)     // ack timer armed
	h.send([]byte("reply")) // ack timer disarmed, rto armed
	ackTo(h, w, 1)          // rto disarmed
	if got := h.clk.PendingCount(); got != 2 {
		t.Fatalf("pending timers = %d, want the two disarmed ones", got)
	}
	before, controls, raws := w.Stats, len(h.svc.controls), len(h.svc.raws)
	h.clk.Advance(10 * w.rto())
	if w.Stats != before || len(h.svc.controls) != controls || len(h.svc.raws) != raws {
		t.Fatalf("disarmed wake-ups acted: stats %+v -> %+v, controls %d -> %d, raws %d -> %d",
			before, w.Stats, controls, len(h.svc.controls), raws, len(h.svc.raws))
	}
	if got := h.clk.PendingCount(); got != 0 {
		t.Fatalf("pending timers = %d after the wake-ups, want 0", got)
	}
	// Both timers still work after lying fired.
	h.send([]byte("again"))
	deliver(h, w, 1, 1)
	h.clk.Advance(w.rto())
	if w.Stats.Timeouts != 1 || w.Stats.AcksSent != 1 {
		t.Fatalf("after re-arming fired timers: timeouts = %d, acks = %d, want 1 and 1",
			w.Stats.Timeouts, w.Stats.AcksSent)
	}
}

// The rings index by seq&mask: the sequence wrap at 2³²−1 and a window
// size that is no power of two must neither collide nor lose a frame, on
// the send side (save, partial ack, go-back-N) or the receive side
// (futures buffered and released in order).
func TestWindowRingsAcrossSeqWrap(t *testing.T) {
	for _, size := range []int{1, 6, 16} {
		w := NewWindow()
		w.Size = size
		h := windowHarness(t, w)
		const start = uint32(0xFFFFFFFE)
		w.nextSeq, w.ackedTo, w.expected = start, start, start
		w.predictSend()
		w.predictRecv()

		n := uint32(size)
		for i := uint32(0); i < n; i++ {
			h.send([]byte{byte(i)})
		}
		if w.Outstanding() != size || h.svc.sendDisable != 1 {
			t.Fatalf("size %d: outstanding = %d, disable = %d", size, w.Outstanding(), h.svc.sendDisable)
		}
		var want []uint32
		for i := uint32(0); i < n; i++ {
			want = append(want, start+i)
		}
		if got := w.ExportState().Unacked; !reflect.DeepEqual(got, want) {
			t.Fatalf("size %d: unacked = %v, want %v", size, got, want)
		}
		h.clk.Advance(w.rto())
		if len(h.svc.raws) != size {
			t.Fatalf("size %d: go-back-N resent %d frames", size, len(h.svc.raws))
		}
		for i, r := range h.svc.raws {
			if !bytes.Equal(r.payload, []byte{byte(i)}) {
				t.Fatalf("size %d: retransmission %d carries %v", size, i, r.payload)
			}
		}
		ackTo(h, w, start+n-1) // all but the last
		if w.Outstanding() != 1 || !reflect.DeepEqual(w.ExportState().Unacked, want[n-1:]) {
			t.Fatalf("size %d: after partial ack unacked = %v", size, w.ExportState().Unacked)
		}
		ackTo(h, w, start+n)
		if w.Outstanding() != 0 || h.svc.sendDisable != 0 {
			t.Fatalf("size %d: after full ack outstanding = %d, disable = %d", size, w.Outstanding(), h.svc.sendDisable)
		}

		// Receive side: every future the window accepts, latest first,
		// then the missing frame.
		futures := 4 * n
		for i := futures; i >= 1; i-- {
			m, env := dataFrame(h, w, start+i, 0, []byte{byte(i)})
			if v := h.receive(env, m); v != stack.Consume {
				t.Fatalf("size %d: future %d not consumed", size, i)
			}
		}
		if w.buffered != int(futures) {
			t.Fatalf("size %d: buffered = %d, want %d", size, w.buffered, futures)
		}
		deliver(h, w, start, 0)
		if w.Expected() != start+futures+1 || w.buffered != 0 || len(h.svc.enq) != int(futures) {
			t.Fatalf("size %d: expected = %#x, buffered = %d, released = %d",
				size, w.Expected(), w.buffered, len(h.svc.enq))
		}
		for i, e := range h.svc.enq {
			if !bytes.Equal(e.m.Payload(), []byte{byte(i + 1)}) {
				t.Fatalf("size %d: release %d out of order: %v", size, i, e.m.Payload())
			}
			e.m.Free()
		}
		w.Close()
	}
}

// Layer-generated frames from above (a large message's fragments) pass
// through the window without waiting for it to open, so more than Size
// frames can be in flight: every one must still be saved, retransmitted
// and released.
func TestWindowSavesBurstBeyondSize(t *testing.T) {
	w := NewWindow()
	w.Size = 6
	w.AdaptiveRTO = true
	h := windowHarness(t, w)
	const burst = 40
	h.send([]byte{0})
	ackTo(h, w, 1) // the in-flight range no longer starts at slot 0
	for i := 1; i < burst; i++ {
		h.send([]byte{byte(i)})
	}
	if w.Outstanding() != burst-1 {
		t.Fatalf("outstanding = %d, want %d", w.Outstanding(), burst-1)
	}
	h.clk.Advance(w.rto())
	if len(h.svc.raws) != burst-1 {
		t.Fatalf("go-back-N resent %d frames, want %d", len(h.svc.raws), burst-1)
	}
	for i, r := range h.svc.raws {
		if !bytes.Equal(r.payload, []byte{byte(i + 1)}) {
			t.Fatalf("retransmission %d carries %v", i, r.payload)
		}
	}
	ackTo(h, w, burst)
	if w.Outstanding() != 0 || h.svc.sendDisable != 0 {
		t.Fatalf("after full ack outstanding = %d, disable = %d", w.Outstanding(), h.svc.sendDisable)
	}
	if srtt, _ := w.RTTEstimate(); srtt != 0 {
		t.Fatalf("retransmitted frames fed the RTT estimate across the ring growth: srtt = %v", srtt)
	}
}

// Close really stops both timers (the per-message paths only disarm
// them) and is safe to repeat.
func TestWindowCloseLeavesNoTimer(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	h.send([]byte("a"))
	deliver(h, w, 0, 0)
	far, env := dataFrame(h, w, 3, 0, nil)
	h.receive(env, far)
	if got := h.clk.PendingCount(); got != 2 {
		t.Fatalf("pending timers = %d, want rto + delayed ack", got)
	}
	for i := 0; i < 2; i++ {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := h.clk.PendingCount(); got != 0 {
			t.Fatalf("pending timers after Close = %d", got)
		}
		if st := w.ExportState(); w.Outstanding() != 0 || st.Unacked != nil || st.Buffered != nil {
			t.Fatalf("state after Close: outstanding %d, %+v", w.Outstanding(), st)
		}
	}
}

// raceClock is a manual clock whose timers lose every Stop race: Stop
// reports false — the callback had already started — and the callback
// then runs when the test lets it (runLate), as a real timer goroutine
// does once it gets the connection lock.
type raceClock struct {
	*vclock.Manual
	late []func()
}

type raceTimer struct {
	vclock.Timer
	clk *raceClock
	f   func()
}

func (c *raceClock) AfterFunc(d time.Duration, f func()) vclock.Timer {
	return &raceTimer{Timer: c.Manual.AfterFunc(d, f), clk: c, f: f}
}

func (t *raceTimer) Stop() bool {
	if t.Timer.Stop() {
		t.clk.late = append(t.clk.late, t.f)
	}
	return false
}

func (c *raceClock) runLate() {
	for len(c.late) > 0 {
		f := c.late[0]
		c.late = c.late[1:]
		f()
	}
}

// A timer callback that lost the race to the event cancelling it must do
// nothing, and each purpose must keep exactly one pending firing. Before
// the armed flags, the stale retransmission callback did a go-back-N,
// counted a timeout and armed a second live timer, and the stale ack
// closure sent the ack early and dropped the handle of its successor.
func TestWindowStaleTimerCallback(t *testing.T) {
	w := NewWindow()
	h := windowHarness(t, w)
	clk := &raceClock{Manual: h.clk}
	h.svc.clock = clk

	h.send([]byte("a"))
	h.send([]byte("b"))
	ackTo(h, w, 1) // partial ack: cancel and restart the rto
	clk.runLate()
	if w.Stats.Timeouts != 0 || len(h.svc.raws) != 0 {
		t.Fatalf("stale rto callback acted: timeouts = %d, retransmits = %d", w.Stats.Timeouts, len(h.svc.raws))
	}
	if got := clk.PendingCount(); got != 1 {
		t.Fatalf("pending rto firings = %d, want 1", got)
	}
	ackTo(h, w, 2)

	deliver(h, w, 0, 2)     // ack timer armed
	h.send([]byte("reply")) // cancelled by the piggyback
	deliver(h, w, 1, 2)     // armed again
	clk.runLate()
	if w.Stats.AcksSent != 0 {
		t.Fatal("stale ack callback sent the ack early")
	}
	ackTo(h, w, 3)
	deliver(h, w, 2, 3) // must not start a second ack timer
	h.clk.Advance(w.delayedAck())
	if w.Stats.AcksSent != 1 {
		t.Fatalf("acks = %d after DelayedAck, want 1", w.Stats.AcksSent)
	}

	// Close is the one place that really stops the timers; callbacks
	// that lose that race find a closed window and leave it alone.
	h.send([]byte("c"))
	deliver(h, w, 3, 3)
	w.Close()
	before, controls, raws := w.Stats, len(h.svc.controls), len(h.svc.raws)
	clk.runLate()
	h.clk.Advance(10 * w.rto())
	if w.Stats != before || len(h.svc.controls) != controls || len(h.svc.raws) != raws {
		t.Fatalf("callbacks acted on a closed window: stats %+v -> %+v", before, w.Stats)
	}
	if got := clk.PendingCount(); got != 0 {
		t.Fatalf("pending timers after Close = %d", got)
	}
}
