package layers

import (
	"strconv"
	"time"

	"paccel/internal/bits"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/stack"
	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

// Window defaults, following the paper's measured configuration: "a basic
// sliding window protocol, with a window size of 16 entries" (§5).
const (
	DefaultWindowSize     = 16
	DefaultRetransTimeout = 200 * time.Millisecond
	DefaultDelayedAck     = time.Millisecond
)

// Message types carried in the window layer's 2-bit protocol-specific
// type field ("e.g., data, ack, or nak", §2.1). TypeProbe is the
// session-resumption handshake (engine recovery): it always travels
// with the connection identification attached — the §2.2 "unusual
// message" path — and solicits an identified acknowledgement, so both
// directions re-establish cookies and reconcile their sequence state.
const (
	TypeData uint64 = iota
	TypeAck
	TypeNak
	TypeProbe
)

// Window is a sliding window protocol layer providing reliable,
// exactly-once, FIFO delivery over an unreliable datagram network. It is
// the protocol the paper's four-layer stack implements and the layer that
// is "stacked twice" in the §5 layering-cost experiment.
//
// Header usage exercises three of the four classes:
//
//   - protocol-specific: 32-bit sequence number, 2-bit message type —
//     predictable from protocol state alone (§3.2);
//   - gossip: 32-bit cumulative acknowledgement piggybacked on every
//     message, correct even when stale (§2.1 class 4);
//   - the send window disables header prediction when full (§3.2), which
//     diverts further sends to the engine's backlog and triggers message
//     packing (§3.4).
type Window struct {
	// Size is the window size in messages; 0 means DefaultWindowSize.
	Size int
	// RetransTimeout is the base retransmission timeout; it doubles on
	// every expiry up to 8x. 0 means DefaultRetransTimeout.
	RetransTimeout time.Duration
	// AckEvery forces a standalone acknowledgement after this many
	// unacknowledged deliveries; 0 means half the window.
	AckEvery int
	// DelayedAck bounds how long an acknowledgement may be withheld
	// waiting for reverse traffic to piggyback on. 0 means
	// DefaultDelayedAck.
	DelayedAck time.Duration
	// Naks requests an immediate retransmission when a gap is observed.
	Naks bool
	// AdaptiveRTO estimates the retransmission timeout from measured
	// ack round-trip times (Jacobson/Karels: srtt + 4·rttvar), clamped
	// to [RetransTimeout/8, RetransTimeout]. RetransTimeout remains the
	// initial and maximum value.
	AdaptiveRTO bool

	seq header.Handle // ProtoSpec: sequence number
	typ header.Handle // ProtoSpec: data/ack/nak
	ack header.Handle // Gossip: cumulative acknowledgement (next expected)

	// Captured at Prime: the engine's service surface and the stable
	// prediction buffers, needed by timers.
	s     stack.Services
	order bits.ByteOrder
	pSend [header.NumClasses][]byte
	pRecv [header.NumClasses][]byte

	// Send side. Sequence numbers are dense and the frames in flight
	// are [ackedTo, nextSeq), so saved frames live in a power-of-two ring
	// indexed by seq&mask (see sendSlot).
	nextSeq      uint32
	ackedTo      uint32         // everything before this is acknowledged
	unacked      []*message.Msg // saved frames awaiting acknowledgement
	sentAt       []time.Time    // parallel send times for RTT sampling (AdaptiveRTO only)
	outstanding  int            // frames held in unacked
	sendDisabled bool
	rtBackoff    int
	srtt, rttvar time.Duration // smoothed RTT state (AdaptiveRTO)

	// Receive side. Future frames are kept for (expected, expected+4·Size]
	// in a ring allocated when the first one is stored.
	expected    uint32
	oooBuf      []*message.Msg
	buffered    int  // frames held in oooBuf
	naked       bool // a nak for the current expected has been sent
	pendingAcks int

	// One retransmission timer and one delayed-ack timer per connection,
	// created on first use and re-armed with Reset from then on. The
	// per-message paths cancel by clearing the armed flag, never by
	// Stop: the callback returns at once when its flag is clear, and a
	// callback that lost the race for the connection lock to the event
	// that disarmed it finds the same thing. Close stops and drops both.
	rtTimer, ackTimer vclock.Timer
	rtArmed, ackArmed bool

	// Counters for tests and reports.
	Stats WindowStats

	// Telemetry sink; nil disables. Installed by the engine via the
	// structural SetTelemetry assertion before any traffic flows.
	tel     *telemetry.Recorder
	telConn uint64
}

// WindowStats counts window-layer events.
type WindowStats struct {
	Sent, Delivered              uint64
	Dups, Futures, FuturesStored uint64
	AcksSent, AcksReceived       uint64
	NaksSent, NaksReceived       uint64
	Retransmits, Timeouts        uint64
	// Session resumption (engine recovery).
	Resumes        uint64 // Resume calls (one per probe round)
	ResumeReplays  uint64 // unacked frames replayed by Resume
	ProbesReceived uint64 // peer resume probes answered
}

// NewWindow returns a window layer with the paper's defaults (16 entries).
// Early frames are kept for in-order release, never dropped.
func NewWindow() *Window {
	return &Window{}
}

// Name implements stack.Layer.
func (w *Window) Name() string { return "window" }

// SetTelemetry installs the engine's telemetry recorder: the window
// reports retransmission timeouts as fault events and session
// resumptions as resume events. Called once at connection setup, before
// traffic; the per-message paths are not instrumented here (the engine
// spans them).
func (w *Window) SetTelemetry(rec *telemetry.Recorder, conn uint64, _ uint32) {
	w.tel = rec
	w.telConn = conn
}

func (w *Window) size() uint32 {
	if w.Size <= 0 {
		return DefaultWindowSize
	}
	return uint32(w.Size)
}

func (w *Window) ackEvery() int {
	if w.AckEvery > 0 {
		return w.AckEvery
	}
	return int(w.size()) / 2
}

func (w *Window) rto() time.Duration {
	max := w.RetransTimeout
	if max <= 0 {
		max = DefaultRetransTimeout
	}
	if !w.AdaptiveRTO || w.srtt == 0 {
		return max
	}
	rto := w.srtt + 4*w.rttvar
	if min := max / 8; rto < min {
		rto = min
	}
	if rto > max {
		rto = max
	}
	return rto
}

// observeRTT feeds one ack round-trip sample into the Jacobson/Karels
// estimator.
func (w *Window) observeRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if w.srtt == 0 {
		w.srtt = sample
		w.rttvar = sample / 2
		return
	}
	diff := w.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	w.rttvar += (diff - w.rttvar) / 4
	w.srtt += (sample - w.srtt) / 8
}

// RTTEstimate returns the smoothed round-trip estimate and its variance
// (zero before the first sample).
func (w *Window) RTTEstimate() (srtt, rttvar time.Duration) { return w.srtt, w.rttvar }

func (w *Window) delayedAck() time.Duration {
	if w.DelayedAck <= 0 {
		return DefaultDelayedAck
	}
	return w.DelayedAck
}

// Init registers the window's fields.
func (w *Window) Init(ic *stack.InitContext) error {
	var err error
	if w.seq, err = ic.Schema.AddField(header.ProtoSpec, w.Name(), "seq", 32, header.DontCare); err != nil {
		return err
	}
	if w.typ, err = ic.Schema.AddField(header.ProtoSpec, w.Name(), "type", 2, header.DontCare); err != nil {
		return err
	}
	if w.ack, err = ic.Schema.AddField(header.Gossip, w.Name(), "ack", 32, header.DontCare); err != nil {
		return err
	}
	w.unacked = make([]*message.Msg, ringLen(w.size()))
	return nil
}

// ringLen returns the next power of two ≥ n, so that seq&(len-1) stays a
// dense index across the 32-bit sequence wrap.
func ringLen(n uint32) int {
	l := 1
	for uint32(l) < n {
		l <<= 1
	}
	return l
}

// sendSlot returns seq's index in the send rings. The engine's backlog
// honours the closed window, but layer-generated frames from above (a
// large message's fragments) are sent regardless, so a frame that would
// land on one still in flight doubles the rings first.
func (w *Window) sendSlot(seq uint32) int {
	if n := len(w.unacked); int32(seq-w.ackedTo) >= int32(n) {
		unacked := make([]*message.Msg, 2*n)
		var sentAt []time.Time
		if w.sentAt != nil {
			sentAt = make([]time.Time, 2*n)
		}
		for s := w.ackedTo; s != seq; s++ {
			unacked[int(s)&(2*n-1)] = w.unacked[int(s)&(n-1)]
			if sentAt != nil {
				sentAt[int(s)&(2*n-1)] = w.sentAt[int(s)&(n-1)]
			}
		}
		w.unacked, w.sentAt = unacked, sentAt
	}
	return int(seq) & (len(w.unacked) - 1)
}

// Prime captures the engine surfaces and predicts the first messages in
// both directions: sequence 0 data frames.
func (w *Window) Prime(ctx *stack.Context) {
	w.s = ctx.S
	w.order = ctx.Order
	w.pSend = ctx.PredictSend
	w.pRecv = ctx.PredictRecv
	w.predictSend()
	w.predictRecv()
}

func (w *Window) predictSend() {
	w.seq.Write(w.pSend[header.ProtoSpec], w.order, uint64(w.nextSeq))
	w.typ.Write(w.pSend[header.ProtoSpec], w.order, TypeData)
	w.ack.Write(w.pSend[header.Gossip], w.order, uint64(w.expected))
}

func (w *Window) predictRecv() {
	w.seq.Write(w.pRecv[header.ProtoSpec], w.order, uint64(w.expected))
	w.typ.Write(w.pRecv[header.ProtoSpec], w.order, TypeData)
}

// PreSend stamps an outgoing data frame: next sequence number, data type,
// piggybacked cumulative ack. Pure: state advances in PostSend.
func (w *Window) PreSend(ctx *stack.Context, m *message.Msg) stack.Verdict {
	hdr := ctx.Env.Hdr[header.ProtoSpec]
	w.seq.Write(hdr, ctx.Env.Order, uint64(w.nextSeq))
	w.typ.Write(hdr, ctx.Env.Order, TypeData)
	w.ack.Write(ctx.Env.Hdr[header.Gossip], ctx.Env.Order, uint64(w.expected))
	return stack.Continue
}

// PostSend saves the frame for retransmission, advances the window,
// disables prediction when the window fills, and predicts the next frame.
func (w *Window) PostSend(ctx *stack.Context, m *message.Msg) {
	seq := uint32(w.seq.Read(ctx.Env.Hdr[header.ProtoSpec], ctx.Env.Order))
	i := w.sendSlot(seq)
	w.unacked[i] = m.Clone()
	w.outstanding++
	if w.AdaptiveRTO {
		if w.sentAt == nil {
			w.sentAt = make([]time.Time, len(w.unacked))
		}
		w.sentAt[i] = w.s.Clock().Now()
	}
	w.nextSeq = seq + 1
	w.Stats.Sent++
	// A data frame carries the current cumulative ack, so pending
	// standalone acks are covered (piggybacking).
	w.pendingAcks = 0
	w.ackArmed = false
	if w.inflight() >= w.size() && !w.sendDisabled {
		w.sendDisabled = true
		w.s.DisableSend()
	}
	w.armRetransmit()
	w.predictSend()
}

func (w *Window) inflight() uint32 { return w.nextSeq - w.ackedTo }

// PreDeliver classifies an incoming frame: control frames are consumed,
// duplicates dropped, future frames consumed for in-order release, and
// the expected data frame continues. It only reads; PostDeliver acts.
func (w *Window) PreDeliver(ctx *stack.Context, m *message.Msg) stack.Verdict {
	hdr := ctx.Env.Hdr[header.ProtoSpec]
	if w.typ.Read(hdr, ctx.Env.Order) != TypeData {
		return stack.Consume
	}
	switch seq := uint32(w.seq.Read(hdr, ctx.Env.Order)); {
	case seq == w.expected:
		return stack.Continue
	case seqLT(seq, w.expected):
		return stack.Drop
	default:
		return stack.Consume
	}
}

// PostDeliver processes the frame's piggybacked cumulative ack. For a
// delivered frame — fast path (no PreDeliver) or slow — it advances the
// receive window, releases any directly following buffered frames,
// schedules acknowledgements, and predicts the next incoming frame. For a
// frame the window consumed or dropped (ctx.Verdict) it handles the
// control frame, the duplicate or the future frame.
func (w *Window) PostDeliver(ctx *stack.Context, m *message.Msg) {
	order := ctx.Env.Order
	w.processAck(uint32(w.ack.Read(ctx.Env.Hdr[header.Gossip], order)))
	if ctx.Verdict == stack.Continue {
		w.advance()
		w.predictRecv()
		w.predictSend() // piggyback prediction now carries the fresh ack
		return
	}
	hdr := ctx.Env.Hdr[header.ProtoSpec]
	seq := uint32(w.seq.Read(hdr, order))
	switch w.typ.Read(hdr, order) {
	case TypeAck:
		w.Stats.AcksReceived++
	case TypeNak:
		w.Stats.NaksReceived++
		w.resend(seq)
	case TypeProbe:
		// Session-resumption probe: the peer is recovering. Answer
		// with an identified ack so it re-learns our cookie and sees
		// our cumulative ack — that reply is what completes the
		// peer's recovery.
		w.Stats.ProbesReceived++
		w.sendAckIdent(true)
	default:
		if ctx.Verdict == stack.Drop {
			// Duplicate: the peer may have missed our ack; re-ack
			// now. A duplicate means recovery is in progress, so this
			// is an "unusual" message: it carries the connection
			// identification (§2.2) in case the peer never learned
			// our cookie.
			w.Stats.Dups++
			w.sendAckIdent(true)
			return
		}
		// Future frame: a gap exists; keep a copy for in-order
		// release (the engine frees m).
		w.Stats.Futures++
		w.storeFuture(seq, m)
	}
}

// advance moves expected forward by one delivered frame plus any buffered
// successors, and schedules acks.
func (w *Window) advance() {
	w.naked = false
	w.expected++
	w.Stats.Delivered++
	w.pendingAcks++
	for w.buffered > 0 {
		i := int(w.expected) & (len(w.oooBuf) - 1)
		m := w.oooBuf[i]
		if m == nil {
			break
		}
		w.oooBuf[i] = nil
		w.buffered--
		w.expected++
		w.Stats.Delivered++
		w.pendingAcks++
		w.s.EnqueueDeliver(w, m)
	}
	if w.pendingAcks >= w.ackEvery() {
		w.sendAck()
	} else if !w.ackArmed {
		w.ackArmed = true
		d := w.delayedAck()
		if w.ackTimer == nil {
			w.ackTimer = w.s.AfterFunc(d, w.onAckTimer)
		} else {
			w.ackTimer.Reset(d)
		}
	}
}

// onAckTimer sends the acknowledgement that found no reverse traffic to
// ride on.
func (w *Window) onAckTimer() {
	if !w.ackArmed {
		return
	}
	w.ackArmed = false
	if w.pendingAcks > 0 {
		w.sendAck()
	}
}

// storeFuture keeps a clone of future frame m for in-order release,
// unless it is absurdly far ahead or already held.
func (w *Window) storeFuture(seq uint32, m *message.Msg) {
	if seq-w.expected > 4*w.size() {
		return
	}
	if w.oooBuf == nil {
		w.oooBuf = make([]*message.Msg, ringLen(4*w.size()))
	}
	i := int(seq) & (len(w.oooBuf) - 1)
	if w.oooBuf[i] != nil {
		return
	}
	w.oooBuf[i] = m.Clone()
	w.buffered++
	w.Stats.FuturesStored++
	w.maybeNak(seq)
}

// maybeNak requests retransmission of the lowest missing frame once per
// gap observation.
func (w *Window) maybeNak(got uint32) {
	if !w.Naks || w.naked {
		return
	}
	w.naked = true
	w.Stats.NaksSent++
	missing := w.expected
	msg := message.New(nil)
	err := w.s.SendControl(w, msg, stack.ControlOpts{
		Build: func(env *filter.Env) {
			w.typ.Write(env.Hdr[header.ProtoSpec], env.Order, TypeNak)
			w.seq.Write(env.Hdr[header.ProtoSpec], env.Order, uint64(missing))
			w.ack.Write(env.Hdr[header.Gossip], env.Order, uint64(w.expected))
		},
	})
	if err != nil {
		msg.Free()
	}
}

// sendAck emits a standalone cumulative acknowledgement.
func (w *Window) sendAck() { w.sendAckIdent(false) }

// sendAckIdent emits an acknowledgement, optionally tagged as an unusual
// message that carries the connection identification.
func (w *Window) sendAckIdent(withIdent bool) {
	w.pendingAcks = 0
	w.ackArmed = false
	w.Stats.AcksSent++
	msg := message.New(nil)
	err := w.s.SendControl(w, msg, stack.ControlOpts{
		IncludeConnID: withIdent,
		Build: func(env *filter.Env) {
			w.typ.Write(env.Hdr[header.ProtoSpec], env.Order, TypeAck)
			w.ack.Write(env.Hdr[header.Gossip], env.Order, uint64(w.expected))
		},
	})
	if err != nil {
		msg.Free()
	}
}

// processAck handles a cumulative acknowledgement: releases saved frames,
// reopens the window, and rearms or cancels the retransmission timer.
func (w *Window) processAck(ackTo uint32) {
	if !seqLT(w.ackedTo, ackTo) {
		return
	}
	now := time.Time{}
	if w.AdaptiveRTO {
		now = w.s.Clock().Now()
	}
	mask := len(w.unacked) - 1
	for s := w.ackedTo; seqLT(s, ackTo) && w.outstanding > 0; s++ {
		i := int(s) & mask
		if m := w.unacked[i]; m != nil {
			m.Free()
			w.unacked[i] = nil
			w.outstanding--
		}
		if w.sentAt != nil {
			// Karn's rule: skip retransmitted frames (their send
			// time was cleared on retransmission).
			if at := w.sentAt[i]; w.AdaptiveRTO && !at.IsZero() {
				w.observeRTT(now.Sub(at))
			}
			w.sentAt[i] = time.Time{}
		}
	}
	w.ackedTo = ackTo
	w.rtBackoff = 0
	if w.sendDisabled && w.inflight() < w.size() {
		w.sendDisabled = false
		w.s.EnableSend()
	}
	w.rtArmed = false
	w.armRetransmit()
}

// resend retransmits one saved frame (nak response), with the connection
// identification attached — it is an "unusual" message (§2.2).
func (w *Window) resend(seq uint32) {
	if seqLT(seq, w.ackedTo) || !seqLT(seq, w.nextSeq) {
		return
	}
	w.retransmit(seq)
}

// retransmit puts the saved frame for seq, one of [ackedTo, nextSeq), back
// on the wire if it is still held.
func (w *Window) retransmit(seq uint32) bool {
	i := int(seq) & (len(w.unacked) - 1)
	m := w.unacked[i]
	if m == nil {
		return false
	}
	w.Stats.Retransmits++
	if w.sentAt != nil {
		w.sentAt[i] = time.Time{} // Karn: ambiguous sample, never measure
	}
	_ = w.s.SendRaw(m, true)
	return true
}

// onTimeout retransmits everything outstanding (go-back-N) with
// exponential backoff.
func (w *Window) onTimeout() {
	if !w.rtArmed {
		return
	}
	w.rtArmed = false
	if w.outstanding == 0 {
		return
	}
	w.Stats.Timeouts++
	w.tel.Event(telemetry.EventFault, w.telConn,
		"window: retransmit timeout, go-back-N over "+strconv.Itoa(w.outstanding)+" unacked")
	if w.rtBackoff < 3 {
		w.rtBackoff++
	}
	for s := w.ackedTo; seqLT(s, w.nextSeq); s++ {
		w.retransmit(s)
	}
	w.armRetransmit()
}

// armRetransmit starts the retransmission timeout unless it is already
// running or nothing is outstanding.
func (w *Window) armRetransmit() {
	if w.rtArmed || w.outstanding == 0 {
		return
	}
	w.rtArmed = true
	d := w.rto() << uint(w.rtBackoff)
	if w.rtTimer == nil {
		w.rtTimer = w.s.AfterFunc(d, w.onTimeout)
	} else {
		w.rtTimer.Reset(d)
	}
}

// Resume implements stack.Resumer: the window's half of the session-
// resumption handshake. It sends an identified probe carrying the
// current cumulative ack (so the peer re-learns our cookie and releases
// anything we have acknowledged) and replays every unacked frame —
// also identified, the §2.2 retransmission rule. The receiver's
// sequence space dedupes replays of frames it already delivered, so
// no payload is lost or duplicated across the failover. Like every
// layer entry point it runs under the connection lock.
func (w *Window) Resume() {
	w.Stats.Resumes++
	w.sendProbe()
	replays := 0
	for s := w.ackedTo; seqLT(s, w.nextSeq); s++ {
		if w.retransmit(s) { // Karn: replays never feed the RTT estimate
			replays++
			w.Stats.ResumeReplays++
		}
	}
	w.tel.Event(telemetry.EventResume, w.telConn,
		"window resume: probe sent, "+strconv.Itoa(replays)+" frames replayed")
	w.rtArmed = false
	w.armRetransmit()
}

// sendProbe emits the identified resume probe. Unlike an ack it always
// solicits a reply, so a recovering side with nothing outstanding still
// gets the datagram that completes its recovery.
func (w *Window) sendProbe() {
	msg := message.New(nil)
	err := w.s.SendControl(w, msg, stack.ControlOpts{
		IncludeConnID: true,
		Build: func(env *filter.Env) {
			w.typ.Write(env.Hdr[header.ProtoSpec], env.Order, TypeProbe)
			w.seq.Write(env.Hdr[header.ProtoSpec], env.Order, uint64(w.nextSeq))
			w.ack.Write(env.Hdr[header.Gossip], env.Order, uint64(w.expected))
		},
	})
	if err != nil {
		msg.Free()
	}
}

// WindowState is an observability snapshot of the window's sequence
// space (ExportState) for failover assertions and reports.
type WindowState struct {
	NextSeq  uint32   // next data sequence to be assigned
	AckedTo  uint32   // everything before this is acknowledged by the peer
	Expected uint32   // next incoming sequence to deliver
	Unacked  []uint32 // outstanding sends, ascending
	Buffered []uint32 // out-of-order frames held for release, ascending
}

// ExportState snapshots the sequence space. Call it from the same
// serialization domain as the connection's operations (tests and
// experiments read it while the connection is quiescent).
func (w *Window) ExportState() WindowState {
	st := WindowState{NextSeq: w.nextSeq, AckedTo: w.ackedTo, Expected: w.expected}
	for s := w.ackedTo; seqLT(s, w.nextSeq); s++ {
		if w.unacked[int(s)&(len(w.unacked)-1)] != nil {
			st.Unacked = append(st.Unacked, s)
		}
	}
	for s := w.expected; w.buffered > 0 && !seqLT(w.expected+4*w.size(), s); s++ {
		if w.oooBuf[int(s)&(len(w.oooBuf)-1)] != nil {
			st.Buffered = append(st.Buffered, s)
		}
	}
	return st
}

// Outstanding reports the number of unacknowledged frames.
func (w *Window) Outstanding() int { return w.outstanding }

// Expected returns the next expected incoming sequence number.
func (w *Window) Expected() uint32 { return w.expected }

// seqLT compares sequence numbers in serial-number arithmetic (RFC 1982
// style), so the window survives 32-bit wraparound.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// Close stops the layer's timers (connection teardown) and releases saved
// frames.
func (w *Window) Close() error {
	if w.rtTimer != nil {
		w.rtTimer.Stop()
	}
	if w.ackTimer != nil {
		w.ackTimer.Stop()
	}
	w.rtTimer, w.ackTimer = nil, nil
	w.rtArmed, w.ackArmed = false, false
	for i, m := range w.unacked {
		if m != nil {
			m.Free()
			w.unacked[i] = nil
		}
	}
	for _, m := range w.oooBuf {
		if m != nil {
			m.Free()
		}
	}
	w.outstanding, w.buffered = 0, 0
	w.oooBuf, w.sentAt = nil, nil
	return nil
}
