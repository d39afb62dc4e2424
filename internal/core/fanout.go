package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/telemetry"
)

// Fanout is the group-multicast engine: the paper's send-side split —
// one pre-processing pass, per-message work amortized — applied across
// the members of a group instead of across the messages of a backlog
// (§3.4's packing, rotated 90 degrees).
//
// One Send performs the pre-processing exactly once: a pooled *template*
// datagram is built (packing byte, header-class regions, payload) and
// the send packet filter runs over it once, filling the message-specific
// MsgSpec fields (checksum, length, timestamp) that are identical for
// every member — they digest only the payload. Then a per-member
// *stamping* pass clones the template and fills only what differs per
// member: the predicted protocol-specific header (that member's window
// sequence number) and gossip header (that member's ack state) are
// copied over the clone's regions, and the preamble is prepended with
// that member's cookie (plus the connection identification when due).
// Every stamped wire image is gathered into one scattered-destination
// burst and handed to the transport's SendBatchTo — one sendmmsg per 64
// members on Linux — instead of N full Send pipelines and N syscalls.
//
// Each member keeps its own reliable window: the stamped clone runs that
// member's PostSend post-processing (sequence advance, retransmit
// buffer), so loss, recovery and churn behave exactly as if the member
// had been sent to individually. A member whose window is closed joins
// its backlog (packed and sent when the window reopens); a member that
// is failed or closed contributes an error without blocking the rest.
//
// All members must be connections of the same endpoint, dialed with the
// same stack, so the template's geometry and filter program match every
// member. Send is safe for concurrent use; member churn (Add/Remove) may
// interleave with sends.
type Fanout struct {
	ep *Endpoint

	mu    sync.Mutex
	conns []*Conn

	// Gather scratch, reused across sends: the stamped wire images, their
	// per-index destinations, and the member connection owning each
	// pooled buffer.
	bufs   [][]byte
	dsts   []string
	owners []*Conn
	// failIdx are gather indices the transport refused this send,
	// ascending; errs collects every per-member failure (never only the
	// first — a partial fanout must be visible in full). leave gathers
	// members found closed mid-fanout: a Close racing an in-flight Send
	// is a departure, not a failure — it rides the view change (the
	// member is dropped from the group) instead of surfacing an error.
	failIdx []int
	errs    []error
	leave   []*Conn

	// tenv is the template's filter environment. Send runs under f.mu, so
	// one reusable environment suffices.
	tenv filter.Env

	// Telemetry: the members gauge tracks Add/Remove; fanout spans sample
	// through their own counter (under f.mu), mirroring Conn.telStart.
	members  *telemetry.NamedGauge
	telShard uint32
	telMask  uint32
	telCount uint32
}

// FanoutMembersGauge is the named telemetry gauge tracking the engine's
// current member count.
const FanoutMembersGauge = "fanout/members"

// ErrFanoutMixedEndpoints is returned by NewFanout when a member
// connection belongs to a different endpoint.
var ErrFanoutMixedEndpoints = errors.New("core: fanout members must share one endpoint")

// NewFanout creates a fanout engine over the endpoint's connections.
// Every conn must belong to ep. Members can be added and removed later.
func NewFanout(ep *Endpoint, conns ...*Conn) (*Fanout, error) {
	f := &Fanout{
		ep:      ep,
		members: ep.tel.NamedGauge(FanoutMembersGauge),
		telMask: ep.cfg.telemetrySampleMask(),
	}
	for _, c := range conns {
		if err := f.Add(c); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Add registers a member connection. It must belong to the engine's
// endpoint.
func (f *Fanout) Add(c *Conn) error {
	if c.ep != f.ep {
		return ErrFanoutMixedEndpoints
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, have := range f.conns {
		if have == c {
			return nil
		}
	}
	f.conns = append(f.conns, c)
	if f.telShard == 0 {
		f.telShard = c.telShard
	}
	f.members.Set(int64(len(f.conns)))
	return nil
}

// Remove drops a member connection (member churn; the connection itself
// is not closed). Unknown members are ignored.
func (f *Fanout) Remove(c *Conn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, have := range f.conns {
		if have == c {
			f.conns = append(f.conns[:i], f.conns[i+1:]...)
			break
		}
	}
	f.members.Set(int64(len(f.conns)))
}

// Len reports the current member count.
func (f *Fanout) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.conns)
}

// Send multicasts payload to every member: one template build and filter
// pass, one stamp per member, one batched transmit. Per-member failures
// (closed, failed, backlog full, transport refusal) are collected and
// returned joined; the remaining members are always attempted.
func (f *Fanout) Send(payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.conns) == 0 {
		return nil
	}
	var t0 time.Time
	if f.ep.tel != nil {
		f.telCount++
		if f.telCount&f.telMask == 0 {
			t0 = time.Now()
		}
	}
	f.errs = f.errs[:0]
	f.failIdx = f.failIdx[:0]
	f.leave = f.leave[:0]

	// Template build: the geometry (class sizes, filter program) is fixed
	// by the stack plan, so the first member's is the template's; members
	// of another plan take the direct path in the stamp pass. The filter
	// writes only into the template's regions via the environment — no
	// connection state — so no lock is needed here.
	tc := f.conns[0]
	tc.mu.Lock()
	stateful := !allZero(tc.send.predict[header.MsgSpec])
	tc.mu.Unlock()
	if stateful || len(payload) > tc.plan.maxPayload {
		// A layer predicts message-specific bytes — an encryption
		// layer's sealed flag. Its filter pass mutates per-connection
		// crypto state (a nonce burn under the template connection's
		// key), and the sealed bytes would be wrong for every other
		// member anyway: no shared template can exist. Nor can one for
		// a payload over the declared frame limit, which each member's
		// layers fragment. Skip the build entirely and run the full
		// per-member path.
		err := f.sendPerMember(payload)
		f.processLeaves()
		f.telEnd(t0)
		return err
	}
	size := &tc.plan.size
	protoN, msgN, gosN := size[header.ProtoSpec], size[header.MsgSpec], size[header.Gossip]
	tmpl := message.New(payload)
	tmpl.Push(1)[0] = packSingle
	gos := tmpl.Push(gosN)
	msgRegion := tmpl.Push(msgN)
	proto := tmpl.Push(protoN)

	f.tenv = filter.Env{}
	f.tenv.Payload = tmpl.Payload()
	f.tenv.Order = tc.order
	f.tenv.Time = tc.envTime()
	f.tenv.Hdr[header.ProtoSpec] = proto
	f.tenv.Hdr[header.MsgSpec] = msgRegion
	f.tenv.Hdr[header.Gossip] = gos

	if status := tc.plan.send.Run(&f.tenv); status != filter.StatusOK {
		// The filter refused the payload: every member takes its own
		// send, which reports the refusal as that member's error.
		tmpl.Free()
		err := f.sendPerMember(payload)
		f.processLeaves()
		f.telEnd(t0)
		return err
	}

	protoOff := 0
	msgOff := protoN
	gosOff := protoN + msgN

	// Stamp pass: per member, entered like any other operation (so its
	// prediction is current, §3.1) — clone the template and overwrite
	// only the member-specific predicted classes.
	f.bufs = f.bufs[:0]
	f.dsts = f.dsts[:0]
	f.owners = f.owners[:0]
	for _, c := range f.conns {
		if err := c.enter(gateSend); err != nil {
			f.memberErr(c, err)
			continue
		}
		if c.send.disable > 0 || len(c.send.backlog) > 0 || !allZero(c.send.predict[header.MsgSpec]) ||
			c.plan != tc.plan {
			// A closed window or a waiting backlog: the payload joins
			// this member's backlog, exactly as a direct Send would — a
			// full backlog is backpressure for this member only. Or a
			// layer has predicted message-specific bytes, so the
			// template's filter-filled MsgSpec is not valid for this
			// member: a template is member-neutral only where every
			// message-specific field is filter-written, never predicted.
			// Or the member runs another plan than the template's, whose
			// geometry may differ. Either way: the direct path.
			err := c.sendLocked(message.New(payload), false)
			c.exit()
			if err != nil {
				f.memberErr(c, err)
			}
			continue
		}

		m := tmpl.Clone()
		b := m.Bytes()
		copy(b[protoOff:protoOff+protoN], c.send.predict[header.ProtoSpec])
		copy(b[gosOff:gosOff+gosN], c.send.predict[header.Gossip])

		env := c.getEnv()
		env.Payload = m.Payload()
		env.Order = c.order
		env.Time = f.tenv.Time
		env.Hdr[header.ProtoSpec] = b[protoOff : protoOff+protoN]
		env.Hdr[header.MsgSpec] = b[msgOff : msgOff+msgN]
		env.Hdr[header.Gossip] = b[gosOff : gosOff+gosN]

		c.stats.Sent++
		c.stats.FastSends++
		// transmit prepends this member's preamble (cookie, and the
		// connection identification when due) and queues the wire image
		// on the member's tx queue; steal it into the shared gather so
		// the whole fanout goes down as one burst.
		c.transmit(m)
		n := len(c.txq)
		buf := c.txq[n-1]
		c.txq[n-1] = nil
		c.txq = c.txq[:n-1]
		c.txPending.Add(-1)
		c.queuePostSend(m, env)
		dst := c.addr
		c.exit()

		f.bufs = append(f.bufs, buf)
		f.dsts = append(f.dsts, dst)
		f.owners = append(f.owners, c)
	}
	tmpl.Free()

	// Batched transmit: the whole gather in one SendBatchTo (chunked by
	// the transport), with the per-datagram prefix-error contract — a
	// refused datagram is skipped and the rest of the burst re-batched.
	if len(f.bufs) > 0 {
		st := f.ep.stats.stripe(uint64(f.telShard))
		if bt := f.ep.batchTo; bt != nil && len(f.bufs) > 1 {
			off := 0
			for off < len(f.bufs) {
				n, err := bt.SendBatchTo(f.dsts[off:], f.bufs[off:])
				if n < 0 {
					n = 0
				}
				if n > len(f.bufs)-off {
					n = len(f.bufs) - off
				}
				st.batchSends.Add(1)
				st.batchDatagrams.Add(uint64(n))
				if err == nil {
					break
				}
				idx := off + n
				st.txErrors.Add(1)
				f.failIdx = append(f.failIdx, idx)
				f.errs = append(f.errs, fmt.Errorf("core: fanout to %s: %w", f.dsts[idx], err))
				off = idx + 1
			}
		} else {
			tr := f.ep.cfg.Transport
			for i := range f.bufs {
				if err := tr.Send(f.dsts[i], f.bufs[i]); err != nil {
					st.txErrors.Add(1)
					f.failIdx = append(f.failIdx, i)
					f.errs = append(f.errs, fmt.Errorf("core: fanout to %s: %w", f.dsts[i], err))
				}
			}
		}
	}

	// Return the stamped buffers to their owners' pools and attribute
	// transport refusals.
	fi := 0
	for i, c := range f.owners {
		c.mu.Lock()
		c.putTxBuf(f.bufs[i])
		if fi < len(f.failIdx) && f.failIdx[fi] == i {
			c.stats.SendErrors++
			fi++
		}
		c.mu.Unlock()
		f.bufs[i] = nil
		f.owners[i] = nil
	}

	f.processLeaves()
	f.telEnd(t0)
	return f.joinErrs()
}

// sendPerMember is the no-template fallback: every member runs its own
// full send pipeline. Caller holds f.mu.
func (f *Fanout) sendPerMember(payload []byte) error {
	for _, c := range f.conns {
		if err := c.Send(payload); err != nil {
			f.memberErr(c, err)
		}
	}
	return f.joinErrs()
}

// processLeaves drops the members a Send found closed — departure rides
// the view change instead of repeating a per-member error every
// multicast. Caller holds f.mu.
func (f *Fanout) processLeaves() {
	if len(f.leave) == 0 {
		return
	}
	for _, gone := range f.leave {
		for i, have := range f.conns {
			if have == gone {
				f.conns = append(f.conns[:i], f.conns[i+1:]...)
				break
			}
		}
	}
	f.leave = f.leave[:0]
	f.members.Set(int64(len(f.conns)))
}

// memberErr records one member's failure without aborting the fanout. A
// member found closed has departed instead: it is dropped from the group
// (processLeaves), not reported.
func (f *Fanout) memberErr(c *Conn, err error) {
	if errors.Is(err, ErrConnClosed) && c.State() == StateClosed {
		f.leave = append(f.leave, c)
		return
	}
	f.errs = append(f.errs, fmt.Errorf("core: fanout member %s: %w", c.spec.Addr, err))
}

// joinErrs combines the collected per-member errors (nil when none).
func (f *Fanout) joinErrs() error {
	if len(f.errs) == 0 {
		return nil
	}
	err := errors.Join(f.errs...)
	f.errs = f.errs[:0]
	return err
}

// telEnd closes a sampled fanout span.
func (f *Fanout) telEnd(t0 time.Time) {
	if !t0.IsZero() {
		f.ep.tel.Record(telemetry.OpFanout, f.telShard, time.Since(t0))
	}
}

// allZero reports whether b contains only zero bytes.
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
