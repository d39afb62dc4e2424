// Package group extends the Protocol Accelerator to group communication —
// the paper presents point-to-point "for clarity, but the techniques
// extend to multicast protocols" (§1), and Horus itself is a group
// communication system.
//
// A group is built from ordinary accelerated point-to-point connections,
// one per peer, so every member-to-member channel enjoys the PA fast
// path, compact headers, and reliability. On top of those FIFO
// exactly-once channels the group offers two delivery orders:
//
//   - FIFO: sends fan out directly; receivers observe each sender's
//     messages in that sender's order (per-channel FIFO gives per-sender
//     FIFO).
//   - Total: a fixed sequencer member orders all messages. Because every
//     sequenced message reaches a member over the single FIFO channel
//     from the sequencer, total order needs no holdback queue — the
//     channel is the order.
package group

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Order selects the group's delivery ordering guarantee.
type Order int

// Delivery orders.
const (
	// FIFO delivers each sender's messages in the order it sent them.
	FIFO Order = iota
	// Total delivers all messages in one global order, identical at
	// every member, via a sequencer.
	Total
)

// Conn is the point-to-point surface the group needs; *core.Conn
// satisfies it.
type Conn interface {
	Send(payload []byte) error
	OnDeliver(fn func(payload []byte))
}

// FanoutSender multicasts one payload to every group member in a single
// operation; *core.Fanout satisfies it. When installed via UseFanout,
// the group hands whole-group fanouts to it — one template build, one
// stamp per member, one batched transmit — instead of running the full
// point-to-point send pipeline once per member.
type FanoutSender interface {
	Send(payload []byte) error
}

// ErrNoSequencer is returned by Send in Total order when the sequencer is
// neither the local member nor joined.
var ErrNoSequencer = errors.New("group: sequencer not reachable")

// Frame kinds on the wire (first byte of every group frame).
const (
	kindFIFO      = 0 // direct fan-out data
	kindToSeq     = 1 // unsequenced data on its way to the sequencer
	kindSequenced = 2 // sequencer-ordered broadcast
)

// Frame control classes (second byte): application data or a membership
// view announcement (see views.go).
const (
	ctlApp  = 0
	ctlView = 1
)

// memberEntry is one joined peer; the group keeps entries sorted by
// name so every fanout iterates the membership in the same order on
// every member and every run.
type memberEntry struct {
	name string
	conn Conn
}

// Group is one member's view of a process group.
type Group struct {
	self      string
	order     Order
	sequencer string

	mu      sync.Mutex
	members []memberEntry // sorted by name
	fan     FanoutSender  // optional whole-group batch path
	deliver func(origin string, payload []byte)

	// interned maps origin names to their canonical string, so decoding
	// a received frame does not allocate a fresh origin per delivery.
	// Seeded from the member table; bounded against hostile frames.
	interned map[string]string

	nextSeq  uint32 // sequencer only: next global sequence number
	lastSeen uint32 // diagnostic: last sequenced number delivered

	// Sequencer only: one goroutine broadcasts at a time, and frames that
	// arrive meanwhile wait here for it (see sequenceAndBroadcast).
	broadcasting bool
	seqQueue     []queuedFrame

	view   View
	onView func(v View)

	stats Stats
}

// Stats counts group events at this member.
type Stats struct {
	Sent, Delivered   uint64
	Sequenced         uint64 // messages this member ordered (sequencer only)
	Forwarded         uint64 // messages sent to the sequencer
	FanoutUnicast     uint64 // point-to-point sends covered (batched or not)
	FanoutBatches     uint64 // whole-group fanouts handed to the batch engine
	DeliveredInOrder  uint64
	DeliveredFIFOOnly uint64
}

// maxInterned bounds the origin intern table; names past the bound are
// still delivered, just without interning (a correct group's origins all
// come from the member table anyway).
const maxInterned = 1024

// New creates this member's group view. For Total order, sequencer names
// the ordering member (which may be self).
func New(self string, order Order, sequencer string) *Group {
	g := &Group{
		self:      self,
		order:     order,
		sequencer: sequencer,
		interned:  make(map[string]string),
	}
	g.interned[self] = self
	g.interned[sequencer] = sequencer
	return g
}

// Self returns this member's name.
func (g *Group) Self() string { return g.self }

// OnDeliver installs the application delivery callback. origin names the
// member whose Send produced the payload.
func (g *Group) OnDeliver(fn func(origin string, payload []byte)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.deliver = fn
}

// Join attaches the point-to-point connection to peer and starts
// consuming its deliveries. Join every peer before sending.
func (g *Group) Join(peer string, conn Conn) {
	g.mu.Lock()
	i := sort.Search(len(g.members), func(i int) bool { return g.members[i].name >= peer })
	if i < len(g.members) && g.members[i].name == peer {
		g.members[i].conn = conn
	} else {
		g.members = append(g.members, memberEntry{})
		copy(g.members[i+1:], g.members[i:])
		g.members[i] = memberEntry{name: peer, conn: conn}
	}
	g.interned[peer] = peer
	g.mu.Unlock()
	conn.OnDeliver(func(p []byte) { g.onWire(peer, p) })
}

// UseFanout installs the whole-group batch sender (core.Fanout over this
// member's connections). The caller keeps the sender's member set in
// step with Join; a nil sender restores per-member sends.
func (g *Group) UseFanout(fs FanoutSender) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.fan = fs
}

// Members returns the joined peer names, sorted.
func (g *Group) Members() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.members))
	for _, m := range g.members {
		names = append(names, m.name)
	}
	return names
}

// Stats returns a snapshot of the counters.
func (g *Group) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Send multicasts payload to the group, including local delivery to this
// member, under the configured ordering.
func (g *Group) Send(payload []byte) error {
	g.mu.Lock()
	g.stats.Sent++
	g.mu.Unlock()
	switch g.order {
	case Total:
		return g.sendTotal(payload)
	default:
		return g.sendFIFO(payload)
	}
}

// sendFIFO fans out directly and delivers locally.
func (g *Group) sendFIFO(payload []byte) error {
	frame := getFrame(kindFIFO, ctlApp, g.self, 0, payload)
	err := g.fanout(frame.b, "")
	putFrame(frame)
	if err != nil {
		return err
	}
	g.deliverUp(g.self, payload, false)
	return nil
}

// sendTotal routes through the sequencer.
func (g *Group) sendTotal(payload []byte) error {
	return g.sendTotalCtl(ctlApp, payload)
}

func (g *Group) sendTotalCtl(ctl byte, payload []byte) error {
	if g.self == g.sequencer {
		// The sequencer orders its own messages directly.
		g.sequenceAndBroadcast(ctl, g.self, payload)
		return nil
	}
	g.mu.Lock()
	seqConn := g.lookupLocked(g.sequencer)
	g.stats.Forwarded++
	g.mu.Unlock()
	if seqConn == nil {
		return ErrNoSequencer
	}
	frame := getFrame(kindToSeq, ctl, g.self, 0, payload)
	err := seqConn.Send(frame.b)
	putFrame(frame)
	return err
}

// queuedFrame is a frame waiting for the sequencer's broadcaster.
type queuedFrame struct {
	ctl     byte
	origin  string
	payload []byte
}

// sequenceAndBroadcast assigns the next global number and fans the
// sequenced frame out to every member (origin included — it delivers at
// the sequenced position like everyone else).
//
// One goroutine broadcasts at a time, numbering each frame as it goes
// out, so every member's connection from the sequencer carries the frames
// in number order. A call that finds a broadcast in progress — another
// goroutine, or a delivery callback re-entering over a synchronous
// transport — queues a copy of its frame for the broadcaster and returns.
func (g *Group) sequenceAndBroadcast(ctl byte, origin string, payload []byte) {
	g.mu.Lock()
	if g.broadcasting {
		g.seqQueue = append(g.seqQueue, queuedFrame{ctl, origin, append([]byte(nil), payload...)})
		g.mu.Unlock()
		return
	}
	g.broadcasting = true
	for {
		seq := g.nextSeq
		g.nextSeq++
		g.stats.Sequenced++
		g.mu.Unlock()
		frame := getFrame(kindSequenced, ctl, origin, seq, payload)
		_ = g.fanout(frame.b, "")
		putFrame(frame)
		g.deliverSequenced(ctl, origin, seq, payload) // sequencer's own delivery
		g.mu.Lock()
		if len(g.seqQueue) == 0 {
			g.broadcasting = false
			g.mu.Unlock()
			return
		}
		q := g.seqQueue[0]
		g.seqQueue = append(g.seqQueue[:0], g.seqQueue[1:]...)
		ctl, origin, payload = q.ctl, q.origin, q.payload
	}
}

// lookupLocked finds a member's connection. Caller holds g.mu.
func (g *Group) lookupLocked(name string) Conn {
	i := sort.Search(len(g.members), func(i int) bool { return g.members[i].name >= name })
	if i < len(g.members) && g.members[i].name == name {
		return g.members[i].conn
	}
	return nil
}

// fanSnap is a pooled membership snapshot, so concurrent fanouts each
// iterate a stable, deterministic (sorted) member list without holding
// g.mu across sends — a member's delivery callback may re-enter the
// group — and without allocating the snapshot per send.
type fanSnap struct {
	names []string
	conns []Conn
}

var snapPool = sync.Pool{New: func() any { return new(fanSnap) }}

// fanout multicasts frame to every member except skip, in sorted member
// order, collecting every per-member failure (a partial fanout reports
// all of its losers, not just the first). A whole-group fanout (skip
// empty) is handed to the batch engine when one is installed.
func (g *Group) fanout(frame []byte, skip string) error {
	g.mu.Lock()
	if fs := g.fan; fs != nil && skip == "" {
		g.stats.FanoutUnicast += uint64(len(g.members))
		g.stats.FanoutBatches++
		g.mu.Unlock()
		return fs.Send(frame)
	}
	s := snapPool.Get().(*fanSnap)
	s.names, s.conns = s.names[:0], s.conns[:0]
	for _, m := range g.members {
		if m.name != skip {
			s.names = append(s.names, m.name)
			s.conns = append(s.conns, m.conn)
		}
	}
	g.stats.FanoutUnicast += uint64(len(s.conns))
	g.mu.Unlock()
	var errs []error
	for i, c := range s.conns {
		if err := c.Send(frame); err != nil {
			errs = append(errs, fmt.Errorf("group: fanout to %s: %w", s.names[i], err))
		}
	}
	snapPool.Put(s)
	return errors.Join(errs...)
}

// internOrigin resolves decoded origin bytes to a canonical string,
// allocating only the first time a name is seen (never for members).
func (g *Group) internOrigin(b []byte) string {
	g.mu.Lock()
	if s, ok := g.interned[string(b)]; ok { // no-alloc map probe
		g.mu.Unlock()
		return s
	}
	s := string(b)
	if len(g.interned) < maxInterned {
		g.interned[s] = s
	}
	g.mu.Unlock()
	return s
}

// onWire handles a frame arriving from peer.
func (g *Group) onWire(peer string, frame []byte) {
	kind, ctl, rawOrigin, seq, payload, err := decodeFrameBytes(frame)
	if err != nil {
		return // malformed frames are dropped, like the PA router
	}
	origin := g.internOrigin(rawOrigin)
	switch kind {
	case kindFIFO:
		// Direct fan-out frames are only meaningful in FIFO order; in
		// Total order they would bypass the sequencer.
		if g.order == FIFO && ctl == ctlApp {
			g.deliverUp(origin, payload, false)
		}
	case kindToSeq:
		if g.self == g.sequencer {
			g.sequenceAndBroadcast(ctl, origin, payload)
		}
	case kindSequenced:
		if peer != g.sequencer {
			return // sequenced frames are only valid from the sequencer
		}
		g.deliverSequenced(ctl, origin, seq, payload)
	}
}

func (g *Group) deliverSequenced(ctl byte, origin string, seq uint32, payload []byte) {
	g.mu.Lock()
	g.lastSeen = seq
	g.mu.Unlock()
	if ctl == ctlView {
		if v, err := decodeView(payload); err == nil {
			g.installView(v)
		}
		return
	}
	g.deliverUp(origin, payload, true)
}

func (g *Group) deliverUp(origin string, payload []byte, ordered bool) {
	g.mu.Lock()
	g.stats.Delivered++
	if ordered {
		g.stats.DeliveredInOrder++
	} else {
		g.stats.DeliveredFIFOOnly++
	}
	fn := g.deliver
	g.mu.Unlock()
	if fn != nil {
		fn(origin, payload)
	}
}

// Frame layout: kind(1) | ctl(1) | originLen(1) | origin | gseq(4,
// kindSequenced only) | payload.
func encodeFrame(kind, ctl byte, origin string, seq uint32, payload []byte) []byte {
	return appendFrame(nil, kind, ctl, origin, seq, payload)
}

func appendFrame(f []byte, kind, ctl byte, origin string, seq uint32, payload []byte) []byte {
	if len(origin) > 255 {
		origin = origin[:255]
	}
	f = append(f, kind, ctl, byte(len(origin)))
	f = append(f, origin...)
	if kind == kindSequenced {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], seq)
		f = append(f, b[:]...)
	}
	return append(f, payload...)
}

// framePool recycles outgoing frame buffers. Every send surface below a
// frame (core.Conn.Send, core.Fanout.Send, netsim) copies the datagram
// before returning, so a frame can go back to the pool as soon as the
// send call does.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 256)} }}

func getFrame(kind, ctl byte, origin string, seq uint32, payload []byte) *frameBuf {
	fb := framePool.Get().(*frameBuf)
	fb.b = appendFrame(fb.b[:0], kind, ctl, origin, seq, payload)
	return fb
}

func putFrame(fb *frameBuf) {
	framePool.Put(fb)
}

// decodeFrame is decodeFrameBytes with the origin copied out to a
// string, for callers that keep it.
func decodeFrame(f []byte) (kind, ctl byte, origin string, seq uint32, payload []byte, err error) {
	kind, ctl, rawOrigin, seq, payload, err := decodeFrameBytes(f)
	return kind, ctl, string(rawOrigin), seq, payload, err
}

// decodeFrameBytes parses a group frame. origin and payload alias f —
// the receive path interns origin against the member table instead of
// allocating a string per delivery.
func decodeFrameBytes(f []byte) (kind, ctl byte, origin []byte, seq uint32, payload []byte, err error) {
	if len(f) < 3 {
		return 0, 0, nil, 0, nil, fmt.Errorf("group: short frame")
	}
	kind, ctl = f[0], f[1]
	if kind > kindSequenced {
		return 0, 0, nil, 0, nil, fmt.Errorf("group: unknown kind %d", kind)
	}
	if ctl > ctlView {
		return 0, 0, nil, 0, nil, fmt.Errorf("group: unknown control class %d", ctl)
	}
	ol := int(f[2])
	rest := f[3:]
	if len(rest) < ol {
		return 0, 0, nil, 0, nil, fmt.Errorf("group: truncated origin")
	}
	origin = rest[:ol]
	rest = rest[ol:]
	if kind == kindSequenced {
		if len(rest) < 4 {
			return 0, 0, nil, 0, nil, fmt.Errorf("group: truncated sequence")
		}
		seq = binary.BigEndian.Uint32(rest)
		rest = rest[4:]
	}
	return kind, ctl, origin, seq, rest, nil
}
