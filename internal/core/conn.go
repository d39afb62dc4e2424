package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paccel/internal/bits"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/layers"
	"paccel/internal/message"
	"paccel/internal/stack"
	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

// Errors returned by Conn operations.
var (
	ErrConnClosed = errors.New("core: connection closed")
	// ErrBackpressure is the typed graceful-degradation error: the
	// engine refuses work rather than grow a queue without bound.
	// Overload errors wrap it, so callers match with
	// errors.Is(err, ErrBackpressure).
	ErrBackpressure = errors.New("core: backpressure")
	// ErrBacklogFull reports a send refused because prediction is
	// disabled (window closed) and the backlog is at MaxBacklog. It
	// wraps ErrBackpressure.
	ErrBacklogFull = fmt.Errorf("%w: send backlog full", ErrBackpressure)
	ErrSendFailed  = errors.New("core: send rejected by packet filter")
)

// postKind discriminates the deferred post-processing operations. The
// queue used to hold closures; a typed queue keeps the fast paths free of
// per-message closure allocations.
type postKind uint8

const (
	postSend    postKind = iota // stack.PostSend, then free m
	postDeliver                 // stack.PostDeliverSpan, then free m
)

// postOp is one queued post-processing step (§3.1). m and env are owned
// by the op until it runs; m is freed and env returns to the connection's
// pool after.
type postOp struct {
	kind postKind
	v    stack.Verdict // postDeliver: the pre-phase verdict of layer at
	at   int           // postDeliver: the layer that issued v (-1: Continue)
	m    *message.Msg
	env  *filter.Env
	from stack.Layer // postDeliver: the releasing layer (nil: the network)
}

// sideState is the per-direction PA state of Table 3: operation mode, the
// predicted headers and, on the send side only, the prediction disable
// counter and the backlog of messages awaiting processing (on delivery a
// frame the layers must see fails the prediction instead). The side's
// packet filter is in the connection's plan.
type sideState struct {
	mode    Mode
	predict [header.NumClasses][]byte
	disable int
	backlog []*message.Msg

	// pending is the FIFO of deferred post-processing; head indexes the
	// next op so the slice's capacity is reused instead of re-sliced
	// away (the queue is on the per-message path).
	pending []postOp
	head    int
}

func (s *sideState) pendingLen() int { return len(s.pending) - s.head }

func (s *sideState) pushPost(op postOp) { s.pending = append(s.pending, op) }

func (s *sideState) popPost() postOp {
	op := s.pending[s.head]
	s.pending[s.head] = postOp{} // drop references for the pool/GC
	s.head++
	if s.head == len(s.pending) {
		s.pending = s.pending[:0]
		s.head = 0
	}
	return op
}

// appOut is one application delivery waiting for its callback. Payloads
// are copied into the connection's scratch buffer (appBuf) so that
// post-processing may free the wire message independently; entries store
// offsets because appBuf may be reallocated by later appends.
type appOut struct {
	off, n int
}

// Conn is one Protocol Accelerator: the engine of the paper's Figure 3,
// instantiated per connection.
//
// Buffer ownership on the critical paths (see DESIGN.md "Zero-allocation
// fast paths"): wire images queued for transmission live in pooled tx
// buffers (txFree) that return to the pool once the transport's Send
// call returns; filter environments and stack contexts are pooled per
// connection and recycled when the post-processing op that owns them has
// run; application payloads are copied into appBuf, whose capacity is
// retained across deliveries.
type Conn struct {
	ep   *Endpoint
	spec PeerSpec

	mu sync.Mutex

	// addr is the peer's current transport address. It starts as
	// spec.Addr and is rewritten by peer address migration when an
	// ident-validated datagram arrives from elsewhere (NAT rebind);
	// guarded by mu (spec.Addr keeps the original for reference).
	addr string

	st *stack.Stack
	// plan is the compiled shape of st (plan.go), shared with every
	// connection of that shape: schema, filter programs, header sizes,
	// frame limit, the identification layer's index.
	plan  *plan
	ident Identifier
	// seal is the encryption layer (nil without one), found in newConn.
	seal sealer

	order bits.ByteOrder

	outCookie  uint64
	needConnID bool // next outgoing message carries the identification

	// identKeys are the identifications routed to this connection in the
	// endpoint's byIdent table, so that closing it deletes exactly those:
	// the one the peer will send in either byte order (Dial) and, for an
	// accepted connection whose spec did not match the identification
	// that created it, that identification (lookupIdent). Guarded by
	// ep.identMu.
	identKeys [3]string

	// inCookies are the incoming cookies routed to this connection in
	// the endpoint's sharded router; guarded by ep.routeMu, not c.mu.
	inCookies []uint64

	send sideState
	recv sideState

	deliverQ  []releaseItem
	appQ      []appOut
	appQSpare []appOut // recycled appQ capacity
	appBuf    []byte   // scratch backing the queued payload copies

	txq       [][]byte // wire images awaiting flushTx, pooled buffers
	txqSpare  [][]byte // recycled txq capacity
	txFree    [][]byte // transmit buffer pool
	txBusy    atomic.Bool
	txPending atomic.Int64 // queued wire images; flushTx's lock-free fast exit

	envFree     []*filter.Env    // filter environment pool
	ctxFree     []*stack.Context // phase context pool
	packScratch []byte           // packing header encode scratch
	sizeScratch []int            // packed sub-size scratch

	onDeliver func(payload []byte)
	closed    bool
	settling  bool
	txQueued  bool // a wire image was queued since the last exit
	stats     ConnStats
	// notify holds the application notifications (OnRecover, OnGiveUp,
	// OnConnFail) an operation queued; exit runs them without the lock.
	notify []func()

	// Telemetry (DESIGN.md §12). tel is nil when disabled, making every
	// instrumentation site one predictable branch. telShard spreads this
	// connection's histogram records over the recorder's shards (dial
	// order); telCount/telMask sample 1 in 2^k operation durations
	// (guarded by c.mu); telFlushCount does the same for transmit
	// flushes, which run outside c.mu but serialized under txBusy.
	tel           *telemetry.Recorder
	telShard      uint32
	telMask       uint32
	telCount      uint32
	telFlushCount uint32

	// failCause is non-nil once the connection entered the Failed state
	// (see supervise.go); it is set exactly once, under mu.
	failCause error
	// Recovery engine state (recovery.go), all guarded by mu.
	// failCause stays nil while recovering: Recovering is not Failed,
	// and datagrams must keep flowing in (one completes the recovery).
	recovering     bool
	recoverCause   error        // what started the recovery
	recoverAttempt int          // probe rounds used
	recoverHold    bool         // holds send.disable while recovering
	recoverTimer   vclock.Timer // next probe
	recoverRng     *rand.Rand   // full-jitter backoff source
	// recvActivity counts accepted incoming datagrams — dead-peer
	// detection's liveness signal, one increment per delivery, no clock
	// read on the critical path.
	recvActivity uint64
	superSeen    uint64       // recvActivity at the last supervision tick
	superTimer   vclock.Timer // dead-peer detection timer
	// backlogCond, created on first use, blocks Send when
	// Config.BlockOnBackpressure is set and the backlog is full.
	backlogCond *sync.Cond
}

type releaseItem struct {
	from stack.Layer
	m    *message.Msg
}

// sealer is an encryption layer's hook into the engine (*layers.Secure),
// discovered structurally the same way telemetry recorders are handed out.
// It is installed into every pooled filter environment, backing the
// Seal/Open filter ops; it re-seals each frame SendRaw retransmits, so
// replays of frames sealed before a rekey go out under the current key;
// it can declare an unrecoverable error (nonce exhaustion) that
// hard-fails the connection instead of riding the recovery engine; and
// its counters are the connection's SecureStats.
type sealer interface {
	filter.AEAD
	Reseal(m *message.Msg) error
	TerminalErr() error
	Stats() layers.SecureStats
}

// newConn wires up a connection: builds the stack, initializes it against
// the endpoint's stack plan (plan.go), carves the prediction buffers out of
// one block sized from the plan, and primes the layers.
func newConn(ep *Endpoint, spec PeerSpec) (*Conn, error) {
	p, st, err := ep.stackFor(spec)
	if err != nil {
		return nil, err
	}
	ls := st.Layers()
	c := &Conn{ep: ep, spec: spec, addr: spec.Addr, st: st, plan: p, ident: identifier(st, p.identIdx), order: ep.cfg.Order}
	seq := ep.connSeq.Add(1)
	c.tel = ep.cfg.Telemetry
	c.telShard = uint32(seq)
	c.telMask = ep.cfg.telemetrySampleMask()
	for _, l := range ls {
		if s, ok := l.(sealer); ok {
			c.seal = s
		}
	}
	if c.recoveryOn() {
		c.recoverRng = newRecoveryRng(ep, seq)
	}

	n := 0
	for _, sz := range p.size {
		n += sz
	}
	block := make([]byte, 2*n)
	for cl, sz := range p.size {
		// Capacity-limited, so an append can never run into a neighbour.
		c.send.predict[cl], block = block[:sz:sz], block[sz:]
		c.recv.predict[cl], block = block[:sz:sz], block[sz:]
	}

	c.outCookie = spec.OutCookie
	if c.outCookie == 0 {
		if c.outCookie, err = NewCookie(); err != nil {
			return nil, err
		}
	}
	c.needConnID = !spec.SkipFirstConnID

	// Hand the recorder to layers that report into it (window resume
	// events, stamp one-way samples). The structural assertion keeps the
	// stack contract unchanged: layers that do not know telemetry exists
	// are untouched.
	if c.tel != nil {
		for _, l := range ls {
			if ts, ok := l.(interface {
				SetTelemetry(*telemetry.Recorder, uint64, uint32)
			}); ok {
				ts.SetTelemetry(c.tel, c.outCookie, c.telShard)
			}
		}
	}

	ctx := c.ctx(nil)
	st.Prime(ctx)
	c.putCtx(ctx)

	c.startSupervision()
	return c, nil
}

// ctx builds a phase context around the (possibly nil) message env.
// Contexts are pooled: callers putCtx them back when the phase call
// returns. A layer must not retain a Context past the phase call (the
// stable fields — Order, the prediction buffers, S — may be copied out,
// as Prime already does).
func (c *Conn) ctx(env *filter.Env) *stack.Context {
	var x *stack.Context
	if n := len(c.ctxFree); n > 0 {
		x = c.ctxFree[n-1]
		c.ctxFree = c.ctxFree[:n-1]
	} else {
		x = &stack.Context{
			Order:       c.order,
			PredictSend: c.send.predict,
			PredictRecv: c.recv.predict,
			S:           c,
		}
	}
	x.Env = env
	return x
}

func (c *Conn) putCtx(x *stack.Context) {
	x.Env = nil
	if len(c.ctxFree) < 16 {
		c.ctxFree = append(c.ctxFree, x)
	}
}

// getEnv returns a cleared filter environment from the connection pool.
func (c *Conn) getEnv() *filter.Env {
	var e *filter.Env
	if n := len(c.envFree); n > 0 {
		e = c.envFree[n-1]
		c.envFree = c.envFree[:n-1]
	} else {
		e = &filter.Env{}
	}
	if c.seal != nil {
		e.AEAD = c.seal
	}
	return e
}

// putEnv recycles an environment once no queued op references it.
func (c *Conn) putEnv(e *filter.Env) {
	if e == nil {
		return
	}
	*e = filter.Env{}
	if len(c.envFree) < 64 {
		c.envFree = append(c.envFree, e)
	}
}

// takeTxBuf returns a transmit buffer of length n from the pool.
func (c *Conn) takeTxBuf(n int) []byte {
	for k := len(c.txFree); k > 0; k = len(c.txFree) {
		b := c.txFree[k-1]
		c.txFree = c.txFree[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
		// Undersized leftover from before a larger message size; drop
		// it and keep looking.
	}
	return make([]byte, n)
}

// putTxBuf returns a transmit buffer to the pool, bounding both the pool
// size and the largest buffer kept.
func (c *Conn) putTxBuf(b []byte) {
	if cap(b) > 64<<10 || len(c.txFree) >= 64 {
		return
	}
	c.txFree = append(c.txFree, b[:0])
}

// Spec returns the connection's peer specification.
func (c *Conn) Spec() PeerSpec { return c.spec }

// RemoteAddr returns the peer's current transport address: Spec().Addr
// unless peer address migration has followed the peer elsewhere.
func (c *Conn) RemoteAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// Schema exposes the compiled header schema (for reports).
func (c *Conn) Schema() *header.Schema { return c.plan.schema }

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Layers returns the connection's stack layers, in stack order. Callers
// may read layer statistics; mutating a live layer is not supported.
func (c *Conn) Layers() []stack.Layer {
	return c.st.Layers()
}

// SecureStats returns the encryption layer's counters, and whether the
// connection's stack has one (StackOptions.Secure). Snapshot while the
// connection is quiescent.
func (c *Conn) SecureStats() (layers.SecureStats, bool) {
	if c.seal == nil {
		return layers.SecureStats{}, false
	}
	return c.seal.Stats(), true
}

// Modes returns the Table 3 operation modes of the two sides.
func (c *Conn) Modes() (send, recv Mode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.send.mode, c.recv.mode
}

// OnDeliver installs the application delivery callback. The payload slice
// is only valid during the callback. The callback runs without the
// connection lock, so it may call Send.
func (c *Conn) OnDeliver(fn func(payload []byte)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onDeliver = fn
}

// Send transmits an application message — the paper's send() (Fig. 3).
// If prediction is disabled (window full), the message joins the backlog
// and is packed with its neighbours once the window reopens (§3.4). A
// full backlog surfaces backpressure: ErrBacklogFull by default, or a
// blocking wait with Config.BlockOnBackpressure.
func (c *Conn) Send(payload []byte) error {
	if err := c.enter(gateSend); err != nil {
		return err
	}
	err := c.sendLocked(message.New(payload), c.ep.cfg.BlockOnBackpressure)
	c.exit()
	return err
}

// sendLocked is Send between enter and exit; it owns m. A message never
// overtakes the backlog: while the window is closed, or reopened with
// messages still waiting, it joins the backlog, which the enclosing exit
// packs out. block selects waiting over ErrBacklogFull when the backlog
// is full.
func (c *Conn) sendLocked(m *message.Msg, block bool) error {
	for c.send.disable > 0 && len(c.send.backlog) >= c.ep.cfg.maxBacklog() {
		err := ErrBacklogFull
		if block {
			c.blockCond().Wait()
			// Whoever woke us may have dropped c.mu for a callback with
			// post-processing still queued: enter again.
			err = c.enterLocked(gateSend)
		}
		if err != nil {
			m.Free()
			return err
		}
	}
	c.stats.Sent++
	if c.send.disable > 0 || len(c.send.backlog) > 0 {
		c.send.backlog = append(c.send.backlog, m)
		c.stats.Backlogged++
		return nil
	}
	err := c.sendMsg(m, nil)
	if err != nil {
		if terr := c.terminalErr(); terr != nil {
			// The layer declared the failure unrecoverable (nonce space
			// exhausted): recovery would rekey and mask the guard.
			c.failLocked(terr)
			return terr
		}
	}
	return err
}

// terminalErr is the encryption layer's unrecoverable error (nonce space
// exhausted) once it has declared one; nil otherwise or without one.
func (c *Conn) terminalErr() error {
	if c.seal == nil {
		return nil
	}
	return c.seal.TerminalErr()
}

// gate is the state check an entry into the connection runs first.
type gate uint8

const (
	gateAny     gate = iota // every state (Flush)
	gateLive                // not closed, not failed (timers, Fail)
	gateDeliver             // gateLive, counting a datagram for a failed connection as dropped
	gateSend                // gateLive, and the endpoint not draining for Shutdown
)

// enter is the one way into a connection. It takes c.mu and runs g's
// check — on refusal it releases c.mu and returns why — then completes
// both sides' pending post-processing (§3.1: "before the next send or
// delivery operation"). Both sides, because a layer's state is not split
// by direction: the window's acknowledgements ride the other direction's
// frames. Every successful enter is paired with one exit.
func (c *Conn) enter(g gate) error {
	c.mu.Lock()
	if err := c.admit(g); err != nil {
		c.mu.Unlock()
		return err
	}
	c.drain()
	return nil
}

// enterLocked is enter for a caller that holds c.mu: a sender woken from
// a backpressure wait, which released c.mu while it slept.
func (c *Conn) enterLocked(g gate) error {
	if err := c.admit(g); err != nil {
		return err
	}
	c.drain()
	return nil
}

// admit runs g's state check. Caller holds c.mu.
func (c *Conn) admit(g gate) error {
	if g == gateAny {
		return nil
	}
	if c.closed || (g == gateSend && c.ep.draining.Load()) {
		return ErrConnClosed
	}
	if c.failCause != nil {
		if g == gateDeliver {
			// A failed connection keeps its routes until Close so late
			// datagrams are accounted here rather than as router noise.
			c.stats.Dropped++
		}
		return c.failCause
	}
	return nil
}

// exit ends an operation entered with enter: it settles what the
// operation made runnable, releases c.mu, transmits the wire images the
// operation queued, and only then runs the notifications it queued
// (callbacks never run under the connection lock). An operation that
// queued nothing leaves the transmit queue to the operations that did —
// each flushes its own — rather than take over their transmissions.
func (c *Conn) exit() {
	c.settle()
	flush, notify := c.txQueued, c.notify
	if flush {
		c.txQueued = false
	}
	if notify != nil {
		c.notify = nil
	}
	c.mu.Unlock()
	if flush {
		c.flushTx()
	}
	for _, fn := range notify {
		fn()
	}
}

// blockCond lazily creates the backpressure wait condition. Caller holds
// c.mu.
func (c *Conn) blockCond() *sync.Cond {
	if c.backlogCond == nil {
		c.backlogCond = sync.NewCond(&c.mu)
	}
	return c.backlogCond
}

// wakeBlocked releases senders blocked on backpressure (the backlog
// shrank, or the connection closed or failed). Caller holds c.mu.
func (c *Conn) wakeBlocked() {
	if c.backlogCond != nil {
		c.backlogCond.Broadcast()
	}
}

// sendMsg runs the send path for a message whose payload is final. sizes
// is nil for a plain message or the packed sub-sizes. Caller holds c.mu.
func (c *Conn) sendMsg(m *message.Msg, sizes []int) error {
	t0 := c.telStart()
	c.send.mode = Pre
	defer func() { c.send.mode = Idle }()

	// Push the packing header and the class header regions (wire order:
	// proto, msg, gossip, packing — push reversed).
	if len(sizes) <= 1 {
		m.Push(1)[0] = packSingle
	} else {
		c.packScratch = encodePacking(c.packScratch[:0], sizes)
		m.PushBytes(c.packScratch)
	}
	size := &c.plan.size
	gos := m.Push(size[header.Gossip])
	msgRegion := m.Push(size[header.MsgSpec])
	proto := m.Push(size[header.ProtoSpec])

	env := c.getEnv()
	env.Payload = m.Payload()
	env.Order = c.order
	env.Time = c.envTime()
	env.Hdr[header.ProtoSpec] = proto
	env.Hdr[header.MsgSpec] = msgRegion
	env.Hdr[header.Gossip] = gos

	// A payload over the stack's declared frame limit goes to the layers,
	// which split it (§6), before any filter runs.
	if len(env.Payload) > c.plan.maxPayload {
		err := c.sendSlow(m, env)
		c.telEnd(telemetry.OpSendPre, t0)
		return err
	}

	// Fast path: copy the predicted headers over the regions, then let
	// the send packet filter fill in the message-specific information.
	copy(proto, c.send.predict[header.ProtoSpec])
	copy(msgRegion, c.send.predict[header.MsgSpec])
	copy(gos, c.send.predict[header.Gossip])
	if status := c.plan.send.Run(env); status != filter.StatusOK {
		c.telEnd(telemetry.OpSendPre, t0)
		return c.refuse(m, env, status)
	}
	c.transmit(m)
	c.stats.FastSends++
	c.queuePostSend(m, env)
	c.telEnd(telemetry.OpSendPre, t0)
	return nil
}

// sendSlow is the layered path: every layer's pre-send builds the zeroed
// header regions, then the send filter fills in the message-specific
// fields, as for a control message.
func (c *Conn) sendSlow(m *message.Msg, env *filter.Env) error {
	ctx := c.ctx(env)
	v, _ := c.st.PreSend(ctx, m)
	c.putCtx(ctx)
	switch v {
	case stack.Continue:
		if status := c.plan.send.Run(env); status != filter.StatusOK {
			return c.refuse(m, env, status)
		}
		c.transmit(m)
		c.stats.SlowSends++
		c.queuePostSend(m, env)
		return nil
	case stack.Consume:
		// A layer took over (fragmentation); the original is done.
		c.stats.SlowSends++
		m.Free()
		c.putEnv(env)
		return nil
	default:
		m.Free()
		c.putEnv(env)
		c.stats.SendErrors++
		return ErrSendFailed
	}
}

// refuse drops a message the send filter failed with status: on the send
// path every status but StatusOK is a send error.
func (c *Conn) refuse(m *message.Msg, env *filter.Env, status int) error {
	m.Free()
	c.putEnv(env)
	c.stats.SendErrors++
	return fmt.Errorf("%w (status %d)", ErrSendFailed, status)
}

// queuePostSend schedules the send post-processing (§3.1): it runs in the
// enclosing settle pass, after the wire image is queued and before the
// transmit flush. The op owns m and env until it runs.
func (c *Conn) queuePostSend(m *message.Msg, env *filter.Env) {
	c.send.pushPost(postOp{kind: postSend, m: m, env: env})
}

// transmit prepends the preamble (and connection identification when due)
// and queues the wire image; flushTx sends it outside the lock. The
// message's regions are restored afterwards.
func (c *Conn) transmit(m *message.Msg) {
	withCID := c.needConnID
	c.transmitAs(m, withCID)
	if withCID {
		c.needConnID = false
	}
}

func (c *Conn) transmitAs(m *message.Msg, withCID bool) {
	if withCID {
		m.PushBytes(c.send.predict[header.ConnID])
		c.stats.ConnIDSent++
	}
	pre := Preamble{ConnIDPresent: withCID, Order: c.order, Cookie: c.outCookie}
	pre.EncodeTo(m.Push(PreambleSize))
	wire := m.Bytes()
	buf := c.takeTxBuf(len(wire))
	copy(buf, wire)
	c.txq = append(c.txq, buf)
	c.txPending.Add(1)
	c.txQueued = true
	if _, err := m.Pop(PreambleSize); err != nil {
		panic("core: preamble pop: " + err.Error())
	}
	if withCID {
		if _, err := m.Pop(c.plan.size[header.ConnID]); err != nil {
			panic("core: conn-ident pop: " + err.Error())
		}
	}
}

// flushTx drains the transmit queue outside the connection lock. It is
// reentrancy-safe: a nested call (synchronous transport delivering a
// reply) just leaves its datagrams for the active flusher. Sent buffers
// return to the connection's transmit pool.
func (c *Conn) flushTx() {
	for {
		// Lock-free exit for the common delivery that transmitted
		// nothing: the counter is only incremented under c.mu before the
		// enqueuer itself calls flushTx, so a zero read here means this
		// caller has no datagrams of its own waiting.
		if c.txPending.Load() == 0 {
			return
		}
		if !c.txBusy.CompareAndSwap(false, true) {
			return
		}
		for {
			c.mu.Lock()
			if len(c.txq) == 0 {
				c.mu.Unlock()
				break
			}
			q := c.txq
			// Swap in the recycled queue slice so nested transmits
			// (a synchronous transport delivering a reply that sends)
			// append without reallocating.
			c.txq = c.txqSpare
			c.txqSpare = nil
			c.txPending.Add(int64(-len(q)))
			// The peer's current address is read under the lock:
			// address migration may rewrite it concurrently.
			dst := c.addr
			c.mu.Unlock()
			sendErrs := c.sendQueued(dst, q)
			c.mu.Lock()
			if sendErrs > 0 {
				c.stats.SendErrors += uint64(sendErrs)
			}
			for i := range q {
				c.putTxBuf(q[i])
				q[i] = nil
			}
			if c.txq == nil {
				c.txq = q[:0]
			} else {
				c.txqSpare = q[:0]
			}
			c.mu.Unlock()
		}
		c.txBusy.Store(false)
		c.mu.Lock()
		again := len(c.txq) > 0
		c.mu.Unlock()
		if !again {
			return
		}
	}
}

// sendQueued transmits one drained tx queue to dst and returns how many
// datagrams the transport refused. With a BatchTransport the whole queue
// goes down in one SendBatch call (one sendmmsg on the Linux UDP path) —
// the same amortization the PA applies to layer overhead, one level
// lower. A failed datagram is skipped and the rest of the queue is
// re-batched, so one refused wire image never blocks the burst behind
// it. Runs without c.mu (transport sends may deliver synchronously).
func (c *Conn) sendQueued(dst string, q [][]byte) (sendErrs int) {
	// Flush spans sample through their own counter: sendQueued runs
	// outside c.mu, but the txBusy flag serializes flushers, so the
	// plain counter is race-free.
	var t0 time.Time
	if c.tel != nil {
		c.telFlushCount++
		if c.telFlushCount&c.telMask == 0 {
			t0 = time.Now()
		}
	}
	ep := c.ep
	st := ep.stats.stripe(uint64(c.telShard))
	if bt := ep.batch; bt != nil && len(q) > 1 {
		if co := ep.coalescer; co != nil && len(q) <= shapeMaxQueue && co.Coalescible() {
			shapeCoalescible(q)
		}
		for rest := q; len(rest) > 0; {
			n, err := bt.SendBatch(dst, rest)
			if n < 0 {
				n = 0
			}
			if n > len(rest) {
				n = len(rest)
			}
			st.batchSends.Add(1)
			st.batchDatagrams.Add(uint64(n))
			if err == nil {
				break
			}
			// The datagram at index n failed; skip it, batch the rest.
			sendErrs++
			if n+1 >= len(rest) {
				break
			}
			rest = rest[n+1:]
		}
	} else {
		for _, d := range q {
			if err := ep.cfg.Transport.Send(dst, d); err != nil {
				sendErrs++
			}
		}
	}
	if sendErrs > 0 {
		st.txErrors.Add(uint64(sendErrs))
	}
	if !t0.IsZero() {
		c.tel.Record(telemetry.OpFlush, c.telShard, time.Since(t0))
	}
	return sendErrs
}

// shapeMaxQueue bounds the drains shapeCoalescible touches: past a few
// hundred wire images the O(n²) worst case of the in-place grouping
// would cost more than the super-datagrams save.
const shapeMaxQueue = 256

// shapeCoalescible groups the drained tx queue's equal-size wire images
// into contiguous runs, in place and without allocating, so the
// transport's UDP_SEGMENT coalescer (core.Coalescer) sees the maximal
// runs it can merge into super-datagrams. Grouping is stable per size
// class — datagrams of one size keep their relative order, which keeps
// each message's fragments in sequence — but datagrams of different
// sizes may reorder across the drain, which the unreliable-datagram
// contract already permits (the window layer reorders worse). It runs
// only while the transport reports Coalescible, so loop-path and netsim
// transmissions keep their exact queue order.
func shapeCoalescible(q [][]byte) {
	for i := 0; i < len(q); {
		size := len(q[i])
		j := i + 1 // end of the contiguous run being grown
		for k := j; k < len(q); k++ {
			if len(q[k]) != size {
				continue
			}
			if k != j {
				// Rotate q[j:k+1] right one slot, moving q[k] to the run's
				// end without disturbing the relative order of the rest.
				d := q[k]
				copy(q[j+1:k+1], q[j:k])
				q[j] = d
			}
			j++
		}
		i = j
	}
}

// deliverIncoming is the paper's from_network() (Fig. 3) past the router:
// the preamble is already popped; cid is the identification region or
// nil; src is the transport source address, consulted for peer address
// migration.
func (c *Conn) deliverIncoming(m *message.Msg, cid []byte, order bits.ByteOrder, src string) {
	if c.enter(gateDeliver) != nil {
		m.Free()
		return
	}
	t0 := c.telStart()
	c.recvActivity++
	c.settle() // finish releases unblocked by the post-processing enter ran

	env, sizes, err := c.parseWire(m, cid, order)
	if err != nil {
		c.stats.Dropped++
		c.exit()
		m.Free()
		return
	}

	if st := c.plan.recv.Run(env); st != filter.StatusOK {
		// The delivery filter checks message-specific correctness;
		// failures drop the message (checksum mismatch).
		c.stats.Dropped++
		c.putEnv(env)
		c.exit()
		m.Free()
		return
	}

	// A datagram that passes the delivery filter while the connection
	// is recovering completes the recovery: the peer is reachable
	// again.
	if c.recovering {
		c.finishRecoveryLocked()
	}

	fast := cid == nil &&
		order == c.order &&
		bytes.Equal(env.Hdr[header.ProtoSpec], c.recv.predict[header.ProtoSpec])

	if fast {
		c.stats.FastDelivers++
		c.acceptDelivery(m, env, sizes, stack.Continue, -1, nil)
	} else {
		c.stats.SlowDelivers++
		c.recv.mode = Pre
		ctx := c.ctx(env)
		v, at := c.st.PreDeliver(ctx, m)
		c.putCtx(ctx)
		c.recv.mode = Idle
		// Peer address migration: the route follows a peer whose
		// source address changed (NAT rebind, endpoint restart) only
		// when the datagram carried the connection identification AND
		// the identification layer vetted it. Delivery runs bottom to
		// top, so any verdict issued above the identification layer
		// (at < identIdx; Continue reports -1) means identification
		// passed — replayed duplicates the window drops still migrate.
		if cid != nil && src != "" && src != c.addr && at < c.plan.identIdx {
			c.addr = src
			c.stats.PeerMigrations++
			c.tel.Event(telemetry.EventMigration, c.outCookie, "peer address migrated to "+src)
		}
		c.acceptDelivery(m, env, sizes, v, at, nil)
	}
	c.settle()
	c.telEnd(telemetry.OpDeliver, t0)
	c.exit()
}

// acceptDelivery acts on the delivery pre-phases' verdict v, issued by
// layer at: on Continue it queues the message's application payload(s) —
// unpacking if packed (§3.4). Either way it schedules the post-processing
// of the layers the message reached, the consuming layer included. from
// is non-nil when re-entering above a releasing layer. The queued op owns
// m and env.
func (c *Conn) acceptDelivery(m *message.Msg, env *filter.Env, sizes []int, v stack.Verdict, at int, from stack.Layer) {
	switch v {
	case stack.Continue:
		if sizes == nil {
			c.queueApp(env.Payload)
			break
		}
		off := 0
		for _, sz := range sizes {
			c.queueApp(env.Payload[off : off+sz])
			off += sz
		}
		c.stats.PackedMsgs += uint64(len(sizes))
	case stack.Consume:
		c.stats.Consumed++
	default:
		c.stats.Dropped++
	}
	c.recv.pushPost(postOp{kind: postDeliver, v: v, at: at, m: m, env: env, from: from})
}

// queueApp copies one application payload into the scratch buffer and
// queues its callback.
func (c *Conn) queueApp(payload []byte) {
	off := len(c.appBuf)
	c.appBuf = append(c.appBuf, payload...)
	c.appQ = append(c.appQ, appOut{off: off, n: len(payload)})
	c.stats.Delivered++
}

// parseWire computes the header region views of a received message without
// consuming it (buffered messages are re-parsed at release time). The
// returned env comes from the connection pool; on error it has already
// been recycled.
func (c *Conn) parseWire(m *message.Msg, cid []byte, order bits.ByteOrder) (*filter.Env, []int, error) {
	b := m.Bytes()
	protoN, msgN := c.plan.size[header.ProtoSpec], c.plan.size[header.MsgSpec]
	fixed := protoN + msgN + c.plan.size[header.Gossip]
	if len(b) < fixed+1 {
		return nil, nil, fmt.Errorf("core: short message: %d bytes", len(b))
	}
	sizes, pkLen, err := decodePacking(b[fixed:])
	if err != nil {
		return nil, nil, err
	}
	payload := b[fixed+pkLen:]
	if err := checkPackedSizes(sizes, len(payload)); err != nil {
		return nil, nil, err
	}
	env := c.getEnv()
	env.Order = order
	env.Time = c.envTime()
	env.Hdr[header.ConnID] = cid
	env.Hdr[header.ProtoSpec] = b[:protoN]
	env.Hdr[header.MsgSpec] = b[protoN : protoN+msgN]
	env.Hdr[header.Gossip] = b[protoN+msgN : fixed]
	env.Payload = payload
	return env, sizes, nil
}

// settle processes everything the operation made runnable: application
// callbacks (without the lock), releases from buffering layers, post-
// processing, and the packed backlog. Caller holds c.mu; settle returns
// with it held. A nested settle (a callback's operation) leaves the work
// to the outer loop.
func (c *Conn) settle() {
	if c.settling || len(c.appQ)|len(c.deliverQ)|len(c.recv.pending)|len(c.send.pending) == 0 &&
		(c.send.disable > 0 || len(c.send.backlog) == 0) {
		return // nested, or nothing runnable (an emptied post queue has length 0, see drain)
	}
	c.settling = true
	defer func() { c.settling = false }()
	for {
		switch {
		case len(c.appQ) > 0:
			q := c.appQ
			c.appQ = c.appQSpare
			c.appQSpare = nil
			buf := c.appBuf // views stay valid even if appBuf reallocates
			cb := c.onDeliver
			c.mu.Unlock()
			if cb != nil {
				for _, out := range q {
					cb(buf[out.off : out.off+out.n])
				}
			}
			c.mu.Lock()
			if c.appQ == nil {
				c.appQ = q[:0]
			} else if c.appQSpare == nil {
				c.appQSpare = q[:0]
			}
		case c.recv.pendingLen() > 0:
			// Before the next release: a consuming layer's
			// post-phase (reassembly) delivers in place.
			c.runOnePost(&c.recv)
		case len(c.deliverQ) > 0:
			item := c.deliverQ[0]
			c.deliverQ = c.deliverQ[1:]
			c.release(item)
		case c.send.pendingLen() > 0:
			c.runOnePost(&c.send)
		case c.send.disable == 0 && len(c.send.backlog) > 0:
			c.kickBacklog()
		default:
			// Quiescent: no callback is active (nested settles
			// never process appQ), so the scratch can be reused.
			if cap(c.appBuf) > 64<<10 {
				c.appBuf = nil
			} else {
				c.appBuf = c.appBuf[:0]
			}
			return
		}
	}
}

// release re-enters the delivery path above a layer that had buffered m.
func (c *Conn) release(item releaseItem) {
	env, sizes, err := c.parseWire(item.m, nil, item.m.Order)
	if err != nil {
		c.stats.Dropped++
		item.m.Free()
		return
	}
	c.recv.mode = Pre
	ctx := c.ctx(env)
	v, at := c.st.DeliverAbove(ctx, item.m, item.from)
	c.putCtx(ctx)
	c.recv.mode = Idle
	c.acceptDelivery(item.m, env, sizes, v, at, item.from)
}

// drain runs both sides' pending post-processing to completion, receive
// side first as in settle. Only enter calls it; with both queues empty,
// the common case, it is one inlined test (popPost rewinds an emptied
// queue, so its length is zero exactly when nothing is pending). Caller
// holds c.mu.
func (c *Conn) drain() {
	if len(c.recv.pending)|len(c.send.pending) != 0 {
		c.drainAll()
	}
}

func (c *Conn) drainAll() {
	t0 := c.telStart()
	for {
		switch {
		case c.recv.pendingLen() > 0:
			c.runOnePost(&c.recv)
		case c.send.pendingLen() > 0:
			c.runOnePost(&c.send)
		default:
			c.telEnd(telemetry.OpPost, t0)
			return
		}
	}
}

func (c *Conn) runOnePost(s *sideState) {
	op := s.popPost()
	c.stats.PostRuns++
	switch op.kind {
	case postSend:
		c.send.mode = Post
		ctx := c.ctx(op.env)
		c.st.PostSend(ctx, op.m)
		c.putCtx(ctx)
		c.send.mode = Idle
		op.m.Free()
		c.putEnv(op.env)
	case postDeliver:
		c.recv.mode = Post
		ctx := c.ctx(op.env)
		c.st.PostDeliverSpan(ctx, op.m, op.v, op.at, op.from)
		c.putCtx(ctx)
		c.recv.mode = Idle
		op.m.Free()
		c.putEnv(op.env)
	}
}

// Flush runs all outstanding post-processing and transmissions.
func (c *Conn) Flush() {
	if c.enter(gateAny) == nil {
		c.exit()
	}
}

// kickBacklog packs and sends backlogged messages (§3.4). Caller holds
// c.mu; prediction must be enabled and no post-processing pending —
// settle reaches it only once both queues are empty, so the window has
// advanced past the previous send. Batches are bounded by count and by
// total payload bytes: a packed message must stay under the stack's
// declared frame limit (the fragmentation threshold, plan.maxPayload), or
// splitting it would destroy the packing structure.
func (c *Conn) kickBacklog() {
	n := len(c.send.backlog)
	if n > c.ep.maxPack {
		n = c.ep.maxPack
	}
	maxBytes := c.plan.maxPayload
	total := 0
	fit := 0
	for fit < n {
		sz := c.send.backlog[fit].PayloadLen()
		if fit > 0 && total+sz > maxBytes {
			break
		}
		total += sz
		fit++
	}
	n = fit
	batch := c.send.backlog[:n]
	c.send.backlog = c.send.backlog[n:]
	c.wakeBlocked()

	if n == 1 {
		m := batch[0]
		_ = c.sendMsg(m, nil)
		return
	}
	c.sizeScratch = c.sizeScratch[:0]
	for _, m := range batch {
		c.sizeScratch = append(c.sizeScratch, m.PayloadLen())
	}
	packed := message.NewWithHeadroom(nil, message.DefaultHeadroom)
	for _, m := range batch {
		packed.AppendPayload(m.Payload())
		m.Free()
	}
	c.stats.PackedBatches++
	c.stats.PackedMsgs += uint64(n)
	_ = c.sendMsg(packed, c.sizeScratch)
}

// Close tears the connection down: timers stopped, routes removed,
// blocked senders released.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.teardownLocked()
	c.send.pending, c.send.head = nil, 0
	c.recv.pending, c.recv.head = nil, 0
	c.tel.Event(telemetry.EventState, c.outCookie, "closed")
	c.mu.Unlock()
	c.ep.removeConn(c)
	return nil
}

// teardownLocked is the one teardown, shared by Close and failLocked: the
// dead-peer and recovery timers stopped, every layer that holds resources
// (io.Closer) closed, the backlog and the release queue freed, blocked
// senders woken. Caller holds c.mu.
func (c *Conn) teardownLocked() {
	c.stopSupervision()
	c.cancelRecoveryLocked()
	for _, l := range c.st.Layers() {
		if cl, ok := l.(io.Closer); ok {
			cl.Close()
		}
	}
	for _, m := range c.send.backlog {
		m.Free()
	}
	c.send.backlog = nil
	for _, it := range c.deliverQ {
		it.m.Free()
	}
	c.deliverQ = nil
	c.wakeBlocked()
}

func (c *Conn) nowMicros() uint64 {
	return uint64(c.ep.cfg.clock().Now().UnixNano() / int64(time.Microsecond))
}

// envTime supplies Env.Time: the clock is only read when some filter
// program consumes the timestamp (Program.UsesTime) — a clock read per
// message is measurable on the fast paths.
func (c *Conn) envTime() uint64 {
	if !c.plan.usesTime {
		return 0
	}
	return c.nowMicros()
}

// telStart opens a sampled telemetry span: with telemetry enabled it
// counts the operation and, for one in every 2^k of them
// (Config.TelemetrySampleEvery), reads the wall clock and returns a
// non-zero start time for telEnd. Disabled, it costs one predictable
// branch and never touches the clock — histogram durations are real
// execution times, so the virtual clock cannot supply them. Caller
// holds c.mu.
func (c *Conn) telStart() (t0 time.Time) {
	if c.tel != nil {
		c.telCount++
		if c.telCount&c.telMask == 0 {
			t0 = time.Now()
		}
	}
	return
}

// telStartAlways opens an unsampled span, for rare operations (recovery
// probes) where every observation matters.
func (c *Conn) telStartAlways() (t0 time.Time) {
	if c.tel != nil {
		t0 = time.Now()
	}
	return
}

// telEnd closes a span opened by telStart/telStartAlways, recording the
// elapsed wall time when the operation was sampled.
func (c *Conn) telEnd(op telemetry.Op, t0 time.Time) {
	if !t0.IsZero() {
		c.tel.Record(op, c.telShard, time.Since(t0))
	}
}

// ---- stack.Services implementation (caller always holds c.mu) ----

// Clock implements stack.Services.
func (c *Conn) Clock() vclock.Clock { return c.ep.cfg.clock() }

// AfterFunc implements stack.Services: the callback enters the
// connection like any other operation — under the lock, after pending
// post-processing — and is skipped once the connection is closed or
// failed.
func (c *Conn) AfterFunc(d time.Duration, f func()) vclock.Timer {
	return c.ep.cfg.clock().AfterFunc(d, func() {
		if c.enter(gateLive) != nil {
			return
		}
		f()
		c.exit()
	})
}

// DisableSend implements stack.Services (§3.2).
func (c *Conn) DisableSend() { c.send.disable++ }

// EnableSend implements stack.Services; the backlog is kicked by the
// enclosing settle pass.
func (c *Conn) EnableSend() {
	if c.send.disable > 0 {
		c.send.disable--
	}
}

// SendControl implements stack.Services: a layer-generated message (§3.2)
// traverses only the layers below the originator, then the send filter.
func (c *Conn) SendControl(from stack.Layer, m *message.Msg, opts stack.ControlOpts) error {
	if c.closed {
		return ErrConnClosed
	}
	if c.failCause != nil {
		return c.failCause
	}
	m.Push(1)[0] = packSingle
	size := &c.plan.size
	gos := m.Push(size[header.Gossip])
	msgRegion := m.Push(size[header.MsgSpec])
	proto := m.Push(size[header.ProtoSpec])
	env := c.getEnv()
	env.Payload = m.Payload()
	env.Order = c.order
	env.Time = c.envTime()
	env.Hdr[header.ProtoSpec] = proto
	env.Hdr[header.MsgSpec] = msgRegion
	env.Hdr[header.Gossip] = gos
	if opts.Build != nil {
		opts.Build(env)
	}
	ctx := c.ctx(env)
	if v, _ := c.st.ControlSend(ctx, m, from); v != stack.Continue {
		c.putCtx(ctx)
		c.putEnv(env)
		m.Free()
		return fmt.Errorf("core: control message rejected below %s", from.Name())
	}
	if st := c.plan.send.Run(env); st != filter.StatusOK {
		c.putCtx(ctx)
		c.putEnv(env)
		m.Free()
		return fmt.Errorf("%w: control message (status %d)", ErrSendFailed, st)
	}
	c.transmitAs(m, opts.IncludeConnID || c.needConnID)
	c.needConnID = false
	c.stats.ControlMsgs++
	c.st.ControlPostSend(ctx, m, from)
	c.putCtx(ctx)
	c.putEnv(env)
	m.Free()
	return nil
}

// SendRaw implements stack.Services: retransmit a fully built frame. With
// an encryption layer in the stack the frame may have been sealed under an
// epoch that a session resumption has since retired; the layer's Reseal
// re-seals it under the current key (a fresh nonce — GCM forbids reuse)
// before it hits the wire.
func (c *Conn) SendRaw(m *message.Msg, includeConnID bool) error {
	if c.closed {
		return ErrConnClosed
	}
	if c.failCause != nil {
		return c.failCause
	}
	if c.seal != nil {
		if err := c.seal.Reseal(m); err != nil {
			if terr := c.terminalErr(); terr != nil {
				// Not failed here: SendRaw runs inside a layer (the
				// window's resend loop), which must not have its layers
				// closed under it. The next Send surfaces the terminal
				// error and fails the connection.
				return terr
			}
			return err
		}
	}
	c.transmitAs(m, includeConnID)
	c.stats.Retransmits++
	return nil
}

// EnqueueDeliver implements stack.Services. A synthetic message
// (reassembled fragments, no wire headers) goes to the application in
// place, ahead of the releases already queued.
func (c *Conn) EnqueueDeliver(from stack.Layer, m *message.Msg) {
	if m.Synthetic {
		c.queueApp(m.Payload())
		m.Free()
		return
	}
	c.deliverQ = append(c.deliverQ, releaseItem{from: from, m: m})
}

// DebugString renders the per-connection PA state of the paper's Table 3:
// operation modes, the predicted headers, the send disable counter and
// backlog, pending post-processing, and the packet filter geometries.
func (c *Conn) DebugString() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "protocol accelerator for %s (cookie %#x, conn-ident due: %v)\n",
		c.spec.Addr, c.outCookie, c.needConnID)
	side := func(name string, s *sideState, filterLen int) {
		fmt.Fprintf(&b, "  %-8s mode=%-4s pending-post=%d", name, s.mode, s.pendingLen())
		if name == "send" {
			fmt.Fprintf(&b, " disable=%d backlog=%d", s.disable, len(s.backlog))
		}
		fmt.Fprintf(&b, " filter=%d instrs\n", filterLen)
		fmt.Fprintf(&b, "           predicted proto-spec %x  gossip %x\n",
			s.predict[header.ProtoSpec], s.predict[header.Gossip])
	}
	side("send", &c.send, c.plan.send.Len())
	side("recv", &c.recv, c.plan.recv.Len())
	return b.String()
}
