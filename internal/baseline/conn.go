package baseline

import (
	"io"
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

// netOrder is the baseline's fixed wire byte order ("network byte order").
const netOrder = bits.BigEndian

// Conn is a traditionally layered connection: same layers, no
// acceleration.
type Conn struct {
	ep        *Endpoint
	spec      core.PeerSpec
	remoteKey string

	mu sync.Mutex

	st      *stack.Stack
	schema  *header.Schema
	hdrSize int
	// sendF and recvF are the layers' packet filters, compiled against
	// the layered schema: the only code for message-specific fields.
	sendF, recvF *filter.Program
	// identRanges are the byte ranges of the connection identification
	// fields, copied into every outgoing header from the primed buffer.
	identRanges [][2]int
	primed      []byte // combined header holding the primed ident fields

	predictSend []byte // prediction buffers demanded by the Layer API;
	predictRecv []byte // the baseline never reads them.

	disable  int
	backlog  []*message.Msg
	deliverQ []releaseItem
	appQ     [][]byte

	txq    [][]byte
	txBusy bool // guarded by mu; nested flush returns immediately

	onDeliver func([]byte)
	closed    bool
	stats     Stats
}

type releaseItem struct {
	from stack.Layer
	m    *message.Msg
}

func newConn(ep *Endpoint, spec core.PeerSpec) (*Conn, error) {
	ls, err := ep.cfg.build()(spec, netOrder)
	if err != nil {
		return nil, err
	}
	st, err := stack.NewStack(ls...)
	if err != nil {
		return nil, err
	}
	c := &Conn{ep: ep, spec: spec, st: st}
	c.schema = header.New()
	sb, rb := filter.NewBuilder(), filter.NewBuilder()
	if err := st.Init(&stack.InitContext{Schema: c.schema, SendFilter: sb, RecvFilter: rb}); err != nil {
		return nil, err
	}
	if err := c.schema.CompileLayered(); err != nil {
		return nil, err
	}
	if c.sendF, err = sb.Build(); err != nil {
		return nil, err
	}
	if c.recvF, err = rb.Build(); err != nil {
		return nil, err
	}
	c.hdrSize = c.schema.TotalSize()
	for _, h := range c.schema.Fields() {
		if h.Class() == header.ConnID {
			start := h.Offset() / 8
			end := (h.Offset() + h.SizeBits() + 7) / 8
			c.identRanges = append(c.identRanges, [2]int{start, end})
		}
	}
	c.primed = make([]byte, c.hdrSize)
	c.predictSend = c.primed // Prime writes the ident fields here
	c.predictRecv = make([]byte, c.hdrSize)
	c.remoteKey = identKey(padID(spec.RemoteID), padID(spec.LocalID),
		spec.RemotePort, spec.LocalPort, spec.Epoch)

	st.Prime(c.ctx(nil))
	return c, nil
}

func padID(id []byte) []byte {
	p := make([]byte, 32)
	copy(p, id)
	return p
}

// ctx builds a phase context. In the layered format every class maps onto
// the single combined header region.
func (c *Conn) ctx(env *filter.Env) *stack.Context {
	ctx := &stack.Context{Env: env, Order: netOrder, S: c}
	for cl := header.Class(0); cl < header.NumClasses; cl++ {
		ctx.PredictSend[cl] = c.predictSend
		ctx.PredictRecv[cl] = c.predictRecv
	}
	return ctx
}

// envFor views the combined header for all classes.
func envFor(hdr, payload []byte, t uint64) *filter.Env {
	env := &filter.Env{Payload: payload, Order: netOrder, Time: t}
	for cl := header.Class(0); cl < header.NumClasses; cl++ {
		env.Hdr[cl] = hdr
	}
	return env
}

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Schema exposes the layered schema.
func (c *Conn) Schema() *header.Schema { return c.schema }

// Stack exposes the protocol stack.
func (c *Conn) Stack() *stack.Stack { return c.st }

// OnDeliver installs the application delivery callback (same contract as
// core.Conn: payload valid during the callback, Send allowed).
func (c *Conn) OnDeliver(fn func([]byte)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onDeliver = fn
}

// Send runs the full layered send path synchronously: pre-processing of
// every layer, transmission, post-processing of every layer.
func (c *Conn) Send(payload []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrConnClosed
	}
	c.stats.Sent++
	if c.disable > 0 {
		if len(c.backlog) >= c.ep.cfg.maxBacklog() {
			c.mu.Unlock()
			return ErrSendFailed
		}
		c.backlog = append(c.backlog, message.New(payload))
		c.stats.Backlogged++
		c.mu.Unlock()
		return nil
	}
	err := c.sendLocked(message.New(payload))
	c.settle()
	c.mu.Unlock()
	c.flushTx()
	return err
}

func (c *Conn) sendLocked(m *message.Msg) error {
	hdr := m.Push(c.hdrSize)
	// The immutable identification fields go on every message.
	for _, r := range c.identRanges {
		copy(hdr[r[0]:r[1]], c.primed[r[0]:r[1]])
	}
	env := envFor(hdr, m.Payload(), c.nowMicros())
	ctx := c.ctx(env)
	v, _ := c.st.PreSend(ctx, m)
	if v == stack.Continue && c.sendF.Run(env) != filter.StatusOK {
		v = stack.Drop
	}
	switch v {
	case stack.Continue:
		c.transmit(m)
		c.st.PostSend(ctx, m) // synchronous: on the critical path
		m.Free()
		return nil
	case stack.Consume:
		m.Free()
		return nil
	default:
		m.Free()
		return ErrSendFailed
	}
}

func (c *Conn) transmit(m *message.Msg) {
	c.stats.HeaderBytes += uint64(c.hdrSize)
	c.txq = append(c.txq, append([]byte(nil), m.Bytes()...))
}

func (c *Conn) flushTx() {
	for {
		c.mu.Lock()
		if c.txBusy || len(c.txq) == 0 {
			c.mu.Unlock()
			return
		}
		c.txBusy = true
		q := c.txq
		c.txq = nil
		c.mu.Unlock()
		for _, d := range q {
			c.ep.cfg.Transport.Send(c.spec.Addr, d)
		}
		c.mu.Lock()
		c.txBusy = false
		c.mu.Unlock()
	}
}

// deliverIncoming runs the full layered delivery path synchronously.
func (c *Conn) deliverIncoming(datagram []byte) {
	m := message.FromWire(datagram)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		m.Free()
		return
	}
	// Views, not pops: a layer may buffer m and release it later, when
	// the header must still be in place.
	var env *filter.Env
	if b := m.Bytes(); len(b) >= c.hdrSize {
		env = envFor(b[:c.hdrSize], b[c.hdrSize:], c.nowMicros())
	}
	if env == nil || c.recvF.Run(env) != filter.StatusOK {
		c.stats.Dropped++
		c.mu.Unlock()
		m.Free()
		return
	}
	ctx := c.ctx(env)
	v, at := c.st.PreDeliver(ctx, m)
	c.postDeliver(ctx, m, v, at, nil)
	c.settle()
	c.mu.Unlock()
	c.flushTx()
}

// postDeliver acts on the delivery pre-phases' verdict v, issued by layer
// at, and runs the post-phases of the layers the message reached, from
// the top one down to from (nil: the bottom of the stack). It frees m.
func (c *Conn) postDeliver(ctx *stack.Context, m *message.Msg, v stack.Verdict, at int, from stack.Layer) {
	switch v {
	case stack.Continue:
		c.appQ = append(c.appQ, append([]byte(nil), ctx.Env.Payload...))
		c.stats.Delivered++
	case stack.Consume:
		c.stats.Consumed++
	default:
		c.stats.Dropped++
	}
	c.st.PostDeliverSpan(ctx, m, v, at, from)
	m.Free()
}

// settle runs releases, callbacks and the backlog to quiescence. Caller
// holds c.mu.
func (c *Conn) settle() {
	for {
		switch {
		case len(c.appQ) > 0:
			q := c.appQ
			c.appQ = nil
			cb := c.onDeliver
			c.mu.Unlock()
			if cb != nil {
				for _, p := range q {
					cb(p)
				}
			}
			c.mu.Lock()
		case len(c.deliverQ) > 0:
			item := c.deliverQ[0]
			c.deliverQ = c.deliverQ[1:]
			c.release(item)
		case c.disable == 0 && len(c.backlog) > 0:
			m := c.backlog[0]
			c.backlog = c.backlog[1:]
			_ = c.sendLocked(m) // no packing in the baseline
		default:
			return
		}
	}
}

func (c *Conn) release(item releaseItem) {
	b := item.m.Bytes()
	if len(b) < c.hdrSize {
		c.stats.Dropped++
		item.m.Free()
		return
	}
	env := envFor(b[:c.hdrSize], b[c.hdrSize:], c.nowMicros())
	ctx := c.ctx(env)
	v, at := c.st.DeliverAbove(ctx, item.m, item.from)
	c.postDeliver(ctx, item.m, v, at, item.from)
}

// Close tears the connection down.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for _, l := range c.st.Layers() {
		if cl, ok := l.(io.Closer); ok {
			cl.Close()
		}
	}
	for _, m := range c.backlog {
		m.Free()
	}
	c.backlog = nil
	c.mu.Unlock()
	c.ep.mu.Lock()
	delete(c.ep.conns, c.remoteKey)
	c.ep.mu.Unlock()
	return nil
}

func (c *Conn) nowMicros() uint64 {
	return uint64(c.ep.cfg.clock().Now().UnixNano() / int64(time.Microsecond))
}

// ---- stack.Services ----

// Clock implements stack.Services.
func (c *Conn) Clock() vclock.Clock { return c.ep.cfg.clock() }

// AfterFunc implements stack.Services.
func (c *Conn) AfterFunc(d time.Duration, f func()) vclock.Timer {
	return c.ep.cfg.clock().AfterFunc(d, func() {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		f()
		c.settle()
		c.mu.Unlock()
		c.flushTx()
	})
}

// DisableSend implements stack.Services. The baseline has no prediction to
// disable; the counter gates the (unpacked) backlog instead.
func (c *Conn) DisableSend() { c.disable++ }

// EnableSend implements stack.Services.
func (c *Conn) EnableSend() {
	if c.disable > 0 {
		c.disable--
	}
}

// SendControl implements stack.Services.
func (c *Conn) SendControl(from stack.Layer, m *message.Msg, opts stack.ControlOpts) error {
	if c.closed {
		return ErrConnClosed
	}
	hdr := m.Push(c.hdrSize)
	for _, r := range c.identRanges {
		copy(hdr[r[0]:r[1]], c.primed[r[0]:r[1]])
	}
	env := envFor(hdr, m.Payload(), c.nowMicros())
	if opts.Build != nil {
		opts.Build(env)
	}
	ctx := c.ctx(env)
	if v, _ := c.st.ControlSend(ctx, m, from); v != stack.Continue || c.sendF.Run(env) != filter.StatusOK {
		m.Free()
		return ErrSendFailed
	}
	c.transmit(m)
	c.stats.ControlMsgs++
	c.st.ControlPostSend(ctx, m, from)
	m.Free()
	return nil
}

// SendRaw implements stack.Services (retransmissions).
func (c *Conn) SendRaw(m *message.Msg, includeConnID bool) error {
	if c.closed {
		return ErrConnClosed
	}
	c.transmit(m)
	c.stats.Retransmits++
	return nil
}

// EnqueueDeliver implements stack.Services. A synthetic message goes to
// the application in place, ahead of the releases already queued.
func (c *Conn) EnqueueDeliver(from stack.Layer, m *message.Msg) {
	if m.Synthetic {
		c.appQ = append(c.appQ, append([]byte(nil), m.Payload()...))
		c.stats.Delivered++
		m.Free()
		return
	}
	c.deliverQ = append(c.deliverQ, releaseItem{from: from, m: m})
}
