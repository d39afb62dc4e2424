package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"paccel"
)

// A workload is one set of inputs. Its generator drives the library only
// through the root facade, on paccel.DefaultStack (Config.Build left nil),
// telemetry off, default Config except where the table below says so.
type workload struct {
	name string
	why  string
	// payload is the application message size; every workload uses one.
	payload int
	// causal: everything an operation causes happens inside it (closed
	// loop), so traced self times are summed per operation. Streams are not.
	causal bool
	new    func(b base) gen
}

// gen is one instance of a workload: a fixture plus the loop that loads it.
type gen interface {
	// setup builds the fixture and establishes the connections; it is what
	// setup_s times.
	setup() error
	// run drives operations until nanos() reaches until. It is called once
	// for the warm-up and once per window, on one goroutine.
	run(until int64)
	// drain waits for everything sent to be delivered and settles the
	// oracle; called once after the last run.
	drain()
	close()
	// pairs is how many connection pairs setup established.
	pairs() int
	// collect adds the fixture's cumulative counters to c.
	collect(c *counts)
}

// workloads is every workload the program runs. BENCHMARK.json gates the
// ones it lists; rt_sim_paced_8b and rt_udp_8b are measured, reported and
// compared but not listed there: on the sandbox their numbers follow the
// host, not the code (README.md says what was measured).
var workloads = []workload{
	{
		name: "rt_sim_8b", payload: 8, causal: true,
		why: "8 B ping-pong over perfect netsim: the engine does all the work (prediction, both filters, window pre/post, ack piggyback), transport is ~0",
		new: func(b base) gen { return &rtGen{base: b} },
	},
	{
		name: "rt_sim_paced_8b", payload: 8, causal: true,
		why: "same ping-pong paced at 20000 rt/s by busy-wait: the idle gaps are where post-processing can be masked; rt_sim_8b has none",
		new: func(b base) gen { return &rtGen{base: b, pace: time.Second / 20000} },
	},
	{
		name: "rt_udp_8b", payload: 8, causal: true,
		why: "8 B ping-pong over two UDP sockets on host loopback: kernel, syscalls and goroutine hand-off dominate, so udp changes show here",
		new: func(b base) gen { return &rtGen{base: b, udp: true} },
	},
	{
		name: "stream_udp_8b", payload: 8,
		why: "saturating one-way 8 B stream over UDP loopback: window closes, backlog packs 64 messages per datagram, sendmmsg batches, acks flow back",
		new: func(b base) gen { return &streamGen{base: b, udp: true, conns: 1, block: true} },
	},
	{
		name: "stream_sim_1k", payload: 1024,
		why: "saturating one-way 1 KB stream over perfect netsim: every message takes the fast path and per-byte work (checksum, copies) dominates",
		new: func(b base) gen {
			return &streamGen{base: b, conns: 1, block: true, sim: paccel.SimConfig{MTU: 64 << 10}}
		},
	},
	{
		name: "stream_sim_loss_8b", payload: 8,
		why: "32 one-way 8 B streams over netsim with 20us latency and 1% loss: the only workload off the fast path (gaps, reorder buffer, RTO, go-back-N)",
		new: func(b base) gen {
			return &streamGen{base: b, conns: 32, sim: paccel.SimConfig{
				Latency: 20 * time.Microsecond, LossRate: 0.01, Seed: b.seed,
			}}
		},
	},
	{
		name: "fanin_sim_4k", payload: 8, causal: true,
		why: "8 B ping-pong over 4096 connections to one accepting endpoint in shuffled order: cache-cold per-connection state, 4096 routes, delayed-ack timers",
		new: func(b base) gen { return &faninGen{base: b, n: 4096} },
	},
	{
		name: "dial_churn", payload: 8, causal: true,
		why: "dial, first identified message, echo, close on both sides, fresh port and epoch each cycle: schema compile, stack build, router insert and remove",
		new: func(b base) gen { return &dialGen{base: b} },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// recorder collects what the generators observe. Latency samples go into
// one pre-allocated buffer in arrival order; windows are index ranges.
type recorder struct {
	lat  []uint32
	n    atomic.Int64
	late []uint32 // paced workload: how late each operation started
	nl   int
	ops  uint64        // operations attempted (generator goroutine only)
	msgs atomic.Uint64 // application messages delivered, any direction
}

func newRecorder(capacity int) *recorder {
	r := &recorder{lat: make([]uint32, capacity), late: make([]uint32, capacity/8)}
	for i := 0; i < len(r.lat); i += 1024 {
		r.lat[i] = 0 // fault the pages in before anything is timed
	}
	for i := 0; i < len(r.late); i += 1024 {
		r.late[i] = 0
	}
	return r
}

func clampNs(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(ns)
}

func (r *recorder) add(ns int64) {
	if i := r.n.Add(1) - 1; i < int64(len(r.lat)) {
		r.lat[i] = clampNs(ns)
	}
}

func (r *recorder) addLate(ns int64) {
	if r.nl < len(r.late) {
		r.late[r.nl] = clampNs(ns)
		r.nl++
	}
}

func (r *recorder) reset() {
	r.n.Store(0)
	r.nl = 0
	r.ops = 0
	r.msgs.Store(0)
}

// mark is the recorder's position at a window boundary.
type mark struct {
	t         int64
	n, nl     int
	ops, msgs uint64
}

func (r *recorder) mark() mark {
	return mark{t: nanos(), n: int(min(r.n.Load(), int64(len(r.lat)))), nl: r.nl, ops: r.ops, msgs: r.msgs.Load()}
}

// base is what every generator shares.
type base struct {
	seed  int64
	tr    *tracer // nil in the untraced pass
	pat   *pattern
	rec   *recorder
	fails *failCounts
	taps  []*tap
	op    uint64 // operation index, for trace sampling
}

// send is Conn.Send, spanned when an operation is being sampled. A
// backpressure error is the caller's to handle; anything else is a failed
// operation.
func (b *base) send(c *paccel.Conn, p []byte) error {
	s := b.tr.begin(spanCoreSend)
	err := c.Send(p)
	b.tr.end(s)
	if err != nil && !errors.Is(err, paccel.ErrBackpressure) {
		b.fails.sendErr.Add(1)
	}
	return err
}

// closedLoop runs op back to back until the deadline, timing each from the
// end of the one before (one clock read per operation).
func (b *base) closedLoop(until int64, op func()) {
	for t := nanos(); t < until; {
		b.tr.startOp(b.op)
		b.op++
		op()
		now := nanos()
		b.tr.endOp(t, now)
		b.rec.add(now - t)
		t = now
	}
}

// callback wraps a deliver callback in an app.callback span.
func (b *base) callback(f func(p []byte)) func(p []byte) {
	if b.tr == nil {
		return f
	}
	return func(p []byte) {
		s := b.tr.begin(spanAppCallback)
		f(p)
		b.tr.end(s)
	}
}

// wrap installs a tap on the transport in the traced pass only.
func (b *base) wrap(t paccel.Transport, kind uint8) (paccel.Transport, error) {
	if b.tr == nil {
		return t, nil
	}
	w, tp, err := wrapTransport(t, b.tr, kind)
	if err != nil {
		return nil, err
	}
	b.taps = append(b.taps, tp)
	return w, nil
}

// link is two endpoints A and B that can reach each other, over netsim or
// over two UDP sockets on 127.0.0.1.
type link struct {
	net          *paccel.SimNetwork
	epA, epB     *paccel.Endpoint
	addrA, addrB string
	// udpStats reads the UDP transports' public counters; nil on netsim.
	udpStats func() (tx, rx uint64)
}

// newLink builds the endpoints; cfgA and cfgB carry everything but the
// transport.
func (b *base) newLink(udp bool, sim paccel.SimConfig, cfgA, cfgB paccel.Config) (*link, error) {
	l := &link{}
	var ta, tb paccel.Transport
	kind := spanNetsimSend
	if udp {
		kind = spanUDPSend
		ua, err := paccel.ListenUDP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ub, err := paccel.ListenUDP("127.0.0.1:0")
		if err != nil {
			ua.Close()
			return nil, err
		}
		l.udpStats = func() (tx, rx uint64) {
			sa, sb := ua.Stats(), ub.Stats()
			return sa.TxSyscalls + sb.TxSyscalls, sa.RxSyscalls + sb.RxSyscalls
		}
		ta, tb = ua, ub
	} else {
		l.net = paccel.NewSimNetwork(sim)
		ta, tb = l.net.Endpoint("A"), l.net.Endpoint("B")
	}
	l.addrA, l.addrB = ta.LocalAddr(), tb.LocalAddr()
	var err error
	if cfgA.Transport, err = b.wrap(ta, kind); err != nil {
		return nil, err
	}
	if cfgB.Transport, err = b.wrap(tb, kind); err != nil {
		return nil, err
	}
	if l.epA, err = paccel.NewEndpoint(cfgA); err != nil {
		return nil, err
	}
	if l.epB, err = paccel.NewEndpoint(cfgB); err != nil {
		l.epA.Close()
		return nil, err
	}
	return l, nil
}

func (l *link) close() {
	if l == nil {
		return
	}
	l.epA.Close()
	l.epB.Close()
}

var clientID, serverID = []byte("client"), []byte("server")

// clientSpec is the client side of connection number port (1-based).
func (l *link) clientSpec(port uint16, epoch uint32) paccel.PeerSpec {
	return paccel.PeerSpec{Addr: l.addrB, LocalID: clientID, RemoteID: serverID,
		LocalPort: port, RemotePort: 9, Epoch: epoch}
}

// dialPair dials both ends of connection number port.
func (l *link) dialPair(port uint16) (a, b *paccel.Conn, err error) {
	if a, err = l.epA.Dial(l.clientSpec(port, 1)); err != nil {
		return nil, nil, err
	}
	b, err = l.epB.Dial(paccel.PeerSpec{Addr: l.addrA, LocalID: serverID, RemoteID: clientID,
		LocalPort: 9, RemotePort: port, Epoch: 1})
	return a, b, err
}

// acceptSpec answers an accept hook with the mirror of the remote's
// identification.
func acceptSpec(remote paccel.IdentInfo, netSrc string) (paccel.PeerSpec, bool) {
	return paccel.PeerSpec{Addr: netSrc, LocalID: serverID, RemoteID: clientID,
		LocalPort: remote.DstPort, RemotePort: remote.SrcPort, Epoch: remote.Epoch}, true
}

func (l *link) collect(c *counts) {
	for _, ep := range []*paccel.Endpoint{l.epA, l.epB} {
		s := ep.Snapshot()
		c.learned += s.CookiesLearned
		c.tableEntries += uint64(s.TableEntries)
		c.tableBytes += uint64(s.TableBytes)
		c.batchSends += s.BatchSends
		c.batchDatagrams += s.BatchDatagrams
	}
	if l.net != nil {
		s := l.net.Stats()
		c.netSent += s.Sent
		c.netLost += s.Lost
	}
	if l.udpStats != nil {
		tx, rx := l.udpStats()
		c.udpTx += tx
		c.udpRx += rx
	}
}

func (b *base) collectTaps(c *counts) {
	for _, t := range b.taps {
		c.tapCalls += t.calls.Load()
		c.tapDatagrams += t.datagrams.Load()
		c.tapBytes += t.bytes.Load()
	}
}

// rtGen is the closed-loop single-connection ping-pong, optionally paced.
type rtGen struct {
	base
	udp  bool
	pace time.Duration

	l        *link
	a, b     *paccel.Conn
	done     chan struct{}
	buf      []byte
	seq      uint32
	toB, toA checker
	due      int64
}

func (g *rtGen) setup() (err error) {
	if g.l, err = g.newLink(g.udp, paccel.SimConfig{}, paccel.Config{}, paccel.Config{}); err != nil {
		return err
	}
	if g.a, g.b, err = g.l.dialPair(1); err != nil {
		return err
	}
	g.done = make(chan struct{}, 1)
	g.buf = g.pat.newBuf()
	g.toB = checker{p: g.pat, f: g.fails}
	g.toA = checker{p: g.pat, f: g.fails}
	g.b.OnDeliver(g.callback(func(p []byte) {
		g.toB.check(p)
		g.rec.msgs.Add(1)
		g.send(g.b, p)
	}))
	g.a.OnDeliver(g.callback(func(p []byte) {
		g.toA.check(p)
		g.rec.msgs.Add(1)
		g.done <- struct{}{}
	}))
	g.pingPong() // the first, identified, exchange: cookies are learned
	return nil
}

// pingPong is one operation: send the next ping, wait for its echo.
func (g *rtGen) pingPong() {
	g.pat.stamp(g.buf, 0, g.seq)
	g.seq++
	g.rec.ops++
	if g.send(g.a, g.buf) == nil {
		<-g.done
	}
}

func (g *rtGen) run(until int64) {
	if g.pace > 0 {
		g.runPaced(until)
		return
	}
	g.closedLoop(until, g.pingPong)
}

// runPaced starts one operation every g.pace, busy-waiting for the due
// time. An operation is timed from when it actually started and how late
// that was goes to gen.late_p99_us: with one client that waits for each
// reply, operations (3 us) never queue behind each other (50 us apart), so
// timing from the due time would only add the generator's own lateness —
// and on the sandbox that is the host's timer tick, 1-2 % of the time in
// 30-70 us slices, which lands exactly on the 99th percentile.
func (g *rtGen) runPaced(until int64) {
	if g.due == 0 {
		g.due = nanos()
	}
	for g.due < until {
		now := nanos()
		for now < g.due {
			now = nanos()
		}
		g.tr.startOp(g.op)
		g.op++
		g.pingPong()
		end := nanos()
		g.tr.endOp(now, end)
		g.rec.add(end - now)
		g.rec.addLate(now - g.due)
		g.due += int64(g.pace)
	}
}

func (g *rtGen) drain()     {}
func (g *rtGen) close()     { g.l.close() }
func (g *rtGen) pairs() int { return 1 }

func (g *rtGen) collect(c *counts) {
	c.addConn(g.a.Stats(), true)
	c.addConn(g.b.Stats(), false)
	c.conns += 2
	g.l.collect(c)
	g.collectTaps(c)
}

// streamGen is the one-way saturating stream over one or more connections.
// With block set the single sender blocks on backpressure; otherwise it
// visits the connections round-robin and skips the ones whose backlog is
// full.
type streamGen struct {
	base
	udp   bool
	sim   paccel.SimConfig
	conns int
	block bool

	l    *link
	a, b []*paccel.Conn
	seqs []uint32
	recv []checker
	// sentAt[i] holds the send times of connection i's sampled messages
	// (one in latEvery), written by the sender and read by the receiver.
	sentAt [][latRing]atomic.Int64
	buf    []byte
	turn   int
}

const (
	// latEvery: one message in 61 carries a latency sample, so the clock
	// costs the sender about 1 ns per message. 61 is prime on purpose: the
	// receiver acknowledges every 8th message and the backlog packs 64, and
	// a stride that shares a factor with those samples only messages at one
	// position of the cycle (with 64 the p50 of stream_sim_1k came out as
	// 1.25 us or 1.55 us depending on where the run happened to start).
	latEvery = 61
	latRing  = 256 // > (backlog 1024 + window 16*64) / latEvery
	// sendBurst is how many messages a connection gets per visit of the
	// round-robin sender.
	sendBurst = 64
)

func (g *streamGen) setup() (err error) {
	cfgA := paccel.Config{BlockOnBackpressure: g.block}
	if g.l, err = g.newLink(g.udp, g.sim, cfgA, paccel.Config{}); err != nil {
		return err
	}
	g.a, g.b = make([]*paccel.Conn, g.conns), make([]*paccel.Conn, g.conns)
	g.seqs = make([]uint32, g.conns)
	g.recv = make([]checker, g.conns)
	g.sentAt = make([][latRing]atomic.Int64, g.conns)
	g.buf = g.pat.newBuf()
	for i := range g.a {
		if g.a[i], g.b[i], err = g.l.dialPair(uint16(i + 1)); err != nil {
			return err
		}
		chk := &g.recv[i]
		*chk = checker{p: g.pat, f: g.fails, conn: uint32(i)}
		ring := &g.sentAt[i]
		g.b[i].OnDeliver(g.callback(func(p []byte) {
			seq, ok := chk.check(p)
			g.rec.msgs.Add(1)
			if ok && seq%latEvery == 0 {
				g.rec.add(nanos() - ring[seq/latEvery%latRing].Load())
			}
		}))
	}
	return nil
}

// sendNext sends connection i's next message; false means backpressure.
func (g *streamGen) sendNext(i int, until int64) (sent, more bool) {
	seq := g.seqs[i]
	var t0 int64
	g.tr.startOp(g.op)
	if seq%latEvery == 0 || g.tr.sampling() {
		if t0 = nanos(); t0 >= until {
			g.tr.cancelOp()
			return false, false
		}
		if seq%latEvery == 0 {
			g.sentAt[i][seq/latEvery%latRing].Store(t0)
		}
	}
	g.pat.stamp(g.buf, uint32(i), seq)
	if err := g.send(g.a[i], g.buf); err != nil {
		g.tr.cancelOp() // backpressure: the same operation is retried later
		return false, true
	}
	if g.tr.sampling() {
		g.tr.endOp(t0, nanos())
	}
	g.op++
	g.rec.ops++
	g.seqs[i] = seq + 1
	return true, true
}

func (g *streamGen) run(until int64) {
	if g.block {
		for {
			if _, more := g.sendNext(0, until); !more {
				return
			}
		}
	}
	for {
		progress := false
		for n := 0; n < g.conns; n++ {
			i := g.turn
			g.turn = (g.turn + 1) % g.conns
			for k := 0; k < sendBurst; k++ {
				sent, more := g.sendNext(i, until)
				if !more {
					return
				}
				if !sent {
					break
				}
				progress = true
			}
		}
		if !progress {
			// Every backlog is full: the streams are waiting for acks or
			// for a retransmission timeout.
			if nanos() >= until {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// drain waits until every message sent has been delivered: a stream may
// end with a full window and backlog in flight, or in a retransmission
// back-off.
func (g *streamGen) drain() {
	deadline := nanos() + int64(20*time.Second)
	for i := range g.a {
		for g.delivered(i) != g.seqs[i] && nanos() < deadline {
			time.Sleep(time.Millisecond)
		}
		if d := g.seqs[i] - g.delivered(i); d != 0 {
			g.fails.short.Add(uint64(d))
		}
	}
}

// delivered reads connection i's receive position through the connection's
// own counter, which the engine updates under the connection lock.
func (g *streamGen) delivered(i int) uint32 { return uint32(g.b[i].Stats().Delivered) }

func (g *streamGen) close()     { g.l.close() }
func (g *streamGen) pairs() int { return g.conns }

func (g *streamGen) collect(c *counts) {
	for i := range g.a {
		c.addConn(g.a[i].Stats(), true)
		c.addConn(g.b[i].Stats(), false)
	}
	c.conns += uint64(2 * g.conns)
	g.l.collect(c)
	g.collectTaps(c)
}

// faninGen is ping-pong over n established connections from one client
// endpoint to one accepting server endpoint, visited in a seeded order.
type faninGen struct {
	base
	n int

	l        *link
	cli, srv []*paccel.Conn
	seqs     []uint32
	toS, toC []checker
	order    []uint16
	pos      int
	done     chan struct{}
	buf      []byte
}

func (g *faninGen) setup() (err error) {
	g.cli, g.srv = make([]*paccel.Conn, g.n), make([]*paccel.Conn, g.n)
	g.seqs = make([]uint32, g.n)
	g.toS, g.toC = make([]checker, g.n), make([]checker, g.n)
	g.done = make(chan struct{}, 1)
	g.buf = g.pat.newBuf()
	cfgB := paccel.Config{
		Accept: acceptSpec,
		OnConn: func(c *paccel.Conn) {
			i := int(c.Spec().RemotePort) - 1
			g.srv[i] = c
			chk := &g.toS[i]
			c.OnDeliver(g.callback(func(p []byte) {
				chk.check(p)
				g.rec.msgs.Add(1)
				g.send(c, p)
			}))
		},
	}
	if g.l, err = g.newLink(false, paccel.SimConfig{}, paccel.Config{}, cfgB); err != nil {
		return err
	}
	for i := range g.cli {
		g.toS[i] = checker{p: g.pat, f: g.fails, conn: uint32(i)}
		g.toC[i] = checker{p: g.pat, f: g.fails, conn: uint32(i)}
		if g.cli[i], err = g.l.epA.Dial(g.l.clientSpec(uint16(i+1), 1)); err != nil {
			return err
		}
		chk := &g.toC[i]
		g.cli[i].OnDeliver(g.callback(func(p []byte) {
			chk.check(p)
			g.rec.msgs.Add(1)
			g.done <- struct{}{}
		}))
		g.pingPong(i) // the identified first message makes the server accept
		if g.srv[i] == nil {
			return fmt.Errorf("fanin: connection %d was not accepted", i)
		}
	}
	g.order = make([]uint16, g.n)
	for i, j := range rand.New(rand.NewSource(g.seed)).Perm(g.n) {
		g.order[i] = uint16(j)
	}
	return nil
}

func (g *faninGen) pingPong(i int) {
	g.pat.stamp(g.buf, uint32(i), g.seqs[i])
	g.seqs[i]++
	g.rec.ops++
	if g.send(g.cli[i], g.buf) == nil {
		<-g.done
	}
}

func (g *faninGen) run(until int64) {
	g.closedLoop(until, func() {
		g.pingPong(int(g.order[g.pos]))
		if g.pos++; g.pos == g.n {
			g.pos = 0
		}
	})
}

func (g *faninGen) drain()     {}
func (g *faninGen) close()     { g.l.close() }
func (g *faninGen) pairs() int { return g.n }

func (g *faninGen) collect(c *counts) {
	for i := range g.cli {
		c.addConn(g.cli[i].Stats(), true)
		c.addConn(g.srv[i].Stats(), false)
	}
	c.conns += uint64(2 * g.n)
	g.l.collect(c)
	g.collectTaps(c)
}

// dialGen is connection churn: each operation dials, sends the first
// (identified) message, receives its echo from the freshly accepted server
// connection, and closes both sides.
type dialGen struct {
	base

	l        *link
	rng      *rand.Rand
	cycle    uint32
	cli, srv *paccel.Conn
	toS, toC checker
	done     chan struct{}
	buf      []byte
	// cliDeliver is built once so a cycle allocates no closure of its own.
	cliDeliver func(p []byte)
	// closed accumulates the counters of the connections already closed;
	// only the traced pass asks for them (harvest).
	harvest bool
	closed  counts
}

func (g *dialGen) setup() (err error) {
	g.rng = rand.New(rand.NewSource(g.seed))
	g.done = make(chan struct{}, 1)
	g.buf = g.pat.newBuf()
	g.harvest = g.tr != nil
	srvDeliver := g.callback(func(p []byte) {
		g.toS.check(p)
		g.rec.msgs.Add(1)
		g.send(g.srv, p)
	})
	cfgB := paccel.Config{
		Accept: acceptSpec,
		OnConn: func(c *paccel.Conn) {
			g.srv = c
			c.OnDeliver(srvDeliver)
		},
	}
	if g.l, err = g.newLink(false, paccel.SimConfig{}, paccel.Config{}, cfgB); err != nil {
		return err
	}
	g.cliDeliver = g.callback(func(p []byte) {
		g.toC.check(p)
		g.rec.msgs.Add(1)
		g.done <- struct{}{}
	})
	g.dialCycle()
	return nil
}

// dialCycle is one operation. Port and epoch come from the seed.
func (g *dialGen) dialCycle() {
	g.rec.ops++
	r := g.rng.Uint64()
	port, epoch := uint16(1+r%65000), uint32(r>>32)
	g.toS = checker{p: g.pat, f: g.fails, conn: g.cycle}
	g.toC = checker{p: g.pat, f: g.fails, conn: g.cycle}
	g.srv = nil
	sp := g.tr.begin(spanCoreDial)
	cli, err := g.l.epA.Dial(g.l.clientSpec(port, epoch))
	g.tr.end(sp)
	if err != nil {
		g.fails.sendErr.Add(1)
		return
	}
	g.cli = cli
	cli.OnDeliver(g.cliDeliver)
	g.pat.stamp(g.buf, g.cycle, 0)
	g.cycle++
	if g.send(cli, g.buf) == nil {
		<-g.done
	}
	if g.harvest {
		g.closed.addConn(cli.Stats(), true)
		g.closed.conns++
		if g.srv != nil {
			g.closed.addConn(g.srv.Stats(), false)
			g.closed.conns++
		}
	}
	sp = g.tr.begin(spanCoreClose)
	cli.Close()
	if g.srv != nil {
		g.srv.Close()
	} else {
		g.fails.short.Add(1) // the server never accepted
	}
	g.tr.end(sp)
}

func (g *dialGen) run(until int64) {
	g.closedLoop(until, g.dialCycle)
}

func (g *dialGen) drain() {}
func (g *dialGen) close() { g.l.close() }

// pairs: setup leaves the two endpoints and one closed connection pair
// behind; conn_mem_kb on this workload is what they retain.
func (g *dialGen) pairs() int { return 1 }

func (g *dialGen) collect(c *counts) {
	c.add(&g.closed)
	g.l.collect(c)
	g.collectTaps(c)
}
