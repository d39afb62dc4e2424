// Fixtures the benchmarks stand on: connected PA and baseline pairs over
// the in-memory network, the lean, secure and doubled-window stacks, and
// the receive and admission replay harnesses. The paper's PA ran one
// connection per (single-CPU) endpoint; the harnesses let the benchmarks
// measure what the reproduction adds for production scale — a sharded
// cookie router whose receive path never serializes across connections,
// and send and delivery fast paths that allocate nothing per message.
package paccel_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"paccel/internal/baseline"
	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

var (
	// leanStack is the default stack minus the sliding window. Without
	// sequence numbers or ack timers it is stateless on the fast path:
	// every replayed datagram stays on the predicted path, and no timer
	// machinery allocates behind an allocation or router-contention
	// measurement.
	leanStack = core.BuildStack(core.StackOptions{NoWindow: true})
	// secureLeanStack is leanStack with AES-GCM in the checksum's place;
	// windowless, so the nonce prediction never sees a gap.
	secureLeanStack = core.BuildStack(core.StackOptions{
		NoWindow: true, Secure: &core.SecureConfig{Key: []byte("paccel secure fixture key")},
	})
	// doubledWindowStack is the §5 layer-doubling configuration: the
	// window layer stacked twice.
	doubledWindowStack = core.BuildStack(core.StackOptions{DoubleWindow: true})
)

// endpoint opens an endpoint that closes when tb ends.
func endpoint(tb testing.TB, cfg core.Config) *core.Endpoint {
	tb.Helper()
	ep, err := core.NewEndpoint(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ep.Close() })
	return ep
}

func dial(tb testing.TB, ep *core.Endpoint, spec core.PeerSpec) *core.Conn {
	tb.Helper()
	c, err := ep.Dial(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// mirrored is the spec pair of a connection between client A and server
// B.
func mirrored() (a, b core.PeerSpec) {
	return core.PeerSpec{Addr: "B", LocalID: []byte("client"), RemoteID: []byte("server"), LocalPort: 1, RemotePort: 2, Epoch: 1},
		core.PeerSpec{Addr: "A", LocalID: []byte("server"), RemoteID: []byte("client"), LocalPort: 2, RemotePort: 1, Epoch: 1}
}

// pair is a connected PA client A and server B over an in-memory network
// on the real clock.
type pair struct{ A, B *core.Conn }

// newPair dials the pair with both stacks built by build (nil: the
// default stack).
func newPair(tb testing.TB, build core.StackBuilder, netCfg netsim.Config) *pair {
	tb.Helper()
	net := netsim.New(vclock.Real{}, netCfg)
	epA := endpoint(tb, core.Config{Transport: net.Endpoint("A"), Build: build})
	epB := endpoint(tb, core.Config{Transport: net.Endpoint("B"), Build: build})
	sa, sb := mirrored()
	return &pair{A: dial(tb, epA, sa), B: dial(tb, epB, sb)}
}

// streamOneWay sends n messages A→B as fast as the window allows and
// returns the achieved messages per second.
func (p *pair) streamOneWay(tb testing.TB, n int, payload []byte) float64 {
	tb.Helper()
	var got atomic.Int64
	doneCh := make(chan struct{})
	p.B.OnDeliver(func([]byte) {
		if got.Add(1) == int64(n) {
			close(doneCh)
		}
	})
	start := time.Now()
	for i := 0; i < n; i++ {
		for {
			err := p.A.Send(payload)
			if err == nil {
				break
			}
			if errors.Is(err, core.ErrBacklogFull) {
				// Backpressure: the window is closed and the
				// backlog is at capacity; wait for acks.
				time.Sleep(20 * time.Microsecond)
				continue
			}
			tb.Fatal(err)
		}
	}
	p.A.Flush()
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-doneCh:
		case <-time.After(50 * time.Millisecond):
			// Nudge: under heavy load (race detector, parallel
			// suites) delayed-ack timers can lag; Flush drains
			// pending post-processing and kicks the backlog.
			p.A.Flush()
			p.B.Flush()
			if time.Now().After(deadline) {
				tb.Fatalf("stream stalled at %d/%d", got.Load(), n)
			}
			continue
		}
		break
	}
	return float64(n) / time.Since(start).Seconds()
}

// newBaselinePair dials the traditional-path pair over an instantaneous
// in-memory network.
func newBaselinePair(tb testing.TB) (a, b *baseline.Conn) {
	tb.Helper()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	sa, sb := mirrored()
	var conns [2]*baseline.Conn
	for i, side := range []struct {
		addr string
		spec core.PeerSpec
	}{{"A", sa}, {"B", sb}} {
		ep, err := baseline.NewEndpoint(baseline.Config{Transport: net.Endpoint(side.addr)})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { ep.Close() })
		if conns[i], err = ep.Dial(side.spec); err != nil {
			tb.Fatal(err)
		}
	}
	return conns[0], conns[1]
}

// tap wraps a transport: it keeps the receive callback the endpoint
// installs, so a harness can replay frames into it without the network,
// and a copy of the last datagram the network handed it, so the harness
// can capture the frames to replay.
type tap struct {
	core.Transport
	recv func(src string, datagram []byte)
	last []byte
}

func (t *tap) SetHandler(h func(src string, datagram []byte)) {
	t.recv = h
	t.Transport.SetHandler(func(src string, datagram []byte) {
		t.last = append(t.last[:0], datagram...)
		h(src, datagram)
	})
}

// capture sends payload on c and returns the frame it put on the wire;
// the instantaneous network delivers synchronously, so the tap holds the
// frame when Send returns.
func (t *tap) capture(tb testing.TB, c *core.Conn, payload string) []byte {
	tb.Helper()
	t.last = t.last[:0]
	if err := c.Send([]byte(payload)); err != nil {
		tb.Fatal(err)
	}
	if len(t.last) == 0 {
		tb.Fatalf("no frame captured for %q", payload)
	}
	return append([]byte(nil), t.last...)
}

// paddedCounter is a cache-line-padded delivery counter, one per
// connection, so counting deliveries does not itself create the
// cross-core contention a benchmark is trying to detect.
type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// recvHarness drives an endpoint's receive path directly: it captures
// one valid cookie-only wire frame per connection and replays them
// straight into the transport handler, so benchmarks measure the router
// and delivery path alone.
type recvHarness struct {
	server *core.Endpoint
	conns  []*core.Conn
	tap    *tap
	frames [][]byte
	counts []paddedCounter
}

// newRecvHarness builds a server endpoint with nConns pre-agreed-cookie
// connections over an instantaneous network and captures one fast-path
// frame per connection.
func newRecvHarness(tb testing.TB, nConns int) *recvHarness {
	tb.Helper()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	h := &recvHarness{tap: &tap{Transport: net.Endpoint("S")}, counts: make([]paddedCounter, nConns)}
	h.server = endpoint(tb, core.Config{Transport: h.tap, Build: leanStack})
	client := endpoint(tb, core.Config{Transport: net.Endpoint("C"), Build: leanStack})
	for i := 0; i < nConns; i++ {
		// Pre-agreed cookies on both sides (§2.2's "agree on a cookie
		// before starting to use it") keep every frame cookie-only.
		srvCookie := uint64(i+1)<<20 | 0x5eed
		cliCookie := uint64(i+1)<<20 | 0xc11e
		sc := dial(tb, h.server, core.PeerSpec{
			Addr: "C", LocalID: []byte("server"), RemoteID: []byte("client"),
			LocalPort: uint16(2000 + i), RemotePort: uint16(1000 + i), Epoch: 1,
			OutCookie: cliCookie, ExpectInCookie: srvCookie, SkipFirstConnID: true,
		})
		slot := &h.counts[i]
		sc.OnDeliver(func([]byte) { slot.n.Add(1) })
		h.conns = append(h.conns, sc)
		cc := dial(tb, client, core.PeerSpec{
			Addr: "S", LocalID: []byte("client"), RemoteID: []byte("server"),
			LocalPort: uint16(1000 + i), RemotePort: uint16(2000 + i), Epoch: 1,
			OutCookie: srvCookie, ExpectInCookie: cliCookie, SkipFirstConnID: true,
		})
		h.frames = append(h.frames, h.tap.capture(tb, cc, fmt.Sprintf("cn-%04d!", i)))
		if got := slot.n.Load(); got != 1 {
			tb.Fatalf("capture send delivered %d times", got)
		}
	}
	return h
}

// deliver replays connection i's captured frame into the server's
// receive path, as if it had just arrived from the network.
func (h *recvHarness) deliver(i int) { h.tap.recv("C", h.frames[i]) }

// delivered returns connection i's delivery count.
func (h *recvHarness) delivered(i int) uint64 { return h.counts[i].n.Load() }

// acceptAll takes every identified connection at face value, as a fleet
// frontend does before authentication happens at a higher layer: the
// peer's identification, stripped of its padding, becomes the
// mirror-image spec addressed to the datagram's source.
func acceptAll(remote layers.IdentInfo, netSrc string) (core.PeerSpec, bool) {
	return core.PeerSpec{
		Addr:      netSrc,
		LocalID:   bytes.TrimRight(remote.Dst, "\x00"),
		RemoteID:  bytes.TrimRight(remote.Src, "\x00"),
		LocalPort: remote.DstPort, RemotePort: remote.SrcPort,
		Epoch: remote.Epoch,
	}, true
}

// shedHarness drives one endpoint's admission reject path and one
// admitted connection's delivery path directly, bypassing the network.
type shedHarness struct {
	server      *core.Endpoint
	tap         *tap
	cookieFrame []byte
	shedFrame   []byte
}

// newShedHarness builds a MaxConns=1 endpoint holding one pre-agreed
// fast-path connection, plus one captured stranger first-message whose
// replay admission refuses every time. stormRate configures the
// detector (a huge rate keeps it quiet, a small one trips it).
func newShedHarness(tb testing.TB, stormRate int) *shedHarness {
	tb.Helper()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	sh := &shedHarness{tap: &tap{Transport: net.Endpoint("S")}}
	sh.server = endpoint(tb, core.Config{
		Transport: sh.tap,
		Build:     leanStack,
		MaxConns:  1,
		Admission: core.AdmissionConfig{StormRate: stormRate, Seed: 7},
		Accept:    acceptAll,
		OnConn:    func(c *core.Conn) { c.OnDeliver(func([]byte) {}) },
	})
	client := endpoint(tb, core.Config{Transport: net.Endpoint("C"), Build: leanStack})
	// The admitted connection: pre-agreed cookies, so its frames are
	// cookie-only and its dial occupies the single slot.
	dial(tb, sh.server, core.PeerSpec{
		Addr: "C", LocalID: []byte("server"), RemoteID: []byte("client"),
		LocalPort: 2000, RemotePort: 1000, Epoch: 1,
		OutCookie: 0xc11e, ExpectInCookie: 0x5eed, SkipFirstConnID: true,
	}).OnDeliver(func([]byte) {})
	cc := dial(tb, client, core.PeerSpec{
		Addr: "S", LocalID: []byte("client"), RemoteID: []byte("server"),
		LocalPort: 1000, RemotePort: 2000, Epoch: 1,
		OutCookie: 0x5eed, ExpectInCookie: 0xc11e, SkipFirstConnID: true,
	})
	sh.cookieFrame = sh.tap.capture(tb, cc, "fastpath")

	// The stranger: a genuine identified first message from a peer the
	// server has never admitted. Its live arrival was already refused
	// (the slot is taken), and every replay re-runs the same refusal.
	stranger := endpoint(tb, core.Config{Transport: net.Endpoint("Z"), Build: leanStack})
	zc := dial(tb, stranger, core.PeerSpec{
		Addr: "S", LocalID: []byte("stranger"), RemoteID: []byte("server"),
		LocalPort: 3000, RemotePort: 2000, Epoch: 1,
	})
	sh.shedFrame = sh.tap.capture(tb, zc, "let me in")
	if n := sh.server.Snapshot().Conns; n != 1 {
		tb.Fatalf("shed harness holds %d conns, want 1", n)
	}
	return sh
}

// deliver replays the admitted connection's cookie-only frame.
func (sh *shedHarness) deliver() { sh.tap.recv("C", sh.cookieFrame) }

// shed replays the stranger's first message into the admission path;
// the endpoint is at capacity, so every call is a counted refusal.
func (sh *shedHarness) shed() { sh.tap.recv("Z", sh.shedFrame) }

// TestPairFixtures moves messages through the connected pairs the
// benchmarks stand on: streamOneWay returns once B has every message of
// its stream, and the baseline pair echoes in order.
func TestPairFixtures(t *testing.T) {
	p := newPair(t, leanStack, netsim.Config{})
	const n = 50
	if msgs := p.streamOneWay(t, n, []byte("8 bytes!")); msgs <= 0 {
		t.Fatalf("streamOneWay = %v msgs/s", msgs)
	}
	if st := p.A.Stats(); st.Sent != n {
		t.Fatalf("A sent %d, want %d", st.Sent, n)
	}

	a, b := newBaselinePair(t)
	var echoed []string
	b.OnDeliver(func(m []byte) {
		if err := b.Send(append([]byte("re: "), m...)); err != nil {
			t.Error(err)
		}
	})
	a.OnDeliver(func(m []byte) { echoed = append(echoed, string(m)) })
	for i := 0; i < 3; i++ {
		if err := a.Send([]byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(echoed) != "[re: 0 re: 1 re: 2]" {
		t.Fatalf("baseline echoes = %q", echoed)
	}
}

// TestRecvHarness checks the receive replay fixture: each deliver routes
// its connection's captured frame to that connection alone, and a server
// connection's reply leaves through the tapped transport.
func TestRecvHarness(t *testing.T) {
	h := newRecvHarness(t, 3)
	for k := 0; k < 4; k++ {
		h.deliver(1)
	}
	h.deliver(2)
	// Each count includes the capture send.
	for i, want := range []uint64{1, 5, 2} {
		if got := h.delivered(i); got != want {
			t.Fatalf("delivered(%d) = %d, want %d", i, got, want)
		}
	}
	if err := h.conns[0].Send([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	if st := h.conns[0].Stats(); st.Sent != 1 || h.server.Snapshot().TxErrors != 0 {
		t.Fatalf("reply: conn stats %+v, endpoint stats %+v", st, h.server.Snapshot())
	}
}

// TestShedHarness pins the admission fixture: deliver routes to the
// admitted connection, shed is refused every time.
func TestShedHarness(t *testing.T) {
	sh := newShedHarness(t, 1<<20)
	before := sh.server.Snapshot()
	for i := 0; i < 100; i++ {
		sh.deliver()
		sh.shed()
	}
	after := sh.server.Snapshot()
	if after.Conns != 1 {
		t.Fatalf("Conns = %d, want 1", after.Conns)
	}
	if got := after.ShedTotal - before.ShedTotal; got != 100 {
		t.Fatalf("ShedTotal grew %d, want 100", got)
	}
	if after.StormsDetected != 0 {
		t.Fatalf("quiet harness tripped the storm detector")
	}
}

// TestAcceptAllMirrorsIdentification pins the accept hook: the peer's
// identification, stripped of its padding, becomes the mirror-image spec
// addressed to the datagram's source.
func TestAcceptAllMirrorsIdentification(t *testing.T) {
	spec, ok := acceptAll(layers.IdentInfo{
		Src: []byte("stranger\x00\x00"), Dst: []byte("server\x00"),
		SrcPort: 3000, DstPort: 2000, Epoch: 4,
	}, "Z")
	want := core.PeerSpec{
		Addr: "Z", LocalID: []byte("server"), RemoteID: []byte("stranger"),
		LocalPort: 2000, RemotePort: 3000, Epoch: 4,
	}
	if !ok || fmt.Sprint(spec) != fmt.Sprint(want) {
		t.Fatalf("acceptAll = %+v, %v; want %+v, true", spec, ok, want)
	}
}
