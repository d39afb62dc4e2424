package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"paccel/internal/bits"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/stack"
	"paccel/internal/udp"
	"paccel/internal/vclock"
)

// TestMalformedDatagramsNeverPanic floods an endpoint with random and
// truncated datagrams; the router must drop them all without panicking or
// delivering anything.
func TestMalformedDatagramsNeverPanic(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	raw := r.net.Endpoint("attacker")
	delivered := r.fromA.count()

	rng := rand.New(rand.NewSource(99))
	// Pure noise of every length.
	for n := 0; n < 200; n++ {
		buf := make([]byte, rng.Intn(120))
		rng.Read(buf)
		if err := raw.Send("B", buf); err != nil {
			t.Fatal(err)
		}
	}
	// Valid preambles with garbage bodies: random cookies, CIP with
	// truncated identifications.
	for n := 0; n < 200; n++ {
		pre := Preamble{
			ConnIDPresent: n%2 == 0,
			Cookie:        rng.Uint64() & CookieMask,
		}
		body := make([]byte, rng.Intn(100))
		rng.Read(body)
		if err := raw.Send("B", pre.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if err := raw.Send("B", append(pre.Encode(nil), body...)); err != nil {
			t.Fatal(err)
		}
	}
	r.settleNet(time.Second)
	if r.fromA.count() != delivered {
		t.Fatal("noise was delivered to the application")
	}
	// And the legitimate connection still works afterwards.
	if err := r.a.Send([]byte("still alive")); err != nil {
		t.Fatal(err)
	}
	if r.fromA.count() != delivered+1 {
		t.Fatal("connection broken by noise")
	}
}

// TestQuickRandomDatagrams is the property form: arbitrary bytes into the
// router never panic and never reach the application.
func TestQuickRandomDatagrams(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	raw := r.net.Endpoint("fuzzer")
	f := func(data []byte) bool {
		before := r.fromA.count()
		if err := raw.Send("B", data); err != nil {
			return len(data) > netsim.DefaultMTU // only oversize may error
		}
		return r.fromA.count() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedLegitimateDatagrams replays every prefix of a real
// datagram; all must be dropped cleanly (checksum or length checks).
func TestTruncatedLegitimateDatagrams(t *testing.T) {
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	var captured []byte
	epA, err := NewEndpoint(Config{
		Transport: &frameTap{Transport: net.Endpoint("A"), onSend: func(d []byte) {
			captured = append([]byte(nil), d...)
		}},
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := NewEndpoint(Config{Transport: net.Endpoint("B"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	sa, sb := specAB()
	a, err := epA.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(sb)
	if err != nil {
		t.Fatal(err)
	}
	var got sink
	b.OnDeliver(got.add)
	if err := a.Send([]byte("template message")); err != nil {
		t.Fatal(err)
	}
	if got.count() != 1 {
		t.Fatal("template not delivered")
	}
	raw := net.Endpoint("A")
	for cut := 0; cut < len(captured); cut++ {
		if err := raw.Send("B", captured[:cut]); err != nil {
			t.Fatal(err)
		}
	}
	if got.count() != 1 {
		t.Fatalf("truncated datagram delivered (count %d)", got.count())
	}
}

// TestMultiClientServer is the §6 "Maximum Load" scenario: one server
// endpoint, a PA per client, all clients doing RPCs concurrently.
func TestMultiClientServer(t *testing.T) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	server, err := NewEndpoint(Config{
		Transport: net.Endpoint("server"),
		Accept: func(remote layers.IdentInfo, netSrc string) (PeerSpec, bool) {
			return PeerSpec{
				Addr:      netSrc,
				LocalID:   bytes.TrimRight(remote.Dst, "\x00"),
				RemoteID:  bytes.TrimRight(remote.Src, "\x00"),
				LocalPort: remote.DstPort, RemotePort: remote.SrcPort,
				Epoch: remote.Epoch,
			}, true
		},
		OnConn: func(c *Conn) {
			c.OnDeliver(func(req []byte) {
				if err := c.Send(req); err != nil {
					t.Error(err)
				}
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	const clients = 8
	const rpcs = 200
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			host := fmt.Sprintf("client%d", id)
			ep, err := NewEndpoint(Config{Transport: net.Endpoint(host)})
			if err != nil {
				errs <- err
				return
			}
			defer ep.Close()
			conn, err := ep.Dial(PeerSpec{
				Addr:    "server",
				LocalID: []byte(host), RemoteID: []byte("server"),
				LocalPort: uint16(10 + id), RemotePort: 1, Epoch: 1,
			})
			if err != nil {
				errs <- err
				return
			}
			done := make(chan []byte, 1)
			conn.OnDeliver(func(p []byte) { done <- append([]byte(nil), p...) })
			want := []byte(fmt.Sprintf("req-from-%d", id))
			for r := 0; r < rpcs; r++ {
				if err := conn.Send(want); err != nil {
					errs <- err
					return
				}
				select {
				case got := <-done:
					if !bytes.Equal(got, want) {
						errs <- fmt.Errorf("client %d: cross-talk: got %q", id, got)
						return
					}
				case <-time.After(5 * time.Second):
					errs <- fmt.Errorf("client %d: rpc %d timeout", id, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := server.Snapshot(); st.Accepted != clients {
		t.Fatalf("accepted = %d", st.Accepted)
	}
}

// TestOverUDP runs the PA between two real UDP sockets on loopback —
// the cross-process transport, in-process.
func TestOverUDP(t *testing.T) {
	ta, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	epA, err := NewEndpoint(Config{Transport: ta})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := NewEndpoint(Config{Transport: tb})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	a, err := epA.Dial(PeerSpec{
		Addr: tb.LocalAddr(), LocalID: []byte("alice"), RemoteID: []byte("bob"),
		LocalPort: 1, RemotePort: 2, Epoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(PeerSpec{
		Addr: ta.LocalAddr(), LocalID: []byte("bob"), RemoteID: []byte("alice"),
		LocalPort: 2, RemotePort: 1, Epoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.OnDeliver(func(p []byte) {
		if err := b.Send(append([]byte("echo:"), p...)); err != nil {
			t.Error(err)
		}
	})
	got := make(chan []byte, 1)
	a.OnDeliver(func(p []byte) { got <- append([]byte(nil), p...) })
	for i := 0; i < 50; i++ {
		if err := a.Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		select {
		case d := <-got:
			if string(d) != fmt.Sprintf("echo:m%d", i) {
				t.Fatalf("got %q", d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout at %d", i)
		}
	}
	if st := a.Stats(); st.ConnIDSent != 1 {
		t.Fatalf("ConnIDSent = %d", st.ConnIDSent)
	}
}

// TestHeartbeatAndStampInStack runs a six-layer stack (stamp + heartbeat
// added) through the engine under the manual clock: keepalives flow while
// idle, the silence callback fires on partition naming the silent peer,
// and the latency meter samples deliveries.
func TestHeartbeatAndStampInStack(t *testing.T) {
	silentPeers := make(chan string, 4)
	var oneWays int
	build := BuildStack(StackOptions{
		Stamp:     func(time.Duration) { oneWays++ },
		Heartbeat: 10 * time.Millisecond,
		OnSilence: func(peer []byte, _ time.Duration) { silentPeers <- string(peer) },
	})
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.Build = build
		cfgB.Build = build
	})
	// Data flows; the stamp layer on B samples one-way latency.
	if err := r.a.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if r.fromA.count() != 1 {
		t.Fatal("delivery failed with 6-layer stack")
	}
	if oneWays != 1 {
		t.Fatalf("stamp samples = %d", oneWays)
	}
	// Idle time: keepalives flow, keeping both sides alive.
	r.settleNet(100 * time.Millisecond)
	ls := r.a.Layers()
	hbA := ls[len(ls)-2].(*layers.Heartbeat)
	if hbA.Beats == 0 {
		t.Fatal("no keepalives sent")
	}
	if hbA.Heard == 0 {
		t.Fatal("no keepalives heard")
	}
	select {
	case peer := <-silentPeers:
		t.Fatalf("false silence of %q", peer)
	default:
	}
	// Partition B→A: A stops hearing and reports bob silent.
	r.net.SetLinkDown("B", "A", true)
	r.settleNet(200 * time.Millisecond)
	select {
	case peer := <-silentPeers:
		if peer != "bob" {
			t.Fatalf("silence reported for %q, want the remote ID %q", peer, "bob")
		}
	default:
		t.Fatal("silence not detected after partition")
	}
}

// TestHeartbeatHearsFastPathData: every frame that reaches the heartbeat
// layer proves the peer alive, including data frames that match the
// prediction and never run a pre-phase. B checks for silence every 10 ms;
// A's keepalives are 10 s apart, so in this test B hears only A's data,
// which streams at one message per 5 ms on the fast path.
func TestHeartbeatHearsFastPathData(t *testing.T) {
	var silences []time.Duration
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.Build = BuildStack(StackOptions{Heartbeat: 10 * time.Second})
		cfgB.Build = BuildStack(StackOptions{
			Heartbeat: 10 * time.Millisecond,
			OnSilence: func(_ []byte, d time.Duration) { silences = append(silences, d) },
		})
	})
	const n = 40
	for i := 0; i < n; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.settleNet(5 * time.Millisecond)
	}
	if r.fromA.count() != n {
		t.Fatalf("B delivered %d of %d", r.fromA.count(), n)
	}
	if st := r.b.Stats(); st.FastDelivers < n-1 {
		t.Fatalf("B took the fast path %d times, want at least %d", st.FastDelivers, n-1)
	}
	if len(silences) != 0 {
		t.Fatalf("B reported silence %v while A's data kept arriving", silences)
	}
}

// TestWireDeterminism runs the identical message sequence twice with
// pinned cookies; the captured wire streams must be byte-identical —
// a regression pin for the whole send path.
func TestWireDeterminism(t *testing.T) {
	run := func() [][]byte {
		clk := vclock.NewManual(t0)
		net := netsim.New(clk, netsim.Config{})
		var wires [][]byte
		cap := &captureAll{Transport: net.Endpoint("A"), out: &wires}
		epA, err := NewEndpoint(Config{Transport: cap, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		defer epA.Close()
		epB, err := NewEndpoint(Config{Transport: net.Endpoint("B"), Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		defer epB.Close()
		sa, sb := specAB()
		sa.OutCookie, sb.OutCookie = 1111, 2222
		a, err := epA.Dial(sa)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := epB.Dial(sb); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := a.Send([]byte{byte(i), 0x55}); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Millisecond)
		}
		return wires
	}
	w1, w2 := run(), run()
	if len(w1) != len(w2) {
		t.Fatalf("stream lengths differ: %d vs %d", len(w1), len(w2))
	}
	for i := range w1 {
		if !bytes.Equal(w1[i], w2[i]) {
			t.Fatalf("datagram %d differs:\n%x\n%x", i, w1[i], w2[i])
		}
	}
}

type captureAll struct {
	Transport
	out *[][]byte
}

func (c *captureAll) Send(dst string, d []byte) error {
	*c.out = append(*c.out, append([]byte(nil), d...))
	return c.Transport.Send(dst, d)
}

// TestQuickExactlyOnceUnderAdversity is the system-level property: any
// sequence of payloads over a lossy, reordering, duplicating network is
// delivered exactly once, in order, intact.
func TestQuickExactlyOnceUnderAdversity(t *testing.T) {
	f := func(payloads [][]byte, seed int64) bool {
		if len(payloads) > 40 {
			payloads = payloads[:40]
		}
		for i, p := range payloads {
			if len(p) > 256 {
				payloads[i] = p[:256]
			}
		}
		r := newRig(t, netsim.Config{
			Latency:     30 * time.Microsecond,
			LossRate:    0.2,
			DupRate:     0.2,
			ReorderRate: 0.2,
			Seed:        seed,
		}, nil)
		for _, p := range payloads {
			if err := r.a.Send(p); err != nil {
				return false
			}
			r.settleNet(500 * time.Microsecond)
		}
		for i := 0; i < 200 && r.fromA.count() < len(payloads); i++ {
			r.settleNet(300 * time.Millisecond)
		}
		if r.fromA.count() != len(payloads) {
			return false
		}
		for i, p := range payloads {
			if !bytes.Equal(r.fromA.get(i), p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReorderDeliversOnceInOrder runs a stream over a reordering network:
// the window buffers early frames and releases them in order, so every
// message arrives exactly once and in sequence.
func TestReorderDeliversOnceInOrder(t *testing.T) {
	build := BuildStack(StackOptions{Naks: true})
	r := newRig(t, netsim.Config{
		Latency: 200 * time.Microsecond, ReorderRate: 0.4, Seed: 31,
	}, func(cfgA, cfgB *Config) {
		cfgA.Build = build
		cfgB.Build = build
	})
	const n = 60
	for i := 0; i < n; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.settleNet(100 * time.Microsecond)
	}
	for i := 0; i < 200 && r.fromA.count() < n; i++ {
		r.settleNet(300 * time.Millisecond)
	}
	if r.fromA.count() != n {
		t.Fatalf("delivered %d/%d", r.fromA.count(), n)
	}
	for i := 0; i < n; i++ {
		if r.fromA.get(i)[0] != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

// TestEndpointConstructionErrors covers the configuration error paths.
func TestEndpointConstructionErrors(t *testing.T) {
	if _, err := NewEndpoint(Config{}); err == nil {
		t.Fatal("nil transport accepted")
	}
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	// A stack without an identification layer is rejected.
	noIdent := func(spec PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
		return []stack.Layer{layers.NewChksum(), layers.NewWindow()}, nil
	}
	if _, err := NewEndpoint(Config{Transport: net.Endpoint("A"), Clock: clk, Build: noIdent}); err == nil {
		t.Fatal("identification-free stack accepted")
	}
	// A dial whose stack has the plan's shape but hides its identification
	// layer behind a plain stack.Layer is refused, not routed by a nil
	// Identifier: replay rejects it, and the recompile finds no layer.
	hidden := func(spec PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
		ls, err := DefaultStack(spec, order)
		if err == nil && spec.Epoch == 1 {
			ls[3] = struct{ stack.Layer }{ls[3]}
		}
		return ls, err
	}
	epHidden, err := NewEndpoint(Config{Transport: net.Endpoint("E"), Clock: clk, Build: hidden})
	if err != nil {
		t.Fatal(err)
	}
	defer epHidden.Close()
	if _, err := epHidden.Dial(PeerSpec{Addr: "F", LocalID: []byte("x"), RemoteID: []byte("y"), Epoch: 1}); err == nil {
		t.Fatal("stack without an identification layer dialled")
	}
	// A builder error propagates.
	failing := func(PeerSpec, bits.ByteOrder) ([]stack.Layer, error) {
		return nil, fmt.Errorf("boom")
	}
	if _, err := NewEndpoint(Config{Transport: net.Endpoint("B"), Clock: clk, Build: failing}); err == nil {
		t.Fatal("failing builder accepted")
	}
	// Dial after endpoint close fails.
	ep, err := NewEndpoint(Config{Transport: net.Endpoint("C"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	ep.Close()
	if _, err := ep.Dial(PeerSpec{Addr: "D", LocalID: []byte("x"), RemoteID: []byte("y")}); err == nil {
		t.Fatal("Dial after Close accepted")
	}
}

// TestEndpointCloseShutsConnections verifies Close cascades.
func TestEndpointCloseShutsConnections(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	if err := r.epA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.a.Send([]byte("x")); err != ErrConnClosed {
		t.Fatalf("err = %v", err)
	}
	if err := r.epA.Close(); err != nil {
		t.Fatal("double endpoint close")
	}
	if r.epA.IdentSize() != 76 {
		t.Fatalf("IdentSize = %d", r.epA.IdentSize())
	}
}
