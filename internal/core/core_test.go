package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

var t0 = time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC)

// rig is a two-endpoint test fixture over a simulated network.
type rig struct {
	clk      *vclock.Manual
	net      *netsim.Network
	epA, epB *Endpoint
	a, b     *Conn
	fromA    *sink // messages delivered at B
	fromB    *sink // messages delivered at A
}

type sink struct {
	mu   sync.Mutex
	msgs [][]byte
}

func (s *sink) add(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs = append(s.msgs, append([]byte(nil), p...))
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *sink) get(i int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.msgs[i]
}

func specAB() (PeerSpec, PeerSpec) {
	a := PeerSpec{
		Addr: "B", LocalID: []byte("alice"), RemoteID: []byte("bob"),
		LocalPort: 1, RemotePort: 2, Epoch: 7,
	}
	b := PeerSpec{
		Addr: "A", LocalID: []byte("bob"), RemoteID: []byte("alice"),
		LocalPort: 2, RemotePort: 1, Epoch: 7,
	}
	return a, b
}

// newRig builds two dialled endpoints A and B over netCfg. mod tweaks the
// endpoint configs before creation.
func newRig(t *testing.T, netCfg netsim.Config, mod func(cfgA, cfgB *Config)) *rig {
	t.Helper()
	r := &rig{clk: vclock.NewManual(t0)}
	r.net = netsim.New(r.clk, netCfg)
	cfgA := Config{Transport: r.net.Endpoint("A"), Clock: r.clk}
	cfgB := Config{Transport: r.net.Endpoint("B"), Clock: r.clk}
	if mod != nil {
		mod(&cfgA, &cfgB)
	}
	var err error
	if r.epA, err = NewEndpoint(cfgA); err != nil {
		t.Fatal(err)
	}
	if r.epB, err = NewEndpoint(cfgB); err != nil {
		t.Fatal(err)
	}
	sa, sb := specAB()
	if r.a, err = r.epA.Dial(sa); err != nil {
		t.Fatal(err)
	}
	if r.b, err = r.epB.Dial(sb); err != nil {
		t.Fatal(err)
	}
	r.fromA, r.fromB = &sink{}, &sink{}
	r.b.OnDeliver(r.fromA.add)
	r.a.OnDeliver(r.fromB.add)
	t.Cleanup(func() { r.epA.Close(); r.epB.Close() })
	return r
}

// settleNet advances the virtual clock far enough for every queued
// delivery, ack and retransmission to complete.
func (r *rig) settleNet(d time.Duration) { r.clk.Advance(d) }

func TestPingPong(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	if err := r.a.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if r.fromA.count() != 1 || !bytes.Equal(r.fromA.get(0), []byte("ping")) {
		t.Fatalf("B got %d messages", r.fromA.count())
	}
	if err := r.b.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if r.fromB.count() != 1 || !bytes.Equal(r.fromB.get(0), []byte("pong")) {
		t.Fatalf("A got %d messages", r.fromB.count())
	}
}

func TestConnIDOnlyOnFirstMessage(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	for i := 0; i < 5; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r.settleNet(time.Second)
	st := r.a.Stats()
	if st.ConnIDSent != 1 {
		t.Fatalf("ConnIDSent = %d, want 1 (first message only)", st.ConnIDSent)
	}
	if r.fromA.count() != 5 {
		t.Fatalf("delivered %d", r.fromA.count())
	}
}

func TestFastPathEngages(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	const n = 20
	for i := 0; i < n; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.settleNet(10 * time.Millisecond) // let acks flow
	}
	sa := r.a.Stats()
	if sa.FastSends != n {
		t.Fatalf("FastSends = %d, want %d", sa.FastSends, n)
	}
	sb := r.b.Stats()
	// The first delivery carries the identification (slow); the rest are
	// predicted.
	if sb.SlowDelivers != 1 {
		t.Fatalf("SlowDelivers = %d, want 1", sb.SlowDelivers)
	}
	if sb.FastDelivers != n-1 {
		t.Fatalf("FastDelivers = %d, want %d", sb.FastDelivers, n-1)
	}
}

func TestRPCFromCallback(t *testing.T) {
	// The RPC pattern: B replies from inside its delivery callback, over
	// a synchronous network — must not deadlock.
	r := newRig(t, netsim.Config{}, nil)
	r.b.OnDeliver(func(p []byte) {
		if err := r.b.Send(append([]byte("re:"), p...)); err != nil {
			t.Error(err)
		}
	})
	for i := 0; i < 10; i++ {
		if err := r.a.Send([]byte(fmt.Sprintf("req%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if r.fromB.count() != 10 {
		t.Fatalf("replies = %d", r.fromB.count())
	}
	if got := string(r.fromB.get(3)); got != "re:req3" {
		t.Fatalf("reply = %q", got)
	}
}

func TestLossRecovery(t *testing.T) {
	r := newRig(t, netsim.Config{
		Latency:  50 * time.Microsecond,
		LossRate: 0.3,
		Seed:     11,
	}, nil)
	const n = 100
	for i := 0; i < n; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.settleNet(time.Millisecond)
	}
	// Let retransmissions complete.
	for i := 0; i < 100 && r.fromA.count() < n; i++ {
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

func TestReorderAndDuplicationRecovery(t *testing.T) {
	r := newRig(t, netsim.Config{
		Latency:     100 * time.Microsecond,
		ReorderRate: 0.3,
		DupRate:     0.3,
		Seed:        13,
	}, nil)
	const n = 80
	for i := 0; i < n; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.settleNet(50 * time.Microsecond)
	}
	for i := 0; i < 100 && r.fromA.count() < n; i++ {
		r.settleNet(300 * time.Millisecond)
	}
	if r.fromA.count() != n {
		t.Fatalf("delivered %d/%d (exactly-once violated?)", r.fromA.count(), n)
	}
	for i := 0; i < n; i++ {
		if r.fromA.get(i)[0] != byte(i) {
			t.Fatalf("out of order at %d: got %d", i, r.fromA.get(i)[0])
		}
	}
}

func TestWindowBackpressureAndPacking(t *testing.T) {
	r := newRig(t, netsim.Config{Latency: time.Millisecond}, nil)
	// Window 16: a burst of 40 equal-size messages fills the window and
	// backlogs the rest; when acks reopen it, the backlog is packed.
	const n = 40
	for i := 0; i < n; i++ {
		if err := r.a.Send([]byte{byte(i), 0xAA}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.a.Stats()
	if st.Backlogged == 0 {
		t.Fatal("no backpressure observed")
	}
	for i := 0; i < 50 && r.fromA.count() < n; i++ {
		r.settleNet(50 * time.Millisecond)
	}
	if r.fromA.count() != n {
		t.Fatalf("delivered %d/%d", r.fromA.count(), n)
	}
	for i := 0; i < n; i++ {
		if r.fromA.get(i)[0] != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
	st = r.a.Stats()
	if st.PackedBatches == 0 {
		t.Fatal("backlog was not packed (§3.4)")
	}
	if unpacked := r.b.Stats().PackedMsgs; unpacked == 0 {
		t.Fatal("receiver did not unpack")
	}
}

// fragBuild is the default stack with a 100-byte fragmentation threshold.
var fragBuild = BuildStack(StackOptions{FragThreshold: 100})

func TestFragmentation(t *testing.T) {
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.Build = fragBuild
		cfgB.Build = fragBuild
	})
	big := bytes.Repeat([]byte("0123456789"), 57) // 570 bytes -> 6 fragments
	if err := r.a.Send(big); err != nil {
		t.Fatal(err)
	}
	r.settleNet(time.Second)
	if r.fromA.count() != 1 {
		t.Fatalf("delivered %d messages, want 1 reassembled", r.fromA.count())
	}
	if !bytes.Equal(r.fromA.get(0), big) {
		t.Fatal("reassembled payload differs")
	}
	// Fragments take the slow path by design (§6).
	if st := r.a.Stats(); st.SlowSends == 0 {
		t.Fatal("oversized send did not take the slow path")
	}
}

// TestFragmentsStayInOrderAcrossLoss streams small messages and
// fragmented ones over a lossy network. When a gap closes, the window
// releases every buffered frame behind it at once; a fragment train among
// them must be reassembled and delivered in its place, before the frames
// that followed it. Each message must arrive exactly once and in order.
func TestFragmentsStayInOrderAcrossLoss(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		r := newRig(t, netsim.Config{Latency: 50 * time.Microsecond, LossRate: 0.05, Seed: seed},
			func(cfgA, cfgB *Config) {
				cfgA.Build = fragBuild
				cfgB.Build = fragBuild
			})
		var want []string
		for i := 0; i < 60; i++ {
			p := fmt.Sprintf("m%03d", i)
			if i%3 == 0 { // 320 B: four fragments
				p += strings.Repeat(".", 316)
			}
			want = append(want, p)
			if err := r.a.Send([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
		r.settleNet(5 * time.Second)
		var got []string
		for i := 0; i < r.fromA.count(); i++ {
			got = append(got, string(r.fromA.get(i)))
		}
		name := func(ps []string) string {
			var b strings.Builder
			for _, p := range ps {
				b.WriteString(p[:min(len(p), 4)] + " ")
			}
			return b.String()
		}
		if name(got) != name(want) || strings.Join(got, "") != strings.Join(want, "") {
			t.Errorf("seed %d: delivered %d of %d messages, out of order or altered:\n got  %s\n want %s",
				seed, len(got), len(want), name(got), name(want))
		}
	}
}

func TestCookieHandshake(t *testing.T) {
	// §2.2's alternative: agree on cookies up front; no identification
	// ever crosses the wire.
	sa, sb := specAB()
	sa.OutCookie, sa.ExpectInCookie, sa.SkipFirstConnID = 111, 222, true
	sb.OutCookie, sb.ExpectInCookie, sb.SkipFirstConnID = 222, 111, true
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	epA, err := NewEndpoint(Config{Transport: net.Endpoint("A"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := NewEndpoint(Config{Transport: net.Endpoint("B"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	a, err := epA.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(sb)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	b.OnDeliver(func(p []byte) { got = append([]byte(nil), p...) })
	if err := a.Send([]byte("no-ident")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if !bytes.Equal(got, []byte("no-ident")) {
		t.Fatalf("got %q", got)
	}
	if st := a.Stats(); st.ConnIDSent != 0 {
		t.Fatalf("ConnIDSent = %d, want 0", st.ConnIDSent)
	}
}

func TestUnknownCookieDropped(t *testing.T) {
	sa, _ := specAB()
	sa.OutCookie, sa.SkipFirstConnID = 333, true // B never learns it
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	epA, err := NewEndpoint(Config{Transport: net.Endpoint("A"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := NewEndpoint(Config{Transport: net.Endpoint("B"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	a, err := epA.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	if st := epB.Snapshot(); st.UnknownCookie != 1 {
		t.Fatalf("UnknownCookie = %d", st.UnknownCookie)
	}
}

func TestAcceptFlow(t *testing.T) {
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	var serverConn *Conn
	var served sink
	epB, err := NewEndpoint(Config{
		Transport: net.Endpoint("B"),
		Clock:     clk,
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
			serverConn = c
			c.OnDeliver(served.add)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	epA, err := NewEndpoint(Config{Transport: net.Endpoint("A"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	sa, _ := specAB()
	a, err := epA.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("hello server")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if served.count() != 1 || !bytes.Equal(served.get(0), []byte("hello server")) {
		t.Fatalf("server got %d messages", served.count())
	}
	if serverConn == nil {
		t.Fatal("OnConn not invoked")
	}
	if st := epB.Snapshot(); st.Accepted != 1 {
		t.Fatalf("Accepted = %d", st.Accepted)
	}
	// And the server can reply over the accepted connection.
	var back sink
	a.OnDeliver(back.add)
	if err := serverConn.Send([]byte("welcome")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if back.count() != 1 || !bytes.Equal(back.get(0), []byte("welcome")) {
		t.Fatalf("client got %d messages", back.count())
	}
}

func TestCrossEndianDelivery(t *testing.T) {
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.Order = bits.LittleEndian
		cfgB.Order = bits.BigEndian
	})
	for i := 0; i < 10; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.settleNet(10 * time.Millisecond)
	}
	if r.fromA.count() != 10 {
		t.Fatalf("delivered %d", r.fromA.count())
	}
	// Heterogeneous peers are correct but never take the receive fast
	// path (prediction buffers are native-order).
	if st := r.b.Stats(); st.FastDelivers != 0 {
		t.Fatalf("FastDelivers = %d across byte orders", st.FastDelivers)
	}
	// And the reverse direction works too.
	if err := r.b.Send([]byte("back")); err != nil {
		t.Fatal(err)
	}
	r.settleNet(10 * time.Millisecond)
	if r.fromB.count() != 1 || !bytes.Equal(r.fromB.get(0), []byte("back")) {
		t.Fatal("reverse direction failed")
	}
}

func TestCorruptionDropped(t *testing.T) {
	// A datagram corrupted in flight is dropped by the delivery filter
	// (checksum) and recovered by retransmission... netsim does not
	// corrupt, so inject manually through a raw endpoint.
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	epB, err := NewEndpoint(Config{Transport: net.Endpoint("B"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	_, sb := specAB()
	b, err := epB.Dial(sb)
	if err != nil {
		t.Fatal(err)
	}
	var got sink
	b.OnDeliver(got.add)

	// Capture a legitimate datagram from A, corrupt its payload.
	rawA := net.Endpoint("A")
	var captured []byte
	epA, err := NewEndpoint(Config{Transport: &frameTap{Transport: rawA, onSend: func(d []byte) {
		captured = append([]byte(nil), d...)
	}}, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	sa, _ := specAB()
	a, err := epA.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("nothing captured")
	}
	if got.count() != 1 {
		t.Fatalf("clean message not delivered: %d", got.count())
	}
	bad := append([]byte(nil), captured...)
	bad[len(bad)-1] ^= 0xFF // corrupt last payload byte
	rawA.Send("B", bad)
	if got.count() != 1 {
		t.Fatal("corrupted datagram was delivered")
	}
	if st := b.Stats(); st.Dropped == 0 {
		t.Fatal("corruption not counted as dropped")
	}
}

// frameTap shows every outgoing datagram to onSend before forwarding it.
// It deliberately hides the inner transport's SendBatch, so the engine
// hands it one wire image per call.
type frameTap struct {
	Transport
	onSend func(wire []byte)
}

func (f *frameTap) Send(dst string, d []byte) error {
	f.onSend(d)
	return f.Transport.Send(dst, d)
}

func TestBacklogFull(t *testing.T) {
	r := newRig(t, netsim.Config{Latency: time.Hour}, func(cfgA, cfgB *Config) {
		cfgA.MaxBacklog = 4
	})
	// Window 16 + backlog 4: sends 0..15 fly, 16..19 backlog, 20 errors.
	var err error
	for i := 0; i < 21; i++ {
		err = r.a.Send([]byte{byte(i)})
		if i < 20 && err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err != ErrBacklogFull {
		t.Fatalf("final send err = %v", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	if err := r.a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.a.Send([]byte("x")); err != ErrConnClosed {
		t.Fatalf("err = %v", err)
	}
	if err := r.a.Close(); err != nil {
		t.Fatal("double close errored")
	}
}

func TestModesIdleAtRest(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	r.a.Send([]byte("x"))
	r.settleNet(time.Second)
	s, rv := r.a.Modes()
	if s != Idle || rv != Idle {
		t.Fatalf("modes = %v, %v", s, rv)
	}
	if Idle.String() != "IDLE" || Pre.String() != "PRE" || Post.String() != "POST" {
		t.Fatal("mode names")
	}
}

func TestPackMixedSizes(t *testing.T) {
	r := newRig(t, netsim.Config{Latency: time.Millisecond}, nil)
	// Fill the window, then backlog mixed sizes: packing must deliver
	// everything in order, byte for byte.
	var want [][]byte
	for i := 0; i < 30; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 1+i%3)
		want = append(want, p)
		if err := r.a.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60 && r.fromA.count() < len(want); i++ {
		r.settleNet(50 * time.Millisecond)
	}
	if r.fromA.count() != len(want) {
		t.Fatalf("delivered %d/%d", r.fromA.count(), len(want))
	}
	for i := range want {
		if !bytes.Equal(r.fromA.get(i), want[i]) {
			t.Fatalf("message %d differs", i)
		}
	}
	// Sizes cycle 1, 2, 3, so any batch of two or more mixes sizes.
	if st := r.a.Stats(); st.PackedBatches == 0 {
		t.Fatalf("no packed batches (backlogged %d): the backlog never mixed sizes", st.Backlogged)
	}
}

func TestGoldenWireFormat(t *testing.T) {
	// Regression-pin the Fig. 1 wire format: preamble (8B, cookie+flags),
	// then the compact class headers, packing byte, payload.
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	var captured []byte
	ep, err := NewEndpoint(Config{
		Transport: &frameTap{Transport: net.Endpoint("A"), onSend: func(d []byte) {
			captured = append([]byte(nil), d...)
		}},
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	sa, _ := specAB()
	sa.OutCookie = 0x2AAAAAAAAAAAAAAA & CookieMask
	sa.SkipFirstConnID = true
	c, err := ep.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte{0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	// Sizes: proto-spec = seq32+type2+isfrag1+last1 = 36 bits -> 5 B;
	// msg-spec = len16+ck16 = 4 B; gossip = ack32 = 4 B; packing = 1 B.
	wantLen := PreambleSize + 5 + 4 + 4 + 1 + 2
	if len(captured) != wantLen {
		t.Fatalf("wire length = %d, want %d", len(captured), wantLen)
	}
	pre, err := DecodePreamble(captured)
	if err != nil {
		t.Fatal(err)
	}
	if pre.ConnIDPresent {
		t.Fatal("CIP set despite SkipFirstConnID")
	}
	if pre.Cookie != sa.OutCookie {
		t.Fatalf("cookie = %#x", pre.Cookie)
	}
	if pre.Order != bits.BigEndian {
		t.Fatal("order bit")
	}
	// Payload travels in the clear at the tail.
	if !bytes.Equal(captured[wantLen-2:], []byte{0xDE, 0xAD}) {
		t.Fatal("payload not at tail")
	}
	// The normal-case header total is well under the paper's 40-byte
	// U-Net threshold.
	if hdr := wantLen - 2; hdr > 40 {
		t.Fatalf("normal header = %d bytes, paper demands < 40", hdr)
	}
}

func TestHeaderCompactness(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	s := r.a.Schema()
	if s.TotalSize() > 16 {
		t.Fatalf("normal headers = %d bytes", s.TotalSize())
	}
	if r.epA.IdentSize() != 76 {
		t.Fatalf("ident = %d bytes, want 76", r.epA.IdentSize())
	}
}

func TestManyMessagesStream(t *testing.T) {
	r := newRig(t, netsim.Config{Latency: 10 * time.Microsecond}, nil)
	const n = 1000
	sent := 0
	for sent < n {
		if err := r.a.Send([]byte{byte(sent), byte(sent >> 8)}); err != nil {
			t.Fatal(err)
		}
		sent++
		if sent%8 == 0 {
			r.settleNet(100 * time.Microsecond)
		}
	}
	for i := 0; i < 100 && r.fromA.count() < n; i++ {
		r.settleNet(50 * time.Millisecond)
	}
	if r.fromA.count() != n {
		t.Fatalf("delivered %d/%d", r.fromA.count(), n)
	}
	for i := 0; i < n; i++ {
		m := r.fromA.get(i)
		if int(m[0])|int(m[1])<<8 != i {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestPreambleRoundTrip(t *testing.T) {
	for _, p := range []Preamble{
		{ConnIDPresent: true, Order: bits.LittleEndian, Cookie: 12345},
		{ConnIDPresent: false, Order: bits.BigEndian, Cookie: CookieMask},
		{Cookie: 0},
	} {
		b := p.Encode(nil)
		got, err := DecodePreamble(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Fatalf("round trip: %+v != %+v", got, p)
		}
	}
	if _, err := DecodePreamble([]byte{1, 2, 3}); err == nil {
		t.Fatal("short preamble accepted")
	}
}

func TestNewCookie(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		c, err := NewCookie()
		if err != nil {
			t.Fatal(err)
		}
		if c == 0 || c > CookieMask {
			t.Fatalf("cookie %#x out of range", c)
		}
		if seen[c] {
			t.Fatal("cookie collision in 100 draws")
		}
		seen[c] = true
	}
}

func TestPackingCodec(t *testing.T) {
	cases := [][]int{
		nil,
		{42},
		{8, 8, 8, 8},
		{1, 2, 3},
		{0, 0},
	}
	for _, sizes := range cases {
		enc := encodePacking(nil, sizes)
		got, n, err := decodePacking(enc)
		if err != nil {
			t.Fatalf("%v: %v", sizes, err)
		}
		if n != len(enc) {
			t.Fatalf("%v: consumed %d of %d", sizes, n, len(enc))
		}
		if len(sizes) <= 1 {
			if got != nil {
				t.Fatalf("%v: got %v", sizes, got)
			}
			continue
		}
		if len(got) != len(sizes) {
			t.Fatalf("%v: got %v", sizes, got)
		}
		for i := range sizes {
			if got[i] != sizes[i] {
				t.Fatalf("%v: got %v", sizes, got)
			}
		}
	}
	// Malformed headers.
	for _, b := range [][]byte{{}, {9}, {1}, {1, 0x80}, {2, 3, 1}} {
		if _, _, err := decodePacking(b); err == nil {
			t.Fatalf("decodePacking(%v) accepted", b)
		}
	}
	if err := checkPackedSizes([]int{3, 4}, 7); err != nil {
		t.Fatal(err)
	}
	if err := checkPackedSizes([]int{3, 4}, 8); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestFirstMessageLossRecovery(t *testing.T) {
	// §2.2: "if the first message is lost, the next message will be
	// dropped as well because the cookie is unknown and the connection
	// identification is not included. Currently, the PA relies on
	// retransmission by one of the protocol layers to deal with this
	// problem." Reproduce exactly that.
	r := newRig(t, netsim.Config{Latency: 40 * time.Microsecond}, nil)
	// Partition while the first (identification-carrying) message and a
	// few cookie-only successors are sent.
	r.net.SetLinkDown("A", "B", true)
	for i := 0; i < 3; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r.settleNet(time.Millisecond)
	if r.fromA.count() != 0 {
		t.Fatal("partitioned messages delivered")
	}
	// Heal. Nothing arrives until the retransmission timer fires;
	// retransmissions carry the identification, so B learns the cookie
	// and the whole stream recovers in order.
	r.net.SetLinkDown("A", "B", false)
	for i := 0; i < 100 && r.fromA.count() < 3; i++ {
		r.settleNet(300 * time.Millisecond)
	}
	if r.fromA.count() != 3 {
		t.Fatalf("delivered %d/3 after heal", r.fromA.count())
	}
	for i := 0; i < 3; i++ {
		if r.fromA.get(i)[0] != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
	if st := r.a.Stats(); st.Retransmits == 0 {
		t.Fatal("recovery did not use retransmission")
	}
}

func TestUnknownCookieDropsUntilIdentArrives(t *testing.T) {
	// The §2.2 drop behaviour in detail: cookie-only messages sent after
	// a lost first message are dropped at the router, counted, and the
	// application never sees them out of order.
	r := newRig(t, netsim.Config{Latency: 40 * time.Microsecond}, nil)
	r.net.SetLinkDown("A", "B", true)
	if err := r.a.Send([]byte{0}); err != nil { // ident-carrier, lost
		t.Fatal(err)
	}
	r.settleNet(time.Millisecond)
	r.net.SetLinkDown("A", "B", false)
	if err := r.a.Send([]byte{1}); err != nil { // cookie-only, dropped at B
		t.Fatal(err)
	}
	r.settleNet(time.Millisecond)
	if got := r.epB.Snapshot().UnknownCookie; got == 0 {
		t.Fatal("cookie-only message was not counted as unknown")
	}
	if r.fromA.count() != 0 {
		t.Fatal("out-of-order delivery before recovery")
	}
	for i := 0; i < 100 && r.fromA.count() < 2; i++ {
		r.settleNet(300 * time.Millisecond)
	}
	if r.fromA.count() != 2 || r.fromA.get(0)[0] != 0 || r.fromA.get(1)[0] != 1 {
		t.Fatalf("recovery failed: %d delivered", r.fromA.count())
	}
}

func TestMultipleConnectionsBetweenSameHosts(t *testing.T) {
	// Two connections between the same endpoints, demultiplexed by port:
	// cookies route each to its own PA.
	r := newRig(t, netsim.Config{}, nil)
	sa2, sb2 := specAB()
	sa2.LocalPort, sa2.RemotePort = 11, 12
	sb2.LocalPort, sb2.RemotePort = 12, 11
	a2, err := r.epA.Dial(sa2)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r.epB.Dial(sb2)
	if err != nil {
		t.Fatal(err)
	}
	var second sink
	b2.OnDeliver(second.add)
	if err := r.a.Send([]byte("conn1")); err != nil {
		t.Fatal(err)
	}
	if err := a2.Send([]byte("conn2")); err != nil {
		t.Fatal(err)
	}
	if r.fromA.count() != 1 || string(r.fromA.get(0)) != "conn1" {
		t.Fatalf("conn1 got %d", r.fromA.count())
	}
	if second.count() != 1 || string(second.get(0)) != "conn2" {
		t.Fatalf("conn2 got %d", second.count())
	}
	// Closing one must not disturb the other.
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.a.Send([]byte("still-up")); err != nil {
		t.Fatal(err)
	}
	if r.fromA.count() != 2 {
		t.Fatal("surviving connection broken by sibling close")
	}
}

func TestLittleEndianHomogeneousFastPath(t *testing.T) {
	// Two little-endian peers take the fast path like big-endian ones.
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.Order = bits.LittleEndian
		cfgB.Order = bits.LittleEndian
	})
	for i := 0; i < 10; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.settleNet(10 * time.Millisecond)
	}
	if r.fromA.count() != 10 {
		t.Fatalf("delivered %d", r.fromA.count())
	}
	if st := r.b.Stats(); st.FastDelivers != 9 { // first carries ident
		t.Fatalf("FastDelivers = %d", st.FastDelivers)
	}
}

func TestDebugStringCoversTable3(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	r.a.Send([]byte("x"))
	out := r.a.DebugString()
	for _, want := range []string{"mode=", "disable=", "backlog=", "filter=", "predicted proto-spec", "cookie"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DebugString missing %q:\n%s", want, out)
		}
	}
}

// TestSoak pushes a sustained bidirectional workload through a lossy,
// reordering, duplicating network in virtual time: both directions must
// deliver everything exactly once, in order.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	r := newRig(t, netsim.Config{
		Latency:     80 * time.Microsecond,
		LossRate:    0.15,
		DupRate:     0.1,
		ReorderRate: 0.15,
		Seed:        2026,
	}, nil)
	const n = 1500
	for i := 0; i < n; i++ {
		pi := []byte{byte(i), byte(i >> 8), 0xA}
		if err := r.a.Send(pi); err != nil {
			t.Fatal(err)
		}
		po := []byte{byte(i), byte(i >> 8), 0xB}
		if err := r.b.Send(po); err != nil {
			t.Fatal(err)
		}
		r.settleNet(200 * time.Microsecond)
	}
	for i := 0; i < 600 && (r.fromA.count() < n || r.fromB.count() < n); i++ {
		r.settleNet(300 * time.Millisecond)
	}
	if r.fromA.count() != n || r.fromB.count() != n {
		t.Fatalf("delivered %d/%d and %d/%d", r.fromA.count(), n, r.fromB.count(), n)
	}
	for i := 0; i < n; i++ {
		ma, mb := r.fromA.get(i), r.fromB.get(i)
		if int(ma[0])|int(ma[1])<<8 != i || ma[2] != 0xA {
			t.Fatalf("A→B stream wrong at %d", i)
		}
		if int(mb[0])|int(mb[1])<<8 != i || mb[2] != 0xB {
			t.Fatalf("B→A stream wrong at %d", i)
		}
	}
}

func TestVirtualTimeRTTIsNetworkBound(t *testing.T) {
	// Under the manual clock on the paper's network parameters, the
	// engine adds nothing to the virtual critical path: a round trip
	// costs exactly two propagation delays plus two cell-serialization
	// times. (Real CPU time is not modelled by the virtual clock; this
	// pins the engine's scheduling, not its speed.)
	r := newRig(t, netsim.PaperConfig(), nil)
	r.b.OnDeliver(func(p []byte) {
		if err := r.b.Send(p); err != nil {
			t.Error(err)
		}
	})
	done := 0
	r.a.OnDeliver(func([]byte) { done++ })

	start := r.clk.Now()
	if err := r.a.Send(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	// Hop the virtual clock until the reply lands.
	for i := 0; i < 100 && done == 0; i++ {
		next, ok := r.clk.NextDeadline()
		if !ok {
			break
		}
		r.clk.AdvanceTo(next)
	}
	if done != 1 {
		t.Fatal("reply never delivered")
	}
	rtt := r.clk.Now().Sub(start)
	// First exchange carries the 76-byte identification each way plus
	// ~22B headers + 8B payload: 106B → 3 cells → ~9.1 µs tx, then 35
	// µs propagation, per direction.
	min := 2 * 35 * time.Microsecond
	max := 2 * (35 + 15) * time.Microsecond
	if rtt < min || rtt > max {
		t.Fatalf("virtual RTT = %v, want within [%v, %v]", rtt, min, max)
	}
}

func TestEpochRestart(t *testing.T) {
	// A peer restarting with a new epoch presents a fresh
	// identification; the Accept hook creates a new connection while
	// datagrams from the old incarnation keep being rejected by the
	// surviving side's ident layer.
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	var served sink
	accepted := 0
	epB, err := NewEndpoint(Config{
		Transport: net.Endpoint("B"),
		Clock:     clk,
		Accept: func(remote layers.IdentInfo, netSrc string) (PeerSpec, bool) {
			accepted++
			return PeerSpec{
				Addr:      netSrc,
				LocalID:   bytes.TrimRight(remote.Dst, "\x00"),
				RemoteID:  bytes.TrimRight(remote.Src, "\x00"),
				LocalPort: remote.DstPort, RemotePort: remote.SrcPort,
				Epoch: remote.Epoch,
			}, true
		},
		OnConn: func(c *Conn) { c.OnDeliver(served.add) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()

	dial := func(epoch uint32) (*Endpoint, *Conn) {
		ep, err := NewEndpoint(Config{Transport: net.Endpoint(fmt.Sprintf("A-%d", epoch)), Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		c, err := ep.Dial(PeerSpec{
			Addr: "B", LocalID: []byte("client"), RemoteID: []byte("kv"),
			LocalPort: 5, RemotePort: 6, Epoch: epoch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ep, c
	}
	// First incarnation.
	ep1, c1 := dial(1)
	if err := c1.Send([]byte("epoch1")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if served.count() != 1 || accepted != 1 {
		t.Fatalf("served=%d accepted=%d", served.count(), accepted)
	}
	ep1.Close()
	// Restart with a new epoch: a distinct identification, so B's
	// accept hook runs again and a second connection serves it.
	ep2, c2 := dial(2)
	defer ep2.Close()
	if err := c2.Send([]byte("epoch2")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if served.count() != 2 || accepted != 2 {
		t.Fatalf("after restart: served=%d accepted=%d", served.count(), accepted)
	}
	if !bytes.Equal(served.get(1), []byte("epoch2")) {
		t.Fatalf("second incarnation delivered %q", served.get(1))
	}
}

func TestPackedBatchesRespectFragThreshold(t *testing.T) {
	// Regression for a bug found at streaming scale: the packer must
	// never build a packed message that the fragmentation layer would
	// split, or reassembly loses the packing structure and N messages
	// arrive as one. The bound is the threshold the stack's Frag layer
	// declares: 1 KB messages fit 7 to a batch under the default 8000
	// bytes, 2 under a 2048-byte threshold.
	for _, tc := range []struct {
		name      string
		threshold int // 0: the default
		maxBatch  int
	}{
		{"default", 0, 7},
		{"threshold-2048", 2048, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, netsim.Config{Latency: 500 * time.Microsecond, MTU: 64 << 10}, func(cfgA, cfgB *Config) {
				build := BuildStack(StackOptions{FragThreshold: tc.threshold})
				cfgA.Build, cfgB.Build = build, build
			})
			const n = 120
			payload := bytes.Repeat([]byte{0x5A}, 1024)
			for i := 0; i < n; i++ {
				p := append([]byte(nil), payload...)
				p[0] = byte(i)
				if err := r.a.Send(p); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200 && r.fromA.count() < n; i++ {
				r.settleNet(50 * time.Millisecond)
			}
			if r.fromA.count() != n {
				t.Fatalf("delivered %d/%d (packing structure lost?)", r.fromA.count(), n)
			}
			for i := 0; i < n; i++ {
				m := r.fromA.get(i)
				if len(m) != 1024 || m[0] != byte(i) {
					t.Fatalf("message %d corrupted: len=%d", i, len(m))
				}
			}
			st := r.a.Stats()
			if st.PackedBatches == 0 {
				t.Fatal("no packing happened; test lost its purpose")
			}
			if avg := float64(st.PackedMsgs) / float64(st.PackedBatches); avg > float64(tc.maxBatch)+0.01 {
				t.Fatalf("average batch %.1f × 1 KB exceeds the %d-message bound", avg, tc.maxBatch)
			}
		})
	}
}
