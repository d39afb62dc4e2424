package baseline

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

var t0 = time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC)

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

type rig struct {
	clk   *vclock.Manual
	net   *netsim.Network
	a, b  *Conn
	fromA *sink
}

func newRig(t *testing.T, netCfg netsim.Config) *rig {
	t.Helper()
	return newRigWith(t, netCfg, nil)
}

// newRigWith is newRig with both sides' stacks built by build (nil: the
// default stack).
func newRigWith(t *testing.T, netCfg netsim.Config, build core.StackBuilder) *rig {
	t.Helper()
	r := &rig{clk: vclock.NewManual(t0)}
	r.net = netsim.New(r.clk, netCfg)
	epA, err := NewEndpoint(Config{Transport: r.net.Endpoint("A"), Clock: r.clk, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	epB, err := NewEndpoint(Config{Transport: r.net.Endpoint("B"), Clock: r.clk, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { epA.Close(); epB.Close() })
	sa := core.PeerSpec{Addr: "B", LocalID: []byte("alice"), RemoteID: []byte("bob"), LocalPort: 1, RemotePort: 2, Epoch: 3}
	sb := core.PeerSpec{Addr: "A", LocalID: []byte("bob"), RemoteID: []byte("alice"), LocalPort: 2, RemotePort: 1, Epoch: 3}
	if r.a, err = epA.Dial(sa); err != nil {
		t.Fatal(err)
	}
	if r.b, err = epB.Dial(sb); err != nil {
		t.Fatal(err)
	}
	r.fromA = &sink{}
	r.b.OnDeliver(r.fromA.add)
	return r
}

func TestBaselinePingPong(t *testing.T) {
	r := newRig(t, netsim.Config{})
	var fromB sink
	r.a.OnDeliver(fromB.add)
	if err := r.a.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if r.fromA.count() != 1 || !bytes.Equal(r.fromA.get(0), []byte("ping")) {
		t.Fatalf("B got %d", r.fromA.count())
	}
	if err := r.b.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if fromB.count() != 1 {
		t.Fatal("no pong")
	}
}

func TestBaselineHeaderIsBigAndPadded(t *testing.T) {
	r := newRig(t, netsim.Config{})
	hdr := r.a.Schema().TotalSize()
	// Per-layer 4-byte-aligned blocks incl. the 76-byte identification
	// on every message: far beyond the PA's compact headers and beyond
	// the paper's 40-byte bound.
	if hdr <= 76 {
		t.Fatalf("layered header = %d bytes, expected > 76", hdr)
	}
	if r.a.Schema().PaddingBits(0) == 0 {
		t.Fatal("layered layout reports no padding")
	}
	// Header bytes are charged on every message.
	for i := 0; i < 5; i++ {
		if err := r.a.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.a.Stats().HeaderBytes; got != uint64(5*hdr) {
		t.Fatalf("header bytes = %d, want %d", got, 5*hdr)
	}
}

func TestBaselineLossRecovery(t *testing.T) {
	r := newRig(t, netsim.Config{Latency: 50 * time.Microsecond, LossRate: 0.3, Seed: 5})
	const n = 60
	for i := 0; i < n; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.clk.Advance(time.Millisecond)
	}
	for i := 0; i < 100 && r.fromA.count() < n; i++ {
		r.clk.Advance(300 * time.Millisecond)
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

func TestBaselineWindowBackpressure(t *testing.T) {
	r := newRig(t, netsim.Config{Latency: time.Millisecond})
	const n = 40
	for i := 0; i < n; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if r.a.Stats().Backlogged == 0 {
		t.Fatal("no backpressure")
	}
	for i := 0; i < 60 && r.fromA.count() < n; i++ {
		r.clk.Advance(50 * time.Millisecond)
	}
	if r.fromA.count() != n {
		t.Fatalf("delivered %d/%d", r.fromA.count(), n)
	}
}

func TestBaselineFragmentation(t *testing.T) {
	big := bytes.Repeat([]byte("abcdefgh"), 1500) // 12000 > default threshold
	r := newRig(t, netsim.Config{MTU: 64 << 10})
	if err := r.a.Send(big); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(time.Second)
	if r.fromA.count() != 1 || !bytes.Equal(r.fromA.get(0), big) {
		t.Fatalf("reassembly failed: %d msgs", r.fromA.count())
	}
}

// TestBaselineFragmentsStayInOrderAcrossLoss is core's test of the same
// name on the baseline engine: a fragment train released with the frames
// behind it after a gap is reassembled and delivered in its place.
func TestBaselineFragmentsStayInOrderAcrossLoss(t *testing.T) {
	build := func(spec core.PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
		ls, err := core.DefaultStack(spec, order)
		if err != nil {
			return nil, err
		}
		ls[1].(*layers.Frag).Threshold = 100 // chksum, frag, window, ident
		return ls, nil
	}
	for seed := int64(1); seed <= 16; seed++ {
		r := newRigWith(t, netsim.Config{Latency: 50 * time.Microsecond, LossRate: 0.05, Seed: seed}, build)
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
		r.clk.Advance(5 * time.Second)
		var got []string
		for i := 0; i < r.fromA.count(); i++ {
			got = append(got, string(r.fromA.get(i)))
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("seed %d: delivered %d of %d messages, out of order or altered", seed, len(got), len(want))
		}
	}
}

func TestBaselineAccept(t *testing.T) {
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	var served sink
	epB, err := NewEndpoint(Config{
		Transport: net.Endpoint("B"),
		Clock:     clk,
		Accept: func(remote layers.IdentInfo, netSrc string) (core.PeerSpec, bool) {
			return core.PeerSpec{
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
	epA, err := NewEndpoint(Config{Transport: net.Endpoint("A"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	a, err := epA.Dial(core.PeerSpec{Addr: "B", LocalID: []byte("cli"), RemoteID: []byte("srv"), LocalPort: 9, RemotePort: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if served.count() != 1 {
		t.Fatalf("served %d", served.count())
	}
}

func TestBaselineCloseSemantics(t *testing.T) {
	r := newRig(t, netsim.Config{})
	if err := r.a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.a.Send([]byte("x")); err != ErrConnClosed {
		t.Fatalf("err = %v", err)
	}
	if err := r.a.Close(); err != nil {
		t.Fatal("double close")
	}
}

func TestBaselineWireBiggerThanPA(t *testing.T) {
	// The same stack compiled both ways: the PA's normal-case message is
	// dramatically smaller.
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	bEP, err := NewEndpoint(Config{Transport: net.Endpoint("X"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer bEP.Close()
	paEP, err := core.NewEndpoint(core.Config{Transport: net.Endpoint("Y"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer paEP.Close()
	pa, err := paEP.Dial(core.PeerSpec{Addr: "Z", LocalID: []byte("a"), RemoteID: []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	paNormal := core.PreambleSize + pa.Schema().TotalSize() + 1 // + packing byte
	if paNormal >= bEP.HeaderSize() {
		t.Fatalf("PA normal header %d >= baseline %d", paNormal, bEP.HeaderSize())
	}
	if paNormal > 40 {
		t.Fatalf("PA header %d exceeds the 40-byte U-Net bound", paNormal)
	}
}

func TestBaselineSixLayerStack(t *testing.T) {
	// The baseline engine must run the extended stack too (stamp +
	// heartbeat), exercising control sends whose originator sits below
	// other layers.
	build := core.BuildStack(core.StackOptions{
		Stamp: func(time.Duration) {}, Heartbeat: 5 * time.Millisecond,
	})
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	epA, err := NewEndpoint(Config{Transport: net.Endpoint("A"), Clock: clk, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := NewEndpoint(Config{Transport: net.Endpoint("B"), Clock: clk, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	a, err := epA.Dial(core.PeerSpec{Addr: "B", LocalID: []byte("a"), RemoteID: []byte("b"), LocalPort: 1, RemotePort: 2, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(core.PeerSpec{Addr: "A", LocalID: []byte("b"), RemoteID: []byte("a"), LocalPort: 2, RemotePort: 1, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got sink
	b.OnDeliver(got.add)
	if err := a.Send([]byte("six layers deep")); err != nil {
		t.Fatal(err)
	}
	if got.count() != 1 || !bytes.Equal(got.get(0), []byte("six layers deep")) {
		t.Fatalf("delivered %d", got.count())
	}
	// Heartbeats flow through the baseline path as well.
	clk.Advance(20 * time.Millisecond)
	hbA := a.Stack().Layers()[4].(*layers.Heartbeat)
	if hbA.Beats == 0 {
		t.Fatal("no baseline keepalives")
	}
	hbB := b.Stack().Layers()[4].(*layers.Heartbeat)
	if hbB.Heard == 0 {
		t.Fatal("baseline keepalives not heard")
	}
}

// The baseline runs the layers' compiled delivery filter on every frame,
// so a corrupted fragment is dropped and retransmitted like any other
// corrupted frame, never reassembled into the message.
func TestBaselineDropsCorruptFragments(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789"), 1200) // 12000 B: two fragments
	var corrupted uint64
	for seed := int64(1); seed <= 8; seed++ {
		r := newRig(t, netsim.Config{Latency: 50 * time.Microsecond, CorruptRate: 0.5, Seed: seed})
		if err := r.a.Send(big); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100 && r.fromA.count() == 0; i++ {
			r.clk.Advance(300 * time.Millisecond)
		}
		if r.fromA.count() != 1 || !bytes.Equal(r.fromA.get(0), big) {
			t.Fatalf("seed %d: %d messages delivered, want the original once", seed, r.fromA.count())
		}
		corrupted += r.net.Stats().Corrupted
	}
	if corrupted == 0 {
		t.Fatal("no frame was corrupted")
	}
}
