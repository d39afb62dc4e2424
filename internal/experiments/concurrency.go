// Receive-path fixtures: the paper's PA ran one connection per
// (single-CPU) endpoint; these harnesses let the root benchmarks measure
// what the reproduction adds for production scale — a sharded cookie
// router whose receive path never serializes across connections, and
// send/delivery fast paths that allocate nothing per message.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

// LeanStack is a checksum + fragmentation + identification stack — the
// default stack minus the sliding window. The windowless stack is fully
// stateless on the fast path (no sequence numbers, no ack timers), which
// makes it the right fixture for allocation and router-contention
// benchmarks: every replayed datagram stays on the predicted path, and
// no timer machinery allocates behind the measurement.
func LeanStack(spec core.PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
	return []stack.Layer{
		layers.NewChksum(),
		layers.NewFrag(),
		&layers.Ident{
			Local: spec.LocalID, Remote: spec.RemoteID,
			LocalPort: spec.LocalPort, RemotePort: spec.RemotePort,
			Epoch: spec.Epoch, Order: order,
		},
	}, nil
}

// tapTransport wraps a transport and keeps a copy of the last datagram
// that reached the handler, so a harness can capture wire images for
// replay.
type tapTransport struct {
	inner core.Transport
	mu    sync.Mutex
	last  []byte
}

func (t *tapTransport) Send(dst string, datagram []byte) error { return t.inner.Send(dst, datagram) }
func (t *tapTransport) LocalAddr() string                      { return t.inner.LocalAddr() }
func (t *tapTransport) Close() error                           { return t.inner.Close() }

func (t *tapTransport) SetHandler(h func(src string, datagram []byte)) {
	t.inner.SetHandler(func(src string, datagram []byte) {
		t.mu.Lock()
		t.last = append(t.last[:0], datagram...)
		t.mu.Unlock()
		h(src, datagram)
	})
}

func (t *tapTransport) takeLast() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]byte(nil), t.last...)
	t.last = t.last[:0]
	return out
}

// handlerGrab steals a reference to the endpoint's receive callback so
// frames can be replayed without the network.
type handlerGrab struct {
	fn func(src string, datagram []byte)
}

type handlerGrabTap struct {
	core.Transport
	h *handlerGrab
}

func (t handlerGrabTap) SetHandler(fn func(src string, datagram []byte)) {
	t.h.fn = fn
	t.Transport.SetHandler(fn)
}

// paddedCounter is a cache-line-padded delivery counter, one per
// connection, so counting deliveries does not itself create the cross-core
// contention the benchmark is trying to detect.
type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// RecvHarness drives an Endpoint's receive path directly: it captures one
// valid cookie-only wire frame per connection and replays them straight
// into the transport handler, bypassing the network, so benchmarks
// measure the router + delivery path alone.
type RecvHarness struct {
	Server *core.Endpoint
	Conns  []*core.Conn
	client *core.Endpoint
	grab   handlerGrab
	frames [][]byte
	counts []paddedCounter
}

// NewRecvHarness builds a server endpoint with nConns pre-agreed-cookie
// connections over an instantaneous network, captures one fast-path frame
// per connection, and returns the harness ready for Deliver calls.
func NewRecvHarness(nConns int) (*RecvHarness, error) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	h := &RecvHarness{counts: make([]paddedCounter, nConns)}
	tap := &tapTransport{inner: net.Endpoint("S")}
	server, err := core.NewEndpoint(core.Config{
		Transport: handlerGrabTap{tap, &h.grab},
		Build:     LeanStack,
	})
	if err != nil {
		return nil, err
	}
	h.Server = server
	client, err := core.NewEndpoint(core.Config{
		Transport: net.Endpoint("C"),
		Build:     LeanStack,
	})
	if err != nil {
		server.Close()
		return nil, err
	}
	h.client = client

	for i := 0; i < nConns; i++ {
		// Pre-agreed cookies on both sides (§2.2's "agree on a cookie
		// before starting to use it") keep every frame cookie-only.
		srvCookie := uint64(i+1)<<20 | 0x5eed
		cliCookie := uint64(i+1)<<20 | 0xc11e
		sc, err := server.Dial(core.PeerSpec{
			Addr: "C", LocalID: []byte("server"), RemoteID: []byte("client"),
			LocalPort: uint16(2000 + i), RemotePort: uint16(1000 + i), Epoch: 1,
			OutCookie: cliCookie, ExpectInCookie: srvCookie, SkipFirstConnID: true,
		})
		if err != nil {
			h.Close()
			return nil, err
		}
		slot := &h.counts[i]
		sc.OnDeliver(func([]byte) { slot.n.Add(1) })
		h.Conns = append(h.Conns, sc)

		cc, err := client.Dial(core.PeerSpec{
			Addr: "S", LocalID: []byte("client"), RemoteID: []byte("server"),
			LocalPort: uint16(1000 + i), RemotePort: uint16(2000 + i), Epoch: 1,
			OutCookie: srvCookie, ExpectInCookie: cliCookie, SkipFirstConnID: true,
		})
		if err != nil {
			h.Close()
			return nil, err
		}
		// One real send captures this connection's wire image; the
		// instantaneous network delivers synchronously, so the tap has
		// the frame when Send returns.
		payload := []byte(fmt.Sprintf("cn-%04d!", i))
		if err := cc.Send(payload); err != nil {
			h.Close()
			return nil, err
		}
		frame := tap.takeLast()
		if len(frame) == 0 {
			h.Close()
			return nil, fmt.Errorf("experiments: no frame captured for conn %d", i)
		}
		if got := slot.n.Load(); got != 1 {
			h.Close()
			return nil, fmt.Errorf("experiments: capture send delivered %d times", got)
		}
		h.frames = append(h.frames, frame)
	}
	if h.grab.fn == nil {
		h.Close()
		return nil, fmt.Errorf("experiments: endpoint installed no handler")
	}
	return h, nil
}

// Deliver replays connection i's captured frame into the server's receive
// path, as if it had just arrived from the network.
func (h *RecvHarness) Deliver(i int) {
	h.grab.fn("C", h.frames[i])
}

// Delivered returns connection i's delivery count.
func (h *RecvHarness) Delivered(i int) uint64 { return h.counts[i].n.Load() }

// Close tears the harness down.
func (h *RecvHarness) Close() {
	if h.client != nil {
		h.client.Close()
	}
	if h.Server != nil {
		h.Server.Close()
	}
}

// ParallelRecvConns is the connection count BenchmarkEndpointParallelRecv
// uses: enough connections that a contended router is visibly slower on
// any multicore machine.
const ParallelRecvConns = 8

// BenchParallelRecv hammers one endpoint with concurrent receives across
// nConns connections, each parallel worker replaying a different
// connection's frame. It is the body of BenchmarkEndpointParallelRecv.
func BenchParallelRecv(b *testing.B, nConns int) {
	h, err := NewRecvHarness(nConns)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	// At least one worker per connection, even below nConns GOMAXPROCS —
	// the contention being measured is across connections.
	if p := runtime.GOMAXPROCS(0); p < nConns {
		b.SetParallelism((nConns + p - 1) / p)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)-1) % nConns
		for pb.Next() {
			h.Deliver(i)
		}
	})
}
