// Concurrency experiments: the multi-core scaling companions to the
// paper's single-connection numbers. The paper's PA ran one connection
// per (single-CPU) endpoint; this file measures what the reproduction
// adds for production scale — a sharded cookie router whose receive path
// never serializes across connections, and send/delivery fast paths that
// allocate nothing per message.
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
	Server  *core.Endpoint
	Conns   []*core.Conn
	client  *core.Endpoint
	handler func(src string, datagram []byte)
	frames  [][]byte
	counts  []paddedCounter
}

// handlerTap interposes on SetHandler to steal a reference to the
// endpoint's receive callback.
type handlerTap struct {
	core.Transport
	h *RecvHarness
}

func (t handlerTap) SetHandler(fn func(src string, datagram []byte)) {
	t.h.handler = fn
	t.Transport.SetHandler(fn)
}

// NewRecvHarness builds a server endpoint with nConns pre-agreed-cookie
// connections over an instantaneous network, captures one fast-path frame
// per connection, and returns the harness ready for Deliver calls.
func NewRecvHarness(nConns int) (*RecvHarness, error) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	h := &RecvHarness{counts: make([]paddedCounter, nConns)}
	tap := &tapTransport{inner: net.Endpoint("S")}
	server, err := core.NewEndpoint(core.Config{
		Transport: handlerTap{tap, h},
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
	if h.handler == nil {
		h.Close()
		return nil, fmt.Errorf("experiments: endpoint installed no handler")
	}
	return h, nil
}

// Deliver replays connection i's captured frame into the server's receive
// path, as if it had just arrived from the network.
func (h *RecvHarness) Deliver(i int) {
	h.handler("C", h.frames[i])
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

// ParallelRecvConns is the connection count the concurrency experiment
// and BenchmarkEndpointParallelRecv use: enough connections that a
// contended router is visibly slower on any multicore machine.
const ParallelRecvConns = 8

// BenchParallelRecv hammers one endpoint with concurrent receives across
// nConns connections, each parallel worker replaying a different
// connection's frame. It is the body of BenchmarkEndpointParallelRecv and
// of the pabench concurrency experiment.
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

// ConcurrencyResult is the machine-readable output of the concurrency
// experiment — the BENCH_1.json baseline future PRs gate against.
type ConcurrencyResult struct {
	// GOMAXPROCS records the parallelism the numbers were taken at.
	GOMAXPROCS int `json:"gomaxprocs"`
	Conns      int `json:"conns"`

	// Parallel receive routing through the sharded router.
	ShardedRecvNsOp float64 `json:"sharded_recv_ns_op"`

	// Fast-path allocation counts (lean stack, perfect network). Send
	// includes the synchronous delivery on the other side.
	SendAllocsPerOp    float64 `json:"send_allocs_per_op"`
	DeliverAllocsPerOp float64 `json:"deliver_allocs_per_op"`

	// Single-threaded fast-path latencies for context.
	SendNsOp    float64 `json:"send_ns_op"`
	DeliverNsOp float64 `json:"deliver_ns_op"`
}

// SendAllocsPerOp measures allocations per accelerated Send over an
// instantaneous network with the lean stack — the delivery on the far
// side runs inside the same call, so 0 here means the whole send+deliver
// chain is allocation-free.
func SendAllocsPerOp(runs int) (float64, error) {
	p, err := NewPair(PairOptions{Build: LeanStack})
	if err != nil {
		return 0, err
	}
	defer p.Close()
	p.B.OnDeliver(func([]byte) {})
	payload := make([]byte, 32)
	// Warm the pools: the first operations grow queues and buffer pools.
	for i := 0; i < 256; i++ {
		if err := p.A.Send(payload); err != nil {
			return 0, err
		}
	}
	var sendErr error
	allocs := testing.AllocsPerRun(runs, func() {
		if err := p.A.Send(payload); err != nil {
			sendErr = err
		}
	})
	return allocs, sendErr
}

// DeliverAllocsPerOp measures allocations per routed delivery using the
// replay harness (router lookup + filter + fast-path delivery +
// application callback).
func DeliverAllocsPerOp(runs int) (float64, error) {
	h, err := NewRecvHarness(1)
	if err != nil {
		return 0, err
	}
	defer h.Close()
	for i := 0; i < 256; i++ {
		h.Deliver(0)
	}
	allocs := testing.AllocsPerRun(runs, func() { h.Deliver(0) })
	return allocs, nil
}

// Concurrency runs the scaling experiment: parallel receive throughput
// through the sharded router, plus fast-path allocation counts.
func Concurrency(quick bool) (*ConcurrencyResult, error) {
	runs := 2000
	if quick {
		runs = 200
	}
	// The routing benchmark needs actual concurrency: lift GOMAXPROCS to
	// the connection count for its duration (the harness machine may be a
	// single-core CI runner).
	prev := runtime.GOMAXPROCS(0)
	procs := prev
	if procs < ParallelRecvConns {
		procs = ParallelRecvConns
	}
	runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	res := &ConcurrencyResult{GOMAXPROCS: procs, Conns: ParallelRecvConns}

	// Min of three runs: parallel benchmarks on shared machines are
	// noisy upward, never downward.
	reps := 3
	if quick {
		reps = 2
	}
	for r := 0; r < reps; r++ {
		out := testing.Benchmark(func(b *testing.B) {
			BenchParallelRecv(b, ParallelRecvConns)
		})
		if ns := float64(out.NsPerOp()); r == 0 || ns < res.ShardedRecvNsOp {
			res.ShardedRecvNsOp = ns
		}
	}

	var err error
	if res.SendAllocsPerOp, err = SendAllocsPerOp(runs); err != nil {
		return nil, err
	}
	if res.DeliverAllocsPerOp, err = DeliverAllocsPerOp(runs); err != nil {
		return nil, err
	}

	sendBench := testing.Benchmark(func(b *testing.B) {
		p, err := NewPair(PairOptions{Build: LeanStack})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		p.B.OnDeliver(func([]byte) {})
		payload := make([]byte, 32)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.A.Send(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	res.SendNsOp = float64(sendBench.NsPerOp())
	delivBench := testing.Benchmark(func(b *testing.B) {
		h, err := NewRecvHarness(1)
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Deliver(0)
		}
	})
	res.DeliverNsOp = float64(delivBench.NsPerOp())
	return res, nil
}

// ConcurrencyReport formats the result for the pabench console output.
func ConcurrencyReport(r *ConcurrencyResult) string {
	return fmt.Sprintf(`Concurrency scaling (GOMAXPROCS=%d, %d connections)
  parallel recv, sharded router:      %8.1f ns/op
  fast send  (lean stack):            %8.1f ns/op, %.3f allocs/op
  fast deliver (replay harness):      %8.1f ns/op, %.3f allocs/op
`, r.GOMAXPROCS, r.Conns,
		r.ShardedRecvNsOp,
		r.SendNsOp, r.SendAllocsPerOp,
		r.DeliverNsOp, r.DeliverAllocsPerOp)
}
