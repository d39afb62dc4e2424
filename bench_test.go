// Benchmarks regenerating the paper's evaluation on today's hardware, one
// per table/figure (see EXPERIMENTS.md for the mapping), plus ablations
// of the design choices called out in DESIGN.md.
package paccel_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"paccel/internal/core"
	"paccel/internal/experiments"
	"paccel/internal/group"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/rpc"
	"paccel/internal/udp"
	"paccel/internal/vclock"
)

// pingPongBench runs closed-loop round trips, the Table 4 "#roundtrips/
// sec" and "one-way latency" rows.
func pingPongBench(b *testing.B, opt experiments.PairOptions, payload int) {
	b.Helper()
	p, err := experiments.NewPair(opt)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.B.OnDeliver(func(data []byte) {
		if err := p.B.Send(data); err != nil {
			b.Error(err)
		}
	})
	done := make(chan struct{}, 1)
	p.A.OnDeliver(func([]byte) { done <- struct{}{} })
	buf := make([]byte, payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.A.Send(buf); err != nil {
			b.Fatal(err)
		}
		<-done
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perOp/2000, "oneway-µs")
	b.ReportMetric(1e9/perOp, "rt/s")
}

// BenchmarkRoundTrip is Table 4 rows 1 and 3 on the Go implementation:
// accelerated 8-byte round trips over the in-memory network.
func BenchmarkRoundTrip(b *testing.B) {
	pingPongBench(b, experiments.PairOptions{}, 8)
}

// BenchmarkRoundTripAllocs is the allocation gate on the stack the paper
// describes (checksum, fragmentation, sliding window, identification),
// where the other *Allocs benchmarks run windowless stacks: the round trip
// of BenchmarkRoundTrip without the completion channel — over the
// instantaneous network the echo is delivered inside Send — so that all
// it counts is the engine and the window's saved frames, rings and timer
// re-arms. It fails on any allocation per round trip; the perf gate holds
// every *Allocs name at its baseline besides.
func BenchmarkRoundTripAllocs(b *testing.B) {
	p, err := experiments.NewPair(experiments.PairOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.B.OnDeliver(func(data []byte) {
		if err := p.B.Send(data); err != nil {
			b.Error(err)
		}
	})
	echoes := 0
	p.A.OnDeliver(func([]byte) { echoes++ })
	buf := make([]byte, 8)
	for i := 0; i < 64; i++ { // create the timers, warm the pools
		if err := p.A.Send(buf); err != nil {
			b.Fatal(err)
		}
	}
	echoes = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.A.Send(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if echoes != b.N {
		b.Fatalf("%d of %d round trips completed inside Send", echoes, b.N)
	}
	if perOp := (after.Mallocs - before.Mallocs) / uint64(b.N); perOp > 0 {
		b.Fatalf("default-stack round trip allocates: %d allocs/op, want 0", perOp)
	}
}

// BenchmarkRoundTripDoubledWindow is the §5 layer-doubling experiment:
// the window layer stacked twice.
func BenchmarkRoundTripDoubledWindow(b *testing.B) {
	pingPongBench(b, experiments.PairOptions{Build: experiments.DoubledWindowStack}, 8)
}

// BenchmarkSecureRoundTrip is the encrypted channel on the fast path:
// 8-byte round trips with AES-GCM sealing every frame in both
// directions (DESIGN.md §17). Compare against BenchmarkRoundTrip for
// the end-to-end cost of the crypto.
func BenchmarkSecureRoundTrip(b *testing.B) {
	pingPongBench(b, experiments.PairOptions{Build: experiments.SecureLeanStack}, 8)
}

// BenchmarkSecureAllocs is the encrypted steady-state send: seal in the
// send filter, flush, far-side authenticated open and delivery — the
// perf gate holds this at 0 allocs/op.
func BenchmarkSecureAllocs(b *testing.B) {
	p, err := experiments.NewPair(experiments.PairOptions{Build: experiments.SecureLeanStack})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.B.OnDeliver(func([]byte) {})
	payload := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.A.Send(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundTripBaseline is the §1 comparison: the same four layers
// run traditionally (synchronous layered processing, per-layer padded
// headers, identification on every message).
func BenchmarkRoundTripBaseline(b *testing.B) {
	p, err := experiments.NewBaselinePair(netsim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.B.OnDeliver(func(data []byte) {
		if err := p.B.Send(data); err != nil {
			b.Error(err)
		}
	})
	done := make(chan struct{}, 1)
	p.A.OnDeliver(func([]byte) { done <- struct{}{} })
	buf := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.A.Send(buf); err != nil {
			b.Fatal(err)
		}
		<-done
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(1e9/perOp, "rt/s")
}

// streamBench is Table 4 rows 2 and 4: one-way throughput.
func streamBench(b *testing.B, payload int) {
	b.Helper()
	p, err := experiments.NewPair(experiments.PairOptions{
		NetConfig: netsim.Config{MTU: 64 << 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.SetBytes(int64(payload))
	b.ReportAllocs()
	b.ResetTimer()
	msgs, _, err := p.StreamOneWay(b.N, make([]byte, payload))
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(msgs, "msgs/s")
}

// BenchmarkStreamThroughput8B is Table 4 row 2 (paper: 80,000 msgs/s).
func BenchmarkStreamThroughput8B(b *testing.B) { streamBench(b, 8) }

// BenchmarkBandwidth1K is Table 4 row 4 (paper: 15 MB/s).
func BenchmarkBandwidth1K(b *testing.B) { streamBench(b, 1024) }

// BenchmarkSendOneWay measures a single accelerated Send (delivery
// inline on the synchronous network), the finest-grained critical path.
func BenchmarkSendOneWay(b *testing.B) {
	p, err := experiments.NewPair(experiments.PairOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.B.OnDeliver(func([]byte) {})
	buf := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := p.A.Send(buf)
			if err == nil {
				break
			}
			if errors.Is(err, core.ErrBacklogFull) {
				time.Sleep(5 * time.Microsecond) // window backpressure
				continue
			}
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupFIFOMulticast measures one FIFO multicast (send + local
// delivery + fan-out to 3 peers) — the paper's multicast extension.
func BenchmarkGroupFIFOMulticast(b *testing.B) {
	m, err := group.NewRealMesh([]string{"a", "b", "c", "d"}, netsim.Config{}, group.FIFO, "")
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := m.Groups["a"].Send(payload)
			if err == nil {
				break
			}
			if errors.Is(err, core.ErrBacklogFull) {
				time.Sleep(5 * time.Microsecond) // window backpressure
				continue
			}
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupTotalOrder measures one sequenced multicast through the
// sequencer (send → sequencer → ordered fan-out).
func BenchmarkGroupTotalOrder(b *testing.B) {
	m, err := group.NewRealMesh([]string{"seq", "b", "c", "d"}, netsim.Config{}, group.Total, "seq")
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	delivered := make(chan struct{}, 1)
	m.Groups["b"].OnDeliver(func(string, []byte) { delivered <- struct{}{} })
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Groups["b"].Send(payload); err != nil {
			b.Fatal(err)
		}
		<-delivered // own message back at the sequenced position
	}
}

// BenchmarkGroupFanout measures one whole-group multicast through the
// template+stamp fanout engine (DESIGN.md §16): mesh-wired groups hand
// whole-group sends to core.Fanout — one header build and filter pass,
// one stamp per member, one batched transmit.
func BenchmarkGroupFanout(b *testing.B) {
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	m, err := group.NewRealMesh(names, netsim.Config{}, group.FIFO, "")
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := m.Groups["m0"].Send(payload)
			if err == nil {
				break
			}
			if errors.Is(err, core.ErrBacklogFull) {
				time.Sleep(5 * time.Microsecond) // window backpressure
				continue
			}
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupFanoutAllocs is the engine's zero-allocation gate at the
// perf-gate tier: a 64-member fanout over the lean stateless stack must
// stay at 0 allocs/op steady-state (the same invariant TestAllocBudget
// enforces at 16 members).
func BenchmarkGroupFanoutAllocs(b *testing.B) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	sink := net.Endpoint("sink")
	sink.SetHandler(func(string, []byte) {})
	ep, err := core.NewEndpoint(core.Config{
		Transport: net.Endpoint("fan"), Build: experiments.LeanStack,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	conns := make([]*core.Conn, 64)
	for i := range conns {
		conns[i], err = ep.Dial(core.PeerSpec{
			Addr:    "sink",
			LocalID: []byte("fan"), RemoteID: []byte(fmt.Sprintf("m%02d", i)),
			LocalPort: uint16(i + 1), RemotePort: uint16(i + 1),
			Epoch: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	fan, err := core.NewFanout(ep, conns...)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 32)
	for i := 0; i < 256; i++ { // warm pools, prime prediction
		if err := fan.Send(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fan.Send(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiClientServer measures a server fanning 4 concurrent
// clients (§6), the live companion to evsim.ExampleServerLoad.
func BenchmarkMultiClientServer(b *testing.B) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	server, err := core.NewEndpoint(core.Config{
		Transport: net.Endpoint("server"),
		Accept: func(remote layers.IdentInfo, netSrc string) (core.PeerSpec, bool) {
			return core.PeerSpec{
				Addr:      netSrc,
				LocalID:   bytes.TrimRight(remote.Dst, "\x00"),
				RemoteID:  bytes.TrimRight(remote.Src, "\x00"),
				LocalPort: remote.DstPort, RemotePort: remote.SrcPort,
				Epoch: remote.Epoch,
			}, true
		},
		OnConn: func(c *core.Conn) {
			c.OnDeliver(func(req []byte) {
				if err := c.Send(req); err != nil {
					b.Error(err)
				}
			})
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()

	const clients = 4
	type cli struct {
		conn *core.Conn
		done chan struct{}
	}
	cs := make([]cli, clients)
	for i := range cs {
		host := fmt.Sprintf("c%d", i)
		ep, err := core.NewEndpoint(core.Config{Transport: net.Endpoint(host)})
		if err != nil {
			b.Fatal(err)
		}
		defer ep.Close()
		conn, err := ep.Dial(core.PeerSpec{
			Addr: "server", LocalID: []byte(host), RemoteID: []byte("srv"),
			LocalPort: uint16(i + 10), RemotePort: 1, Epoch: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{}, 1)
		conn.OnDeliver(func([]byte) { done <- struct{}{} })
		cs[i] = cli{conn: conn, done: done}
	}
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine grabs one client slot round-robin.
		i := int(rrCounter.Add(1)) % clients
		c := cs[i]
		for pb.Next() {
			if err := c.conn.Send(payload); err != nil {
				b.Error(err)
				return
			}
			<-c.done
		}
	})
}

var rrCounter atomic.Int64

// BenchmarkEndpointParallelRecv measures the sharded cookie router under
// concurrent receives across 8 connections, each parallel worker
// replaying a different connection's frame: enough connections that a
// contended router is visibly slower on any multicore machine. Run with
// GOMAXPROCS ≥ 8 so the receives actually overlap.
func BenchmarkEndpointParallelRecv(b *testing.B) {
	const nConns = 8
	h, err := experiments.NewRecvHarness(nConns)
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

// BenchmarkFastSendAllocs measures the accelerated send critical path
// (lean checksum+frag+ident stack, instantaneous network) — the far
// side's delivery runs inside the same call, so 0 allocs/op means the
// whole send+deliver chain is allocation-free.
func BenchmarkFastSendAllocs(b *testing.B) {
	p, err := experiments.NewPair(experiments.PairOptions{Build: experiments.LeanStack})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.B.OnDeliver(func([]byte) {})
	payload := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.A.Send(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastDeliverAllocs measures the routed delivery critical path
// alone: a captured cookie-only frame replayed into the endpoint's
// receive handler (router lookup, packet filter, fast-path delivery,
// application callback).
func BenchmarkFastDeliverAllocs(b *testing.B) {
	h, err := experiments.NewRecvHarness(1)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Deliver(0)
	}
}

// BenchmarkRPC measures one correlated request/response call over an
// accelerated connection (the §6 workload, via the rpc package).
func BenchmarkRPC(b *testing.B) {
	p, err := experiments.NewPair(experiments.PairOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	rpc.Serve(p.B, func(req []byte) []byte { return req })
	client := rpc.NewClient(p.A)
	defer client.Close()
	req := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.CallTimeout(req, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(1e9/perOp, "rpc/s")
}

// BenchmarkGSOSendBatchAllocs measures the kernel-offload batch send
// path over real UDP loopback: one SendBatch of a 64×512B equal-size
// burst (one UDP_SEGMENT super-datagram's worth when the kernel
// supports it, one plain sendmmsg chunk otherwise). The Allocs suffix
// puts it under the perf gate's zero-tolerance rule: the steady-state
// batch send path promises 0 allocs/op on every tier.
func BenchmarkGSOSendBatchAllocs(b *testing.B) {
	tx, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Close()
	rx, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	ds := make([][]byte, 64)
	for i := range ds {
		ds[i] = make([]byte, 512)
	}
	dst := rx.LocalAddr()
	for i := 0; i < 32; i++ {
		if _, err := tx.SendBatch(dst, ds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.SendBatch(dst, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedRecvBurst measures the SO_REUSEPORT receive tier
// end-to-end: a 64-datagram burst into a 2-queue sharded listener,
// timed until every datagram of the burst has been delivered (closed
// loop, so the number is burst latency through kernel hash + pinned
// read loops + GRO split, not raw send cost). On platforms without
// SO_REUSEPORT the listener degrades to one socket and the benchmark
// still runs.
func BenchmarkShardedRecvBurst(b *testing.B) {
	rx, err := udp.ListenSharded("127.0.0.1:0", 2)
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	var got atomic.Int64
	done := make(chan struct{}, 1)
	rx.SetHandler(func(string, []byte) {
		if got.Add(1)%64 == 0 {
			select {
			case done <- struct{}{}:
			default:
			}
		}
	})
	tx, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Close()
	ds := make([][]byte, 64)
	for i := range ds {
		ds[i] = make([]byte, 512)
	}
	dst := rx.LocalAddr()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.SendBatch(dst, ds); err != nil {
			b.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			b.Fatalf("burst %d not delivered (got %d datagrams)", i, got.Load())
		}
	}
}

// BenchmarkRouterDeliverLoaded measures the routed delivery fast path
// with the cookie table loaded to 100k learned entries — the fleet-
// reboot regime. The open-addressed cache-packed table keeps this
// within a few ns of the empty-table BenchmarkFastDeliverAllocs number.
func BenchmarkRouterDeliverLoaded(b *testing.B) {
	const entries = 100_000
	h, err := experiments.NewRecvHarness(1)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	if n := h.Server.BindBenchCookies(h.Conns[0], 1<<20, entries, true); n != entries {
		b.Fatalf("bound %d of %d synthetic routes", n, entries)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Deliver(0)
	}
}

// BenchmarkAdmissionShedAllocs measures the admission reject path: an
// identified first message hitting a full endpoint with the storm
// detector enabled. The Allocs suffix puts it under the perf gate's
// zero-tolerance rule — shedding must stay free while the endpoint is
// drowning, or shedding itself becomes the overload.
func BenchmarkAdmissionShedAllocs(b *testing.B) {
	sh, err := experiments.NewShedHarness(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	defer sh.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Shed()
	}
	b.StopTimer()
	if got := sh.Server.Snapshot().ShedTotal; got < uint64(b.N) {
		b.Fatalf("only %d of %d replays were shed", got, b.N)
	}
}

// BenchmarkConnChurn measures one full local connect/disconnect cycle —
// Dial (admission check, routing insert, stack build) plus Close
// (routing removal, teardown) — the per-connection cost a redialing
// fleet pays on the server.
func BenchmarkConnChurn(b *testing.B) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	ep, err := core.NewEndpoint(core.Config{Transport: net.Endpoint("S")})
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := ep.Dial(core.PeerSpec{
			Addr: "X", LocalID: []byte("s"), RemoteID: []byte("x"),
			LocalPort: uint16(i%65000 + 1), RemotePort: 9, Epoch: uint32(i / 65000),
		})
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}
