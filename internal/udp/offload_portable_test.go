package udp

// Portable tests for the offload tier's platform-independent pieces and
// the receive-path satellite fixes: the zone-aware source-key cache, the
// peer-cache cap, the GRO split helper's allocation budget, multi-peer
// source stability through both receive loops, and the sharded listener
// (its scattered send, offload verdict, telemetry and receive counters).

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"paccel/internal/telemetry"
)

// collector gathers delivered datagrams, copying each (the handler
// borrows the receive ring).
type collector struct {
	mu   sync.Mutex
	srcs []string
	data [][]byte
}

func (c *collector) install(tr interface {
	SetHandler(func(string, []byte))
}) {
	tr.SetHandler(func(src string, d []byte) {
		c.mu.Lock()
		c.srcs = append(c.srcs, src)
		c.data = append(c.data, append([]byte(nil), d...))
		c.mu.Unlock()
	})
}

func (c *collector) waitN(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		got := len(c.data)
		c.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d/%d datagrams", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// burst builds n datagrams of size bytes, each tagged with its index.
func burst(n, size int) [][]byte {
	ds := make([][]byte, n)
	for i := range ds {
		d := make([]byte, size)
		d[0] = byte(i)
		if size > 1 {
			d[1] = byte(i >> 8)
		}
		ds[i] = d
	}
	return ds
}

// TestSrcKeyCacheZone is the regression test for the generic read loop's
// source-string cache: before the fix it compared only IP and Port, so
// two link-local IPv6 peers with the same address on different
// interfaces (distinct Zone) were conflated into one src key.
func TestSrcKeyCacheZone(t *testing.T) {
	var c srcKeyCache
	ll := net.ParseIP("fe80::1")
	eth0 := &net.UDPAddr{IP: ll, Port: 9000, Zone: "eth0"}
	eth1 := &net.UDPAddr{IP: ll, Port: 9000, Zone: "eth1"}
	k0 := c.lookup(eth0)
	k1 := c.lookup(eth1)
	if k0 == k1 {
		t.Fatalf("zone conflation: %q == %q", k0, k1)
	}
	if k0 != eth0.String() || k1 != eth1.String() {
		t.Fatalf("keys %q/%q do not match addresses %q/%q", k0, k1, eth0, eth1)
	}
	// Re-lookup must hit the cache and stay correct.
	if again := c.lookup(eth1); again != k1 {
		t.Fatalf("cached key changed: %q -> %q", k1, again)
	}
	// And the plain v4/v6 cases still alternate correctly.
	v4 := &net.UDPAddr{IP: net.ParseIP("127.0.0.1"), Port: 1}
	v6 := &net.UDPAddr{IP: net.ParseIP("::1"), Port: 1}
	if c.lookup(v4) == c.lookup(v6) {
		t.Fatal("v4/v6 conflation")
	}
}

// TestPeerCacheEviction pins the resolve cache's cap: past the limit an
// insert evicts one entry and counts it, so peer churn cannot grow the
// transport without bound.
func TestPeerCacheEviction(t *testing.T) {
	old := peerCacheLimit
	peerCacheLimit = 8
	defer func() { peerCacheLimit = old }()

	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 50; i++ {
		if _, err := a.resolve(fmt.Sprintf("127.0.0.1:%d", 10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	a.mu.Lock()
	n := len(a.peers)
	a.mu.Unlock()
	if n > 8 {
		t.Fatalf("peer cache grew to %d entries past the cap of 8", n)
	}
	if ev := a.Stats().PeerEvictions; ev != 50-8 {
		t.Fatalf("PeerEvictions = %d, want %d", ev, 50-8)
	}
	// An evicted peer still resolves (one re-resolution, not an error).
	if _, err := a.resolve("127.0.0.1:10000"); err != nil {
		t.Fatal(err)
	}
}

// TestAllocBudgetGROSplit extends the transport's allocation budget to
// the GRO receive split: carving a coalesced payload back into datagrams
// must not allocate — the segments are subslices of the receive ring.
func TestAllocBudgetGROSplit(t *testing.T) {
	payload := make([]byte, 12*1024)
	sink := 0
	emit := func(d []byte) { sink += len(d) }
	allocs := testing.AllocsPerRun(200, func() {
		splitSegments(payload, 1000, emit)
	})
	if allocs != 0 {
		t.Fatalf("GRO split allocates %.1f/op, want 0", allocs)
	}
	// Geometry: 12 full segments + a short tail.
	if n := splitSegments(payload, 1000, func([]byte) {}); n != 13 {
		t.Fatalf("splitSegments = %d segments, want 13", n)
	}
}

// multiPeerRun drives interleaved runs from several peers at one
// dual-stack receiver and asserts every datagram is attributed to its
// sender's address — no cross-peer conflation from the src caches.
func multiPeerRun(t *testing.T, listen func(addr string) (*Transport, error)) {
	t.Helper()
	// A dual-stack wildcard socket hears both v4 and v6 loopback peers.
	recv, err := listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	_, port, err := net.SplitHostPort(recv.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	var got collector
	got.install(recv)

	type peer struct {
		tr     *Transport
		target string // the receiver's address in this peer's family
	}
	var peers []peer
	for _, bind := range []struct{ local, targetHost string }{
		{"127.0.0.1:0", "127.0.0.1"},
		{"[::1]:0", "::1"},
	} {
		tr, err := ListenWithOptions(bind.local, Options{})
		if err != nil {
			t.Logf("skip peer %s: %v", bind.local, err)
			continue
		}
		defer tr.Close()
		peers = append(peers, peer{tr, net.JoinHostPort(bind.targetHost, port)})
	}
	if len(peers) < 2 {
		t.Skip("SKIP: need both v4 and v6 loopback")
	}

	// Interleave runs: peer 0 sends 3, peer 1 sends 3, ... so the src
	// caches see alternating peers with runs in between.
	total := 0
	for round := 0; round < 10; round++ {
		for pi, p := range peers {
			for k := 0; k < 3; k++ {
				msg := []byte(fmt.Sprintf("p%d-r%d-%d", pi, round, k))
				if err := p.tr.Send(p.target, msg); err != nil {
					t.Fatal(err)
				}
				total++
			}
		}
	}
	got.waitN(t, total)
	got.mu.Lock()
	defer got.mu.Unlock()
	for i, d := range got.data {
		var pi int
		if _, err := fmt.Sscanf(string(d), "p%d-", &pi); err != nil {
			t.Fatalf("unparseable payload %q", d)
		}
		want := peers[pi].tr.LocalAddr()
		if got.srcs[i] != want {
			t.Fatalf("datagram %q attributed to %q, want %q (cross-peer conflation)", d, got.srcs[i], want)
		}
	}
}

// TestMultiPeerSrcStability runs the interleaved multi-peer check
// through the platform's default receive loop (vectorized on Linux).
func TestMultiPeerSrcStability(t *testing.T) {
	multiPeerRun(t, Listen)
}

// TestMultiPeerSrcStabilityGenericLoop forces the portable per-datagram
// loop (the one the srcKeyCache fix targets) on every platform. GRO is
// disabled because the generic loop cannot split coalesced payloads.
func TestMultiPeerSrcStabilityGenericLoop(t *testing.T) {
	debugGenericRead = true
	defer func() { debugGenericRead = false }()
	multiPeerRun(t, func(addr string) (*Transport, error) {
		return ListenWithOptions(addr, Options{DisableGSO: true, DisableGRO: true})
	})
}

// TestOffloadAndLoopPathsIdentical is the contract test: the same burst
// through an offload-enabled transport and an offload-disabled one must
// be observably identical at the receiver — same datagrams, same order,
// same source attribution shape.
func TestOffloadAndLoopPathsIdentical(t *testing.T) {
	run := func(opts Options) [][]byte {
		a, err := ListenWithOptions("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := ListenWithOptions("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		var got collector
		got.install(b)
		// Mixed shape: equal-size runs (coalescible), breaks, a tail.
		var ds [][]byte
		for i, s := range []int{256, 256, 256, 256, 100, 256, 256, 64, 64, 64, 8} {
			d := make([]byte, s)
			d[0] = byte(i)
			ds = append(ds, d)
		}
		sent, err := a.SendBatch(b.LocalAddr(), ds)
		if err != nil || sent != len(ds) {
			t.Fatalf("SendBatch = %d, %v", sent, err)
		}
		got.waitN(t, len(ds))
		got.mu.Lock()
		defer got.mu.Unlock()
		return got.data
	}
	off := run(Options{})
	loop := run(Options{DisableGSO: true, DisableGRO: true})
	if len(off) != len(loop) {
		t.Fatalf("offload delivered %d datagrams, loop %d", len(off), len(loop))
	}
	for i := range off {
		if len(off[i]) != len(loop[i]) || off[i][0] != loop[i][0] {
			t.Fatalf("datagram %d differs: offload len=%d tag=%d, loop len=%d tag=%d",
				i, len(off[i]), off[i][0], len(loop[i]), loop[i][0])
		}
	}
}

func TestShardedLoopback(t *testing.T) {
	s, err := ListenSharded("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.NumQueues(); n != 2 && n != 1 {
		t.Fatalf("NumQueues = %d", n)
	}
	if s.NumQueues() == 1 {
		t.Log("platform degraded to a single queue (no SO_REUSEPORT)")
	}
	var got collector
	got.install(s)

	// Many source sockets so the kernel's flow hash has flows to spread.
	const peers, each = 8, 25
	var senders []*Transport
	for i := 0; i < peers; i++ {
		tr, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		senders = append(senders, tr)
	}
	for k := 0; k < each; k++ {
		for i, tr := range senders {
			if err := tr.Send(s.LocalAddr(), []byte(fmt.Sprintf("s%d-%d", i, k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	got.waitN(t, peers*each)

	// Aggregate accounting must cover every datagram...
	st := s.Stats()
	if st.RecvDatagrams < peers*each {
		t.Fatalf("aggregate RecvDatagrams = %d, want >= %d", st.RecvDatagrams, peers*each)
	}
	// ...and the per-queue counters must sum to the aggregate.
	var sum uint64
	for i := 0; i < s.NumQueues(); i++ {
		_, d := s.QueueRecvStats(i)
		sum += d
	}
	if sum != st.RecvDatagrams {
		t.Fatalf("per-queue sum %d != aggregate %d", sum, st.RecvDatagrams)
	}
	// Source attribution must survive the fan-in.
	got.mu.Lock()
	defer got.mu.Unlock()
	for i, d := range got.data {
		var si, k int
		if _, err := fmt.Sscanf(string(d), "s%d-%d", &si, &k); err != nil {
			t.Fatalf("unparseable payload %q", d)
		}
		if got.srcs[i] != senders[si].LocalAddr() {
			t.Fatalf("payload %q attributed to %q, want %q", d, got.srcs[i], senders[si].LocalAddr())
		}
	}
}

func TestShardedSendAndBatch(t *testing.T) {
	s, err := ListenSharded("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got collector
	got.install(b)
	if err := s.Send(b.LocalAddr(), []byte("one")); err != nil {
		t.Fatal(err)
	}
	sent, err := s.SendBatch(b.LocalAddr(), burst(16, 128))
	if err != nil || sent != 16 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	got.waitN(t, 17)
}

func TestShardedQueueCountClamp(t *testing.T) {
	s, err := ListenSharded("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumQueues() != 1 {
		t.Fatalf("NumQueues = %d, want 1 for n=0", s.NumQueues())
	}
}

// TestShardedSendBatchTo checks the sharded listener's scattered send:
// destinations hash to their queues and same-queue runs ride one batch
// each, yet every receiver gets its datagrams in order from the shared
// address, and the aggregate counters cover the whole burst.
func TestShardedSendBatchTo(t *testing.T) {
	s, err := ListenSharded("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var rx []*Transport
	var got []*collector
	for i := 0; i < 3; i++ {
		tr, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		c := &collector{}
		c.install(tr)
		rx, got = append(rx, tr), append(got, c)
	}
	if sent, err := s.SendBatchTo([]string{rx[0].LocalAddr()}, nil); sent != 0 || err == nil {
		t.Fatalf("mismatched SendBatchTo = (%d, %v), want (0, error)", sent, err)
	}
	const rounds = 10
	var dsts []string
	var ds [][]byte
	for k := 0; k < rounds; k++ {
		for i, tr := range rx {
			dsts = append(dsts, tr.LocalAddr())
			ds = append(ds, []byte(fmt.Sprintf("r%d-%d", i, k)))
		}
	}
	sent, err := s.SendBatchTo(dsts, ds)
	if err != nil || sent != len(ds) {
		t.Fatalf("SendBatchTo = (%d, %v), want (%d, nil)", sent, err, len(ds))
	}
	for i, c := range got {
		c.waitN(t, rounds)
		c.mu.Lock()
		for k, d := range c.data {
			if want := fmt.Sprintf("r%d-%d", i, k); string(d) != want || c.srcs[k] != s.LocalAddr() {
				t.Fatalf("receiver %d datagram %d = %q from %q, want %q from %q",
					i, k, d, c.srcs[k], want, s.LocalAddr())
			}
		}
		c.mu.Unlock()
	}
	if st := s.Stats(); st.BatchSends == 0 || st.BatchDatagrams != uint64(len(ds)) {
		t.Fatalf("stats = %+v, want BatchDatagrams=%d over at least one batch", st, len(ds))
	}
}

// TestShardedQueueFacts checks what the sharded listener reports about
// itself: its offload verdict and coalescing match a plain socket's on
// the same kernel, installing a recorder logs every queue's verdict, and
// the receive counters summed across queues cover every datagram heard.
func TestShardedQueueFacts(t *testing.T) {
	s, err := ListenSharded("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plain, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	gso, gro := s.Offload()
	if pg, pr := plain.Offload(); gso != pg || gro != pr {
		t.Fatalf("sharded Offload = (%v, %v), plain socket (%v, %v)", gso, gro, pg, pr)
	}
	if s.Coalescible() != gso {
		t.Fatalf("Coalescible = %v with gso %v", s.Coalescible(), gso)
	}

	rec := telemetry.New(telemetry.Options{})
	s.SetTelemetry(rec)
	ev := rec.Snapshot(false).Events
	if len(ev) != s.NumQueues() {
		t.Fatalf("%d events for %d queues", len(ev), s.NumQueues())
	}
	for _, e := range ev {
		if e.Kind != telemetry.EventState || e.Cause != plain.offloadCause() {
			t.Fatalf("event %+v, want state %q", e, plain.offloadCause())
		}
	}

	var got collector
	got.install(s)
	const n = 40
	for i := 0; i < n; i++ {
		if err := plain.Send(s.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got.waitN(t, n)
	batches, dgs := s.RecvBatchStats()
	var sum uint64
	for i := 0; i < s.NumQueues(); i++ {
		_, d := s.QueueRecvStats(i)
		sum += d
	}
	if dgs != n || sum != n || s.Stats().RecvDatagrams != n {
		t.Fatalf("RecvBatchStats datagrams = %d, per-queue sum %d, Stats %d; want %d each",
			dgs, sum, s.Stats().RecvDatagrams, n)
	}
	if vectorized() && batches == 0 {
		t.Fatal("RecvBatchStats counted no recvmmsg batches")
	}
}
