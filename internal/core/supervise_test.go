package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"paccel/internal/faultinject"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

func TestFailIsTypedAndTerminal(t *testing.T) {
	var failMu sync.Mutex
	var failed []error
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.OnConnFail = func(c *Conn, err error) {
			failMu.Lock()
			failed = append(failed, err)
			failMu.Unlock()
		}
	})
	if r.a.State() != StateActive || r.a.Err() != nil {
		t.Fatalf("fresh conn: state=%v err=%v", r.a.State(), r.a.Err())
	}

	boom := errors.New("boom")
	r.a.Fail(boom)
	r.a.Fail(boom) // idempotent

	if r.a.State() != StateFailed {
		t.Fatalf("state = %v", r.a.State())
	}
	err := r.a.Err()
	if !errors.Is(err, ErrConnFailed) || !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want wrap of ErrConnFailed and the cause", err)
	}
	if serr := r.a.Send([]byte("x")); !errors.Is(serr, ErrConnFailed) {
		t.Fatalf("Send on failed conn = %v", serr)
	}
	failMu.Lock()
	n := len(failed)
	failMu.Unlock()
	if n != 1 {
		t.Fatalf("OnConnFail ran %d times, want 1", n)
	}

	// Late datagrams for the failed conn are dropped and counted, not
	// delivered and not router noise.
	before := r.a.Stats()
	if err := r.b.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	after := r.a.Stats()
	if after.Dropped != before.Dropped+1 {
		t.Fatalf("Dropped %d -> %d, want +1", before.Dropped, after.Dropped)
	}
	if after.Delivered != before.Delivered {
		t.Fatal("failed conn delivered a message")
	}

	if err := r.a.Close(); err != nil {
		t.Fatal(err)
	}
	if r.a.State() != StateClosed {
		t.Fatalf("state after close = %v", r.a.State())
	}
}

func TestDeadPeerDetection(t *testing.T) {
	const timeout = 100 * time.Millisecond
	var failMu sync.Mutex
	var cause error
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.PeerTimeout = timeout
		cfgA.OnConnFail = func(c *Conn, err error) {
			failMu.Lock()
			cause = err
			failMu.Unlock()
		}
	})

	// Live traffic (B's acks count) keeps supervision quiet across many
	// intervals.
	for i := 0; i < 6; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r.settleNet(timeout / 2)
	}
	if r.a.State() != StateActive {
		t.Fatalf("live conn failed: %v", r.a.Err())
	}

	// Silence for two full intervals trips the detector.
	r.settleNet(2 * timeout)
	if r.a.State() != StateFailed {
		t.Fatal("silent peer not detected")
	}
	failMu.Lock()
	err := cause
	failMu.Unlock()
	if !errors.Is(err, ErrPeerSilent) || !errors.Is(err, ErrConnFailed) {
		t.Fatalf("failure cause = %v, want ErrPeerSilent wrapping ErrConnFailed", err)
	}
	// B has no PeerTimeout configured and must be unaffected.
	if r.b.State() != StateActive {
		t.Fatalf("B state = %v", r.b.State())
	}
}

// cookieCount sums the live entries of the sharded router.
func cookieCount(ep *Endpoint) int {
	n := 0
	for i := range ep.shards {
		sh := &ep.shards[i]
		sh.mu.RLock()
		n += sh.tab.used
		sh.mu.RUnlock()
	}
	return n
}

func TestCookieGCBoundsRouterUnderChurn(t *testing.T) {
	const ttl = time.Minute
	const churn = 32
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	served := &sink{}
	epS, err := NewEndpoint(Config{
		Transport: net.Endpoint("S"),
		Clock:     clk,
		CookieTTL: ttl,
		Accept: func(remote layers.IdentInfo, netSrc string) (PeerSpec, bool) {
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
	defer epS.Close()

	// A churning population: each client identifies itself once (the
	// server learns its cookie) and vanishes.
	for i := 0; i < churn; i++ {
		ep, err := NewEndpoint(Config{Transport: net.Endpoint(fmt.Sprintf("C%d", i)), Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := ep.Dial(PeerSpec{
			Addr: "S", LocalID: []byte(fmt.Sprintf("c%d", i)), RemoteID: []byte("srv"),
			LocalPort: uint16(i + 1), RemotePort: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send([]byte("hi")); err != nil {
			t.Fatal(err)
		}
		ep.Close()
	}
	if got := epS.Snapshot().CookiesLearned; got != churn {
		t.Fatalf("CookiesLearned = %d, want %d", got, churn)
	}
	if got := cookieCount(epS); got != churn {
		t.Fatalf("router holds %d cookies before GC, want %d", got, churn)
	}

	// Two TTLs of idleness: every learned binding must be gone.
	clk.Advance(2 * ttl)
	if got := cookieCount(epS); got != 0 {
		t.Fatalf("router holds %d cookies after GC, want 0 (bounded memory)", got)
	}
	if got := epS.Snapshot().CookiesEvicted; got != churn {
		t.Fatalf("CookiesEvicted = %d, want %d", got, churn)
	}
}

func TestCookieGCKeepsActivePeersAndRelearnsEvicted(t *testing.T) {
	const ttl = time.Minute
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	fromA := &sink{}
	epA, err := NewEndpoint(Config{Transport: net.Endpoint("A"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := NewEndpoint(Config{Transport: net.Endpoint("B"), Clock: clk, CookieTTL: ttl})
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
	b.OnDeliver(fromA.add)

	// Steady traffic refreshes the learned binding's epoch: many TTLs
	// pass and the cookie survives.
	if err := a.Send([]byte("0")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		clk.Advance(ttl / 2)
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := epB.Snapshot().CookiesEvicted; got != 0 {
		t.Fatalf("active peer's cookie evicted %d times", got)
	}

	// Now go idle: the binding is evicted, cookie-only traffic is
	// dropped, and the window layer's identified retransmission
	// re-learns the route (§2.2 recovery).
	clk.Advance(2 * ttl)
	if got := epB.Snapshot().CookiesEvicted; got != 1 {
		t.Fatalf("CookiesEvicted = %d, want 1", got)
	}
	delivered := fromA.count()
	learned := epB.Snapshot().CookiesLearned
	if err := a.Send([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if epB.Snapshot().UnknownCookie == 0 {
		t.Fatal("cookie-only datagram after eviction should be dropped")
	}
	// Drive the retransmission timer; the retransmit carries the
	// identification and restores the route.
	clk.Advance(5 * time.Second)
	if fromA.count() != delivered+1 {
		t.Fatalf("delivered %d, want %d (recovery via identified retransmit)",
			fromA.count(), delivered+1)
	}
	if got := epB.Snapshot().CookiesLearned; got != learned+1 {
		t.Fatalf("CookiesLearned = %d, want %d", got, learned+1)
	}
}

// shutdownTap asserts transmissions stop once the transport closes.
type shutdownTap struct {
	Transport
	mu              sync.Mutex
	closed          bool
	sendsAfterClose int
}

func (s *shutdownTap) Send(dst string, d []byte) error {
	s.mu.Lock()
	if s.closed {
		s.sendsAfterClose++
	}
	s.mu.Unlock()
	return s.Transport.Send(dst, d)
}

func (s *shutdownTap) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.Transport.Close()
}

func TestShutdownDrainsBeforeTransportClose(t *testing.T) {
	// Real clock: Shutdown polls in real time for the peer's acks.
	net := netsim.New(vclock.Real{}, netsim.Config{Latency: 2 * time.Millisecond})
	tapA := &shutdownTap{Transport: net.Endpoint("A")}
	epA, err := NewEndpoint(Config{Transport: tapA})
	if err != nil {
		t.Fatal(err)
	}
	fromA := &sink{}
	epB, err := NewEndpoint(Config{Transport: net.Endpoint("B")})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	sa, sb := specAB()
	// Pre-agreed cookies: real timers may reorder the in-flight frames,
	// and a cookie-only frame overtaking the identified first one would
	// be dropped for good (nobody retransmits after Shutdown).
	sa.OutCookie, sa.ExpectInCookie, sa.SkipFirstConnID = 111, 222, true
	sb.OutCookie, sb.ExpectInCookie, sb.SkipFirstConnID = 222, 111, true
	a, err := epA.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(sb)
	if err != nil {
		t.Fatal(err)
	}
	b.OnDeliver(fromA.add)

	// The window closes after 16 unacknowledged messages; the rest wait
	// in the backlog for acks that are still 4 ms away.
	const n = 40
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := func() int { a.mu.Lock(); defer a.mu.Unlock(); return len(a.send.backlog) }(); got == 0 {
		t.Fatal("expected a backlog behind the closed window before Shutdown")
	}
	pre := a.Stats()

	if err := epA.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The backlog was packed out and post-processed (Close alone would
	// discard it) ...
	st := a.Stats()
	if st.PostRuns <= pre.PostRuns || st.PackedBatches == 0 {
		t.Fatalf("PostRuns %d -> %d, PackedBatches %d: Shutdown must drain, not discard",
			pre.PostRuns, st.PostRuns, st.PackedBatches)
	}
	// ... everything was handed to the transport before it closed: the
	// last frames are still in flight and land without any retransmission.
	for deadline := time.Now().Add(5 * time.Second); fromA.count() < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := fromA.count(); got != n {
		t.Fatalf("peer received %d of %d", got, n)
	}
	for i := 0; i < n; i++ {
		if fromA.get(i)[0] != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
	// ... the endpoint is closed, and nothing was transmitted after the
	// transport closed.
	if a.State() != StateClosed {
		t.Fatalf("conn state = %v", a.State())
	}
	tapA.mu.Lock()
	late := tapA.sendsAfterClose
	closed := tapA.closed
	tapA.mu.Unlock()
	if !closed || late != 0 {
		t.Fatalf("transport closed=%v, sends after close=%d", closed, late)
	}
	// Shutdown is terminal: new dials and sends are refused.
	if _, err := epA.Dial(sa); err != ErrConnClosed {
		t.Fatalf("Dial after shutdown = %v", err)
	}
}

func TestShutdownRespectsContext(t *testing.T) {
	// A window full of unacknowledged messages and a backlog that can
	// never drain (the peer is black-holed): Shutdown must give up when
	// the context expires, closing the endpoint anyway.
	r := newRig(t, netsim.Config{Latency: time.Hour}, nil)
	for i := 0; i < 20; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.epA.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if !r.epA.closed.Load() {
		t.Fatal("endpoint left open after context expiry")
	}
}

func TestBackpressureIsTyped(t *testing.T) {
	r := newRig(t, netsim.Config{Latency: time.Hour}, func(cfgA, cfgB *Config) {
		cfgA.MaxBacklog = 2
	})
	var err error
	for i := 0; i < 32 && err == nil; i++ {
		err = r.a.Send([]byte{byte(i)})
	}
	if !errors.Is(err, ErrBackpressure) || !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("overload err = %v, want ErrBacklogFull wrapping ErrBackpressure", err)
	}
}

func TestBlockOnBackpressureDrains(t *testing.T) {
	r := newRig(t, netsim.Config{Latency: 10 * time.Millisecond}, func(cfgA, cfgB *Config) {
		cfgA.MaxBacklog = 2
		cfgA.BlockOnBackpressure = true
	})
	// Fill the window (16) and the backlog (2) while the network holds
	// everything in flight.
	for i := 0; i < 18; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- r.a.Send([]byte{99}) }()

	// The blocked sender must not return while the backlog is full...
	select {
	case err := <-done:
		t.Fatalf("Send returned %v while backlog full", err)
	case <-time.After(20 * time.Millisecond):
	}
	// ... and completes once acknowledgements open the window. The
	// virtual clock is advanced from here; the blocked goroutine only
	// waits on the condition variable.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.settleNet(time.Second)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("blocked send finished with %v", err)
			}
			r.settleNet(time.Hour)
			if got := r.fromA.count(); got != 19 {
				t.Fatalf("delivered %d, want 19", got)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("blocked send never released")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBlockOnBackpressureReleasedByClose(t *testing.T) {
	r := newRig(t, netsim.Config{Latency: time.Hour}, func(cfgA, cfgB *Config) {
		cfgA.MaxBacklog = 2
		cfgA.BlockOnBackpressure = true
	})
	for i := 0; i < 18; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- r.a.Send([]byte{99}) }()
	time.Sleep(10 * time.Millisecond) // let the sender block
	r.a.Close()
	select {
	case err := <-done:
		if err != ErrConnClosed {
			t.Fatalf("blocked send after close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked send not released by Close")
	}
}

func TestChksumRefusesCorruptedFrames(t *testing.T) {
	// Every frame has one bit flipped in flight (netsim CorruptRate);
	// the checksum layer must refuse them all — counted as drops, never
	// a silently corrupted delivery.
	r := newRig(t, netsim.Config{CorruptRate: 1, Seed: 9}, nil)
	const k = 12
	for i := 0; i < k; i++ {
		if err := r.a.Send([]byte{byte(i), 0x55, 0xAA}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.fromA.count(); got != 0 {
		t.Fatalf("delivered %d corrupted messages, want 0", got)
	}
	if got := r.b.Stats().Dropped; got != k {
		t.Fatalf("receiver dropped %d, want %d (checksum refusal)", got, k)
	}
	if got := r.net.Stats().Corrupted; got < k {
		t.Fatalf("net corrupted %d, want >= %d", got, k)
	}
	// The damage is recoverable: heal the link and the retransmission
	// timers deliver everything, in order.
	r.net.SetCorruptRate(0)
	r.settleNet(time.Minute)
	if got := r.fromA.count(); got != k {
		t.Fatalf("delivered %d after healing, want %d", got, k)
	}
	for i := 0; i < k; i++ {
		if r.fromA.get(i)[0] != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestGapCloseReleasesBufferedRun(t *testing.T) {
	// A buffered-release burst is the one place the post queue holds
	// more than one op: an out-of-order gap closing releases a long run
	// at once, and each released message queues a post op. Build the gap
	// by stalling A's first datagram.
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	fiA := faultinject.New(net.Endpoint("A"), clk, 0,
		faultinject.Rule{Kind: faultinject.Stall, Direction: faultinject.Send, Nth: 1})
	epA, err := NewEndpoint(Config{Transport: fiA, Clock: clk})
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
	// Pre-agreed cookies: every datagram routes without identification,
	// so the stalled first frame doesn't take the ident exchange with it.
	sa.OutCookie, sa.ExpectInCookie, sa.SkipFirstConnID = 111, 222, true
	sb.OutCookie, sb.ExpectInCookie, sb.SkipFirstConnID = 222, 111, true
	a, err := epA.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(sb)
	if err != nil {
		t.Fatal(err)
	}
	fromA := &sink{}
	b.OnDeliver(fromA.add)

	// Frames 1..8 arrive ahead of the stalled frame 0 and sit in the
	// window's out-of-order buffer.
	for i := 0; i < 9; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fromA.count(); got != 0 {
		t.Fatalf("delivered %d with the gap open, want 0", got)
	}
	if fiA.ReleaseStalled() != 1 {
		t.Fatal("no stalled datagram to release")
	}
	// Frame 0's post-processing closes the gap and releases the whole
	// buffered run inside the same delivery.
	if err := a.Send([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if got := fromA.count(); got != 10 {
		t.Fatalf("delivered %d, want 10", got)
	}
	for i := 0; i < 10; i++ {
		if fromA.get(i)[0] != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
	if got := func() int { b.mu.Lock(); defer b.mu.Unlock(); return b.recv.pendingLen() }(); got != 0 {
		t.Fatalf("pending post queue = %d after the operation, want 0", got)
	}
}

// TestConnStateString pins the name fmt prints for each state.
func TestConnStateString(t *testing.T) {
	for s, want := range map[ConnState]string{
		StateActive: "active", StateFailed: "failed", StateClosed: "closed",
		StateRecovering: "recovering", StateRecovering + 1: "?",
	} {
		if got := s.String(); got != want {
			t.Errorf("ConnState(%d).String() = %q, want %q", s, got, want)
		}
	}
}
