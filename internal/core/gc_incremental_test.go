package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

// TestCookieGCSweepBudgetBounded is the regression test for the
// incremental GC: the old sweep walked every shard's whole table under
// routeMu, so at large entry counts one timer callback stalled the
// receive path for the full scan. The incremental sweep must never
// examine more than its slot budget (gcSweepBudget) per callback — and must
// still evict everything the TTL contract promises.
func TestCookieGCSweepBudgetBounded(t *testing.T) {
	const ttl = time.Minute
	const budget = 128
	const entries = 20000
	const anchors = 8
	clk := newTestClock()
	net := newTestNet(clk)
	epS, err := NewEndpoint(Config{
		Transport: net.Endpoint("S"),
		Clock:     clk,
		CookieTTL: ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epS.Close()
	epS.routeMu.Lock()
	epS.gcBudget = budget
	epS.routeMu.Unlock()

	// Spread the synthetic learned routes over a few anchor connections,
	// like a real fleet would.
	for i := 0; i < anchors; i++ {
		anchor, err := epS.Dial(PeerSpec{
			Addr: fmt.Sprintf("X%d", i), LocalID: []byte("s"), RemoteID: []byte("x"),
			LocalPort: uint16(i + 1), RemotePort: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := entries / anchors
		if got := epS.BindBenchCookies(anchor, uint64(1+i*n)<<20, n, true); got != n {
			t.Fatalf("anchor %d: bound %d of %d synthetic cookies", i, got, n)
		}
	}
	if got := cookieCount(epS); got != entries {
		t.Fatalf("router holds %d cookies before GC, want %d", got, entries)
	}
	slots := epS.Snapshot().TableSlots
	if slots <= budget {
		t.Fatalf("table has only %d slots — grow the test, the budget is not exercised", slots)
	}

	// Three TTLs: every pass is now split over many bounded sweeps, and
	// all idle learned routes must still be gone.
	clk.Advance(3 * ttl)
	s := epS.Snapshot()
	if s.GCMaxSweepSlots > budget {
		t.Fatalf("GCMaxSweepSlots = %d exceeds the %d-slot budget (sweep not incremental)",
			s.GCMaxSweepSlots, budget)
	}
	minSweeps := uint64(slots) / budget // at least one pass's worth of sweeps
	if s.GCSweeps < minSweeps {
		t.Fatalf("GCSweeps = %d, want ≥ %d — the pass was not split", s.GCSweeps, minSweeps)
	}
	if got := cookieCount(epS); got != 0 {
		t.Fatalf("router holds %d cookies after 3×TTL, want 0 (bounded memory)", got)
	}
	if s.CookiesEvicted != entries {
		t.Fatalf("CookiesEvicted = %d, want %d", s.CookiesEvicted, entries)
	}
}

// TestGCPacingUnchangedForSmallTables pins the compatibility contract:
// when the table fits inside one sweep budget, the GC keeps the classic
// TTL/2 cadence, so small-deployment eviction timing is bit-identical to
// the pre-incremental engine (the manual-clock GC tests above depend on
// it).
func TestGCPacingUnchangedForSmallTables(t *testing.T) {
	const ttl = time.Minute
	clk := newTestClock()
	net := newTestNet(clk)
	epS, err := NewEndpoint(Config{Transport: net.Endpoint("S"), Clock: clk, CookieTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer epS.Close()
	anchor, err := epS.Dial(PeerSpec{
		Addr: "X", LocalID: []byte("s"), RemoteID: []byte("x"), LocalPort: 1, RemotePort: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	epS.BindBenchCookies(anchor, 1<<20, 16, true)
	// A route never refreshed is evicted by the third sweep — exactly at
	// 1.5×TTL on the TTL/2 cadence, and not a sweep before.
	clk.Advance(3*ttl/2 - time.Millisecond)
	if got := cookieCount(epS); got != 16 {
		t.Fatalf("evicted early: %d cookies left before 1.5×TTL", got)
	}
	clk.Advance(time.Millisecond)
	if got := cookieCount(epS); got != 0 {
		t.Fatalf("%d cookies left at 1.5×TTL, want 0", got)
	}
	if s := epS.Snapshot(); s.GCSweeps != 3 {
		t.Fatalf("GCSweeps = %d over 1.5×TTL, want 3 (TTL/2 cadence)", s.GCSweeps)
	}
}

// TestShutdownMidStorm is the deadlock + goroutine-leak regression for
// Endpoint.Shutdown invoked while everything is on fire at once: the
// send backlog is full behind a partitioned link, recovery redials are
// in flight, a connect storm is hammering the admission path, and the
// incremental GC is sweeping. Shutdown must come back when its context
// expires (the backlog can never drain), close everything, and leave no
// goroutine behind.
func TestShutdownMidStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	epS, err := NewEndpoint(Config{
		Transport:  net.Endpoint("S"),
		MaxConns:   3,
		MaxBacklog: 4,
		CookieTTL:  50 * time.Millisecond,
		Recovery:   RecoveryConfig{MaxAttempts: 10, BaseDelay: 2 * time.Millisecond, Seed: 1},
		Accept:     acceptAll,
		OnConn:     func(c *Conn) { c.OnDeliver(func([]byte) {}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	epS.routeMu.Lock()
	epS.gcBudget = 64 // "the incremental GC is sweeping": many small sweeps
	epS.routeMu.Unlock()

	// A connection whose peer is partitioned away: its backlog fills and
	// cannot drain, and Fail puts recovery redials in flight.
	victim, err := epS.Dial(PeerSpec{
		Addr: "GONE", LocalID: []byte("s"), RemoteID: []byte("g"),
		LocalPort: 1, RemotePort: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.SetLinkDown("S", "GONE", true)
	net.SetLinkDown("GONE", "S", true)
	for i := 0; ; i++ {
		if err := victim.Send([]byte("stuck")); errors.Is(err, ErrBackpressure) {
			break
		}
		if i > 10000 {
			t.Fatal("backlog never filled")
		}
	}
	victim.Fail(errors.New("test: partition"))

	// The storm: concurrent clients spam identified first messages; with
	// MaxConns=3 the admission path is rejecting throughout.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var clients []*Endpoint
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ep, err := NewEndpoint(Config{Transport: net.Endpoint(fmt.Sprintf("C%d-%d", g, i))})
				if err != nil {
					return
				}
				mu.Lock()
				clients = append(clients, ep)
				mu.Unlock()
				conn, err := ep.Dial(PeerSpec{
					Addr: "S", LocalID: []byte(fmt.Sprintf("c%d-%d", g, i)), RemoteID: []byte("srv"),
					LocalPort: uint16(i%65000 + 1), RemotePort: 9, Epoch: uint32(g),
				})
				if err != nil {
					continue
				}
				conn.Send([]byte("storm"))
			}
		}(g)
	}

	// Let the storm rage, then shut down in the middle of it.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- epS.Shutdown(ctx) }()
	select {
	case err := <-done:
		// The victim's backlog can never drain, so the expected outcome
		// is the context's error after a forced Close.
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("Shutdown deadlocked mid-storm\n%s", buf[:runtime.Stack(buf, true)])
	}

	close(stop)
	wg.Wait()
	for _, ep := range clients {
		ep.Close()
	}
	settleGoroutines(t, baseline)
}
