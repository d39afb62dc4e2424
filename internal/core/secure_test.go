package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

// secureStack is the encrypted composition with a keepalive: the GCM
// tag subsumes the checksum, frag sits above so fragments are sealed
// individually, and the window below so replays are re-sealed after a
// rekey. limit caps the nonce counter (0 = default).
func secureStack(key []byte, limit uint64) StackBuilder {
	return BuildStack(StackOptions{
		Secure:    &SecureConfig{Key: key, NonceLimit: limit},
		Heartbeat: 30 * time.Millisecond,
	})
}

// connSecureStats reads a connection's secure-layer counters.
func connSecureStats(t *testing.T, c *Conn) layers.SecureStats {
	t.Helper()
	s, ok := c.SecureStats()
	if !ok {
		t.Fatal("no secure layer in stack")
	}
	return s
}

// TestSecurePingPong runs encrypted traffic both ways through the full
// engine — fast path, acks, delivery — and checks the secure layer saw
// every frame.
func TestSecurePingPong(t *testing.T) {
	key := []byte("rig master key")
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.Build = secureStack(key, 0)
		cfgB.Build = secureStack(key, 0)
	})
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if err := r.a.Send([]byte(fmt.Sprintf("a-%02d", i))); err != nil {
			t.Fatal(err)
		}
		if err := r.b.Send([]byte(fmt.Sprintf("b-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.settleNet(2 * time.Second)
	if r.fromA.count() != rounds || r.fromB.count() != rounds {
		t.Fatalf("delivered %d/%d, want %d each", r.fromA.count(), r.fromB.count(), rounds)
	}
	for i := 0; i < rounds; i++ {
		if want := fmt.Sprintf("a-%02d", i); string(r.fromA.get(i)) != want {
			t.Fatalf("B message %d = %q, want %q", i, r.fromA.get(i), want)
		}
	}
	st := connSecureStats(t, r.a)
	if st.Sealed < rounds || st.Opened < rounds {
		t.Fatalf("A secure stats = %+v, want >= %d sealed and opened", st, rounds)
	}
	if st.AuthFails != 0 {
		t.Fatalf("AuthFails = %d on a clean network", st.AuthFails)
	}
	// The encrypted stack still rides the predicted fast path.
	if cs := r.a.Stats(); cs.FastSends == 0 {
		t.Fatalf("conn stats = %+v, want fast sends", cs)
	}
}

// TestSecureFragmentedPayload sends a payload past the frag threshold:
// each fragment is sealed individually (frag sits above secure) and the
// reassembly equals the original.
func TestSecureFragmentedPayload(t *testing.T) {
	key := []byte("rig master key")
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.Build = secureStack(key, 0)
		cfgB.Build = secureStack(key, 0)
	})
	big := bytes.Repeat([]byte("fragment-me-"), 512) // ~6 KB, over the default threshold
	if err := r.a.Send(big); err != nil {
		t.Fatal(err)
	}
	r.settleNet(2 * time.Second)
	if r.fromA.count() != 1 || !bytes.Equal(r.fromA.get(0), big) {
		t.Fatalf("fragmented payload corrupted (%d messages)", r.fromA.count())
	}
	if st := connSecureStats(t, r.a); st.Sealed < 2 {
		t.Fatalf("Sealed = %d, want one per fragment", st.Sealed)
	}
}

// TestSecureRecoveryRekeys is the tentpole integration scenario: a
// partition trips recovery, resumption bumps the send epoch, the window
// layer's replays are re-sealed under the new key, the peer adopts the
// new epoch, and everything submitted before or during the outage
// arrives exactly once, in order, decrypted.
func TestSecureRecoveryRekeys(t *testing.T) {
	key := []byte("rig master key")
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		for _, cfg := range []*Config{cfgA, cfgB} {
			cfg.Build = secureStack(key, 0)
			cfg.PeerTimeout = 100 * time.Millisecond
			cfg.Recovery = testRecovery(50)
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
	// Submitted into the void: sealed under epoch 1, unacked in A's
	// window, replayed (and re-sealed) after the rekey.
	for i := 0; i < 3; i++ {
		send(fmt.Sprintf("cut-%d", i))
	}
	advanceBy(r, 300*time.Millisecond)
	if got := r.a.State(); got != StateRecovering {
		t.Fatalf("state during partition = %v, want recovering", got)
	}
	send("during-recovery")

	partitionAB(r, false)
	advanceBy(r, 2*time.Second)

	if got := r.a.State(); got != StateActive {
		t.Fatalf("state after heal = %v, want active", got)
	}
	if r.fromA.count() != len(want) {
		t.Fatalf("B delivered %d messages, want %d", r.fromA.count(), len(want))
	}
	for i, w := range want {
		if !bytes.Equal(r.fromA.get(i), w) {
			t.Fatalf("message %d = %q, want %q", i, r.fromA.get(i), w)
		}
	}

	stA := connSecureStats(t, r.a)
	if stA.Rekeys == 0 || stA.SendEpoch < 2 {
		t.Fatalf("A never rekeyed: %+v", stA)
	}
	if stA.Reseals == 0 {
		t.Fatalf("no replays were re-sealed: %+v", stA)
	}
	stB := connSecureStats(t, r.b)
	if stB.Adoptions == 0 || stB.RecvEpoch < 2 {
		t.Fatalf("B never adopted the new epoch: %+v", stB)
	}
	if stB.AuthFails != 0 {
		t.Fatalf("B dropped frames during rekey: %+v", stB)
	}

	// The rekeyed session keeps working both ways.
	if err := r.b.Send([]byte("back")); err != nil {
		t.Fatal(err)
	}
	r.settleNet(time.Second)
	if r.fromB.count() != 1 || !bytes.Equal(r.fromB.get(0), []byte("back")) {
		t.Fatalf("A got %d reverse messages", r.fromB.count())
	}
}

// TestSecureNonceExhaustionHardFails drives the counter into a tiny
// limit: the failing send surfaces ErrNonceExhausted and the connection
// lands in Failed immediately — no recovery attempt, because a resume
// would rekey and mask the guard.
func TestSecureNonceExhaustionHardFails(t *testing.T) {
	key := []byte("rig master key")
	const limit = 8
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.Build = secureStack(key, limit)
		cfgB.Build = secureStack(key, 0)
		cfgA.Recovery = testRecovery(50)
	})
	var got error
	for i := 0; i < limit+4; i++ {
		if err := r.a.Send([]byte("spend a nonce")); err != nil {
			got = err
			break
		}
		// Let acks flow so the window never blocks the sends; note the
		// heartbeat and ack machinery never burn A's counters here —
		// control frames below the secure layer are not sealed.
		r.settleNet(50 * time.Millisecond)
	}
	if !errors.Is(got, layers.ErrNonceExhausted) {
		t.Fatalf("send error = %v, want ErrNonceExhausted", got)
	}
	if st := r.a.State(); st != StateFailed {
		t.Fatalf("state = %v, want failed (hard-fail, no recovery)", st)
	}
	if !errors.Is(r.a.Err(), layers.ErrNonceExhausted) {
		t.Fatalf("Err() = %v, want ErrNonceExhausted cause", r.a.Err())
	}
	if st := r.a.Stats(); st.Recoveries != 0 {
		t.Fatalf("Recoveries = %d, want 0 (terminal failure bypasses recovery)", st.Recoveries)
	}
	if err := r.a.Send([]byte("after")); !errors.Is(err, ErrConnFailed) {
		t.Fatalf("send after hard fail = %v, want ErrConnFailed", err)
	}
}

// TestSecureFanoutFallsBackPerMember: the secure layer's predicted
// sealed flag marks the stack stateful, so group sends skip the shared
// template and seal per member — every member still gets every payload.
func TestSecureFanoutFallsBackPerMember(t *testing.T) {
	key := []byte("star master key")
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	hub, err := NewEndpoint(Config{Transport: net.Endpoint("hub"), Clock: clk, Build: secureStack(key, 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	const members, rounds = 3, 10
	var conns []*Conn
	var sinks []*sink
	for i := 0; i < members; i++ {
		name := memberName(i)
		ep, err := NewEndpoint(Config{Transport: net.Endpoint(name), Clock: clk, Build: secureStack(key, 0)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		hc, err := hub.Dial(PeerSpec{
			Addr: name, LocalID: []byte("hub"), RemoteID: []byte(name),
			LocalPort: 1, RemotePort: uint16(i + 2), Epoch: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		mc, err := ep.Dial(PeerSpec{
			Addr: "hub", LocalID: []byte(name), RemoteID: []byte("hub"),
			LocalPort: uint16(i + 2), RemotePort: 1, Epoch: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		sk := &sink{}
		mc.OnDeliver(sk.add)
		conns, sinks = append(conns, hc), append(sinks, sk)
	}
	fan, err := NewFanout(hub, conns...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if err := fan.Send([]byte(fmt.Sprintf("enc-%02d", i))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(200 * time.Millisecond)
	}
	clk.Advance(2 * time.Second)
	for m, sk := range sinks {
		if sk.count() != rounds {
			t.Fatalf("member %d delivered %d of %d", m, sk.count(), rounds)
		}
		for i := 0; i < rounds; i++ {
			if want := fmt.Sprintf("enc-%02d", i); string(sk.get(i)) != want {
				t.Fatalf("member %d message %d = %q, want %q", m, i, sk.get(i), want)
			}
		}
	}
	for m, c := range conns {
		if st := connSecureStats(t, c); st.Sealed < rounds {
			t.Fatalf("member %d sealed %d, want >= %d (per-member seal)", m, st.Sealed, rounds)
		}
	}
}
