package topo_test

import (
	"encoding/binary"
	"testing"
	"time"

	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim/topo"
	"paccel/internal/vclock"
)

func secureLayerStats(t *testing.T, c *core.Conn) layers.SecureStats {
	t.Helper()
	s, ok := c.SecureStats()
	if !ok {
		t.Fatal("no secure layer in stack")
	}
	return s
}

// TestSecureOverTopoNATRebind is the encrypted twin of
// TestCoreOverTopoNATRebind: an AES-GCM channel across a routed, lossy,
// NAT'd topology, with a mapping rebind forced mid-stream. Recovery must
// carry the crypto state too — resumption rekeys the send direction, the
// window's replays are re-sealed under the post-resume epoch, and the
// peer adopts the new epoch off the wire — while every payload arrives
// exactly once, in order, decrypted. Runs under -race in CI's chaos job.
func TestSecureOverTopoNATRebind(t *testing.T) {
	clk := vclock.NewManual(time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC))
	n := topo.New(clk, topo.Config{Seed: 1996})
	n.AddRouter("r1")
	n.AddRouter("r2")
	n.AddNAT("n1", "198.51.100.1", 5*time.Second, "10.0.0.2")
	n.Link("n1", "r1", topo.LinkConfig{Latency: time.Millisecond})
	n.Link("r1", "r2", topo.LinkConfig{
		Latency:  2 * time.Millisecond,
		Jitter:   250 * time.Microsecond,
		LossRate: 0.02,
	})
	client := n.Host("10.0.0.2:1", "n1", topo.LinkConfig{})
	server := n.Host("10.0.1.2:1", "r2", topo.LinkConfig{Latency: time.Millisecond})

	key := []byte("topology master key")
	const rto = 20 * time.Millisecond
	mk := func(tr core.Transport) core.Config {
		return core.Config{
			Transport: tr, Clock: clk, Build: topoStack(rto, &core.SecureConfig{Key: key}),
			PeerTimeout: 500 * time.Millisecond,
			Recovery: core.RecoveryConfig{
				MaxAttempts: 60,
				BaseDelay:   100 * time.Millisecond,
				MaxDelay:    time.Second,
				Seed:        1996,
			},
		}
	}
	epC, err := core.NewEndpoint(mk(client))
	if err != nil {
		t.Fatal(err)
	}
	defer epC.Close()
	epS, err := core.NewEndpoint(mk(server))
	if err != nil {
		t.Fatal(err)
	}
	defer epS.Close()

	c, err := epC.Dial(core.PeerSpec{
		Addr: server.LocalAddr(), LocalID: []byte("topo-c"), RemoteID: []byte("topo-s"),
		LocalPort: 1, RemotePort: 2, Epoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := epS.Dial(core.PeerSpec{
		Addr: "198.51.100.1:60000", LocalID: []byte("topo-s"), RemoteID: []byte("topo-c"),
		LocalPort: 2, RemotePort: 1, Epoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	const msgs = 200
	next := uint32(0)
	ordered := true
	s.OnDeliver(func(p []byte) {
		if len(p) < 4 || binary.BigEndian.Uint32(p) != next {
			ordered = false
			return
		}
		next++
	})

	payload := make([]byte, 32)
	sent := 0
	send := func(limit int) {
		t.Helper()
		for sent < limit {
			binary.BigEndian.PutUint32(payload, uint32(sent))
			if err := c.Send(payload); err != nil {
				t.Fatalf("send %d: %v", sent, err)
			}
			sent++
		}
	}
	drive := func(d time.Duration) {
		t.Helper()
		deadline := clk.Now().Add(d)
		for clk.Now().Before(deadline) {
			if c.State() == core.StateFailed {
				t.Fatalf("client failed: %v", c.Err())
			}
			if s.State() == core.StateFailed {
				t.Fatalf("server failed: %v", s.Err())
			}
			clk.Advance(5 * time.Millisecond)
		}
	}

	// Phase 1: first half over the original mapping, sealed under epoch 1.
	send(msgs / 2)
	drive(3 * time.Second)
	if int(next) != msgs/2 {
		t.Fatalf("pre-rebind: delivered %d of %d", next, msgs/2)
	}
	extBefore, ok := n.ExternalAddr("n1", client.LocalAddr())
	if !ok {
		t.Fatal("no NAT mapping after traffic")
	}

	// Phase 2: cut the access edge until the NAT mapping idles out.
	n.SetLinkDown("10.0.0.2", "n1", true)
	n.SetLinkDown("n1", "10.0.0.2", true)
	drive(6 * time.Second)
	n.SetLinkDown("10.0.0.2", "n1", false)
	n.SetLinkDown("n1", "10.0.0.2", false)

	// Phase 3: second half. Rebind, recovery, rekey, reseal, migration —
	// and the stream still finishes exactly-once, in order.
	send(msgs)
	deadline := clk.Now().Add(4 * time.Minute)
	for int(next) < msgs && clk.Now().Before(deadline) {
		if c.State() == core.StateFailed {
			t.Fatalf("client failed post-rebind: %v", c.Err())
		}
		clk.Advance(5 * time.Millisecond)
	}

	if int(next) != msgs || !ordered {
		t.Fatalf("delivered %d of %d (ordered=%v) across the rebind", next, msgs, ordered)
	}
	extAfter, _ := n.ExternalAddr("n1", client.LocalAddr())
	if extAfter == extBefore {
		t.Fatalf("NAT never rebound (still %s) — the scenario tested nothing", extBefore)
	}
	if st := s.Stats(); st.PeerMigrations == 0 {
		t.Fatal("server never migrated the peer route")
	}

	// The crypto state rode the recovery: the client rekeyed, its epoch
	// moved past 1, and the server adopted the new generation from the
	// wire without a handshake.
	cs := secureLayerStats(t, c)
	if cs.Rekeys == 0 || cs.SendEpoch < 2 {
		t.Fatalf("client never rekeyed across recovery: %+v", cs)
	}
	ss := secureLayerStats(t, s)
	if ss.Adoptions == 0 || ss.RecvEpoch < 2 {
		t.Fatalf("server never adopted the post-recovery epoch: %+v", ss)
	}
	if ss.Opened == 0 || cs.Sealed == 0 {
		t.Fatalf("no sealed traffic flowed: client %+v server %+v", cs, ss)
	}
	t.Logf("rebind %s -> %s: client %+v server %+v", extBefore, extAfter, cs, ss)
}
