package topo_test

import (
	"encoding/binary"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim/topo"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

// The point of the topology is that the engine cannot tell it from a
// real network: Host must satisfy the same contracts netsim and UDP do.
var (
	_ core.Transport      = (*topo.Host)(nil)
	_ core.BatchTransport = (*topo.Host)(nil)
)

// topoStack is the recovery stack the topology tests run, plaintext or,
// with secure set, encrypted.
func topoStack(rto time.Duration, secure *core.SecureConfig) core.StackBuilder {
	build := core.BuildStack(core.StackOptions{
		// The topology enforces a real MTU; the default threshold
		// (DefaultFragThreshold, 8000) assumes a fragmentation-friendly
		// path and would hand the first hop frames — packed ones above
		// all — it must refuse. Cap frames the way a path-MTU-aware
		// deployment does.
		FragThreshold:  1200,
		RetransTimeout: rto, Naks: true,
		Heartbeat: 100 * time.Millisecond, HeartbeatJitter: 25 * time.Millisecond,
		Secure: secure,
	})
	return func(spec core.PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
		ls, err := build(spec, order)
		if err != nil {
			return nil, err
		}
		ls[len(ls)-2].(*layers.Heartbeat).Seed = int64(spec.LocalPort)
		return ls, nil
	}
}

// TestCoreOverTopoNATRebind runs the full engine — window, recovery,
// migration — across a routed, lossy, NAT'd topology and forces a
// mapping rebind mid-stream by idling past the NAT timeout. The client
// reappears on a new external address; the server must not migrate on
// cookie-only traffic, must detect the dead peer, and must re-learn the
// route from an identified probe — with every message delivered exactly
// once, in order. This is the CI -race chaos entry for the topo layer
// (alongside TestTopoSchedule in experiments).
func TestCoreOverTopoNATRebind(t *testing.T) {
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

	const rto = 20 * time.Millisecond
	mk := func(tr core.Transport) core.Config {
		return core.Config{
			Transport: tr, Clock: clk, Build: topoStack(rto, nil),
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
	// The server dials back toward whatever address the NAT hands the
	// client; until traffic flows there is no mapping, so it starts with
	// a placeholder and lets migration fix it up — exactly the position
	// a real server is in.
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

	// Phase 1: establish and deliver the first half over the original
	// mapping.
	send(msgs / 2)
	drive(3 * time.Second)
	if int(next) != msgs/2 {
		t.Fatalf("pre-rebind: delivered %d of %d", next, msgs/2)
	}
	extBefore, ok := n.ExternalAddr("n1", client.LocalAddr())
	if !ok {
		t.Fatal("no NAT mapping after traffic")
	}

	// Phase 2: go silent past the NAT idle. Heartbeats would keep the
	// mapping alive, so silence long enough needs the endpoints' own
	// quiet period to outlast it — 5s idle vs 100ms heartbeats means the
	// mapping stays live; force the rebind the way a CGN does, by
	// expiring it behind the endpoints' back (clock jump with no timer
	// fire in between is impossible under vclock, so use a hard cut: the
	// access edge goes down, traffic stops, the mapping idles out).
	n.SetLinkDown("10.0.0.2", "n1", true)
	n.SetLinkDown("n1", "10.0.0.2", true)
	drive(6 * time.Second)
	n.SetLinkDown("10.0.0.2", "n1", false)
	n.SetLinkDown("n1", "10.0.0.2", false)

	// Phase 3: second half. The first outbound packet rebinds; the
	// engines recover and migrate, and the stream finishes exactly-once.
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
	if st := n.NATStats("n1"); st.Rebinds == 0 {
		t.Fatalf("NAT stats = %+v, want a rebind", st)
	}
	if got := s.RemoteAddr(); got != extAfter {
		t.Fatalf("server routes to %s, want the rebound mapping %s", got, extAfter)
	}
	stC, stS := c.Stats(), s.Stats()
	if stS.PeerMigrations == 0 {
		t.Fatal("server never migrated the peer route")
	}
	t.Logf("rebind %s -> %s: recoveries=%d migrations=%d probes=%d",
		extBefore, extAfter, stC.Recoveries+stS.Recoveries,
		stS.PeerMigrations, stC.RecoveryProbes+stS.RecoveryProbes)
}
