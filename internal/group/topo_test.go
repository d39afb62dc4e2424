package group

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim/topo"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

// topoGroupStack is the full reliability stack the group needs across a
// real internet: window with retransmission and naks, heartbeats for
// liveness, identification for routing and migration.
func topoGroupStack(spec core.PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
	ls, err := core.BuildStack(core.StackOptions{
		// The topology enforces a real MTU: frames, packed ones
		// included, stay under it.
		FragThreshold:  1200,
		RetransTimeout: 20 * time.Millisecond, Naks: true,
		Heartbeat: 100 * time.Millisecond, HeartbeatJitter: 25 * time.Millisecond,
	})(spec, order)
	if err != nil {
		return nil, err
	}
	ls[len(ls)-2].(*layers.Heartbeat).Seed = int64(spec.LocalPort)<<8 | int64(spec.RemotePort)
	return ls, nil
}

// deliveryLog records one member's sequenced application deliveries.
type deliveryLog struct {
	mu   sync.Mutex
	msgs []string
}

func (l *deliveryLog) add(origin string, payload []byte) {
	l.mu.Lock()
	l.msgs = append(l.msgs, origin+":"+string(payload))
	l.mu.Unlock()
}

func (l *deliveryLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.msgs)
}

func (l *deliveryLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.msgs...)
}

// TestTotalOrderGroupOverTopoNATRebind runs a total-order group across
// the virtual internet: the sequencer and one member sit on the far
// router, the third member lives behind a NAT whose traffic crosses a
// bufferbloat interior link (slow bit rate, deep queue). Mid-stream the
// NAT'd member's access edge goes dark long enough for the NAT mapping
// to idle out; the group keeps multicasting while the member is
// unreachable, so its channel from the sequencer recovers mid-fanout —
// retransmission, recovery probes, NAT rebind, route migration — and the
// final phase sends from three members concurrently. Every member must
// end with the identical sequenced delivery log, each message exactly
// once. CI runs this under -race: the concurrent phase exercises the
// fanout engine, the group frame pool, and the per-connection stamping
// from racing goroutines.
func TestTotalOrderGroupOverTopoNATRebind(t *testing.T) {
	clk := vclock.NewManual(t0)
	n := topo.New(clk, topo.Config{Seed: 1996})
	n.AddRouter("r1")
	n.AddRouter("r2")
	n.AddNAT("n1", "198.51.100.1", 2*time.Second, "10.0.0.3")
	n.Link("n1", "r1", topo.LinkConfig{Latency: time.Millisecond})
	// The interior edge is the bufferbloat link: 2 Mbit/s serialization
	// with a deep queue, so bursts pile up as latency, not loss.
	n.Link("r1", "r2", topo.LinkConfig{
		Latency:  2 * time.Millisecond,
		Jitter:   250 * time.Microsecond,
		BitRate:  2e6,
		QueueLen: 256,
	})
	hosts := map[string]*topo.Host{
		"s": n.Host("10.0.1.1:1", "r2", topo.LinkConfig{Latency: time.Millisecond}),
		"b": n.Host("10.0.1.2:1", "r2", topo.LinkConfig{Latency: time.Millisecond}),
		"c": n.Host("10.0.0.3:1", "n1", topo.LinkConfig{}),
	}

	names := []string{"b", "c", "s"}
	idx := map[string]uint16{"b": 1, "c": 2, "s": 3}
	eps := make(map[string]*core.Endpoint)
	for _, name := range names {
		ep, err := core.NewEndpoint(core.Config{
			Transport: hosts[name], Clock: clk, Build: topoGroupStack,
			PeerTimeout: 500 * time.Millisecond,
			Recovery: core.RecoveryConfig{
				MaxAttempts: 60,
				BaseDelay:   100 * time.Millisecond,
				MaxDelay:    time.Second,
				Seed:        1996,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[name] = ep
	}

	// Until the NAT'd member transmits there is no mapping, so its peers
	// dial a placeholder external address and let route migration learn
	// the real one from identified traffic — the position any real
	// server is in behind a client's NAT.
	addrOf := func(member string) string {
		if member == "c" {
			return "198.51.100.1:60000"
		}
		return hosts[member].LocalAddr()
	}
	groups := make(map[string]*Group)
	logs := make(map[string]*deliveryLog)
	var conns []*core.Conn
	for _, a := range names {
		groups[a] = New(a, Total, "s")
		logs[a] = &deliveryLog{}
		groups[a].OnDeliver(logs[a].add)
	}
	for _, a := range names {
		var mine []*core.Conn
		for _, b := range names {
			if a == b {
				continue
			}
			conn, err := eps[a].Dial(core.PeerSpec{
				Addr:    addrOf(b),
				LocalID: []byte(a), RemoteID: []byte(b),
				LocalPort: idx[a], RemotePort: idx[b],
				Epoch: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			groups[a].Join(b, conn)
			mine = append(mine, conn)
			conns = append(conns, conn)
		}
		fan, err := core.NewFanout(eps[a], mine...)
		if err != nil {
			t.Fatal(err)
		}
		groups[a].UseFanout(fan)
	}

	drive := func(d time.Duration) {
		t.Helper()
		deadline := clk.Now().Add(d)
		for clk.Now().Before(deadline) {
			for _, c := range conns {
				if c.State() == core.StateFailed {
					t.Fatalf("connection failed: %v", c.Err())
				}
			}
			clk.Advance(5 * time.Millisecond)
		}
	}
	send := func(member string, lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := groups[member].Send([]byte(fmt.Sprintf("%s-%02d", member, i))); err != nil {
				t.Fatalf("%s send %d: %v", member, i, err)
			}
		}
	}

	// Phase 1: establish the mesh over the original NAT mapping.
	send("b", 0, 10)
	send("c", 0, 10)
	drive(3 * time.Second)
	for _, name := range names {
		if got := logs[name].len(); got != 20 {
			t.Fatalf("phase 1: %s delivered %d of 20", name, got)
		}
	}
	extBefore, ok := n.ExternalAddr("n1", hosts["c"].LocalAddr())
	if !ok {
		t.Fatal("no NAT mapping after phase 1 traffic")
	}

	// Phase 2: the NAT'd member's access edge goes dark past the NAT
	// idle. The group keeps multicasting — the sequencer's channel to the
	// dark member holds the sequenced stream in its window and recovery
	// machinery while every other member delivers on time.
	n.SetLinkDown("10.0.0.3", "n1", true)
	n.SetLinkDown("n1", "10.0.0.3", true)
	drive(time.Second)
	send("b", 10, 20)
	drive(4 * time.Second)
	for _, name := range []string{"s", "b"} {
		if got := logs[name].len(); got != 30 {
			t.Fatalf("phase 2: %s delivered %d of 30 with c dark", name, got)
		}
	}
	if got := logs["c"].len(); got != 20 {
		t.Fatalf("phase 2: dark member delivered %d, want still 20", got)
	}

	// Phase 3: heal. The member's first outbound packets rebind the NAT
	// on a new external port; its peers migrate, retransmission replays
	// the missed sequenced messages, and the group converges.
	n.SetLinkDown("10.0.0.3", "n1", false)
	n.SetLinkDown("n1", "10.0.0.3", false)
	deadline := clk.Now().Add(2 * time.Minute)
	for logs["c"].len() < 30 && clk.Now().Before(deadline) {
		drive(50 * time.Millisecond)
	}
	if got := logs["c"].len(); got != 30 {
		t.Fatalf("phase 3: recovered member delivered %d of 30", got)
	}

	// Phase 4: three members send concurrently — the racing surface for
	// the fanout engine and the group frame pool under -race.
	var wg sync.WaitGroup
	for _, member := range names {
		member := member
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 20; i < 30; i++ {
				if err := groups[member].Send([]byte(fmt.Sprintf("%s-%02d", member, i))); err != nil {
					t.Errorf("%s send %d: %v", member, i, err)
				}
			}
		}()
	}
	wg.Wait()
	const total = 60 // 20 + 10 + 30 concurrent
	deadline = clk.Now().Add(time.Minute)
	for clk.Now().Before(deadline) {
		done := true
		for _, name := range names {
			if logs[name].len() < total {
				done = false
			}
		}
		if done {
			break
		}
		drive(50 * time.Millisecond)
	}

	// Exactly-once, identical total order at every member.
	ref := logs["s"].snapshot()
	if len(ref) != total {
		t.Fatalf("sequencer delivered %d of %d", len(ref), total)
	}
	seen := make(map[string]int, total)
	for _, m := range ref {
		seen[m]++
	}
	for m, c := range seen {
		if c != 1 {
			t.Fatalf("message %q delivered %d times at the sequencer", m, c)
		}
	}
	for _, name := range []string{"b", "c"} {
		got := logs[name].snapshot()
		if len(got) != total {
			t.Fatalf("%s delivered %d of %d", name, len(got), total)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s order diverges at %d: %q vs sequencer's %q", name, i, got[i], ref[i])
			}
		}
	}
	for _, name := range names {
		st := groups[name].Stats()
		if st.DeliveredInOrder != total {
			t.Fatalf("%s DeliveredInOrder=%d, want %d", name, st.DeliveredInOrder, total)
		}
		if name != "s" && st.FanoutBatches != 0 {
			// Non-sequencer members forward to the sequencer point-to-
			// point; only the sequencer fans out.
			t.Fatalf("%s ran %d fanout batches, want 0", name, st.FanoutBatches)
		}
	}
	if st := groups["s"].Stats(); st.Sequenced != total || st.FanoutBatches != total {
		t.Fatalf("sequencer Sequenced=%d FanoutBatches=%d, want %d each", st.Sequenced, st.FanoutBatches, total)
	}

	// The scenario must actually have exercised its hazards: a NAT
	// rebind onto a new external mapping, and queue occupancy on the
	// bufferbloat edge.
	extAfter, _ := n.ExternalAddr("n1", hosts["c"].LocalAddr())
	if extAfter == extBefore {
		t.Fatalf("NAT never rebound (still %s)", extBefore)
	}
	if st := n.NATStats("n1"); st.Rebinds == 0 {
		t.Fatalf("NAT stats = %+v, want a rebind", st)
	}
	if peak := max(n.PeakQueueDepth("r1", "r2"), n.PeakQueueDepth("r2", "r1")); peak < 2 {
		t.Fatalf("bufferbloat link never queued (peak depth %d)", peak)
	}
}
