package group

import (
	"sync"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

// TestFailureDetectionDrivesViewChange composes the pieces the way Horus
// does: heartbeat layers inside every member-pair connection detect
// silence, and the sequencer responds by proposing a membership view
// without the silent member — installed by the survivors at the same cut
// in the total order.
func TestFailureDetectionDrivesViewChange(t *testing.T) {
	clk := vclock.NewManual(t0)
	names := []string{"a", "b", "c"}

	// Collect the heartbeat layers per (owner, peer) so the test can
	// wire the sequencer's silence reactions after the mesh is up.
	var mu sync.Mutex
	hbs := make(map[[2]string]*layers.Heartbeat)
	heartbeatStack := core.BuildStack(core.StackOptions{Heartbeat: 5 * time.Millisecond})
	build := func(spec core.PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
		ls, err := heartbeatStack(spec, order)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		hbs[[2]string{string(spec.LocalID), string(spec.RemoteID)}] = ls[len(ls)-2].(*layers.Heartbeat)
		mu.Unlock()
		return ls, nil
	}
	m, err := NewMeshBuild(names, clk, netsim.Config{Latency: 30 * time.Microsecond}, Total, "a", build)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Install the initial view and wire the sequencer's reaction:
	// silence on a→X proposes the view without X.
	if err := m.Groups["a"].ProposeView(names); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	// OnSilence runs under the connection lock, so it only reports; the
	// test loop performs the proposal outside the lock (a real system
	// would use its own executor here).
	silent := make(chan string, 8)
	for _, peer := range []string{"b", "c"} {
		peer := peer
		mu.Lock()
		hb := hbs[[2]string{"a", peer}]
		mu.Unlock()
		hb.OnSilence = func(time.Duration) {
			select {
			case silent <- peer:
			default:
			}
		}
	}
	for _, n := range names {
		if got := m.Groups[n].CurrentView(); got.ID != 1 || len(got.Members) != 3 {
			t.Fatalf("%s initial view = %v", n, got)
		}
	}

	// Partition c in both directions: its heartbeats stop reaching a.
	m.Net().SetLinkDown("c", "a", true)
	m.Net().SetLinkDown("a", "c", true)

	// Advance well past Misses×Interval; when silence is reported the
	// sequencer proposes the shrunken view, and a and b install it.
	deadline := 0
	for deadline < 400 && m.Groups["b"].CurrentView().ID < 2 {
		clk.Advance(5 * time.Millisecond)
		select {
		case peer := <-silent:
			cur := m.Groups["a"].CurrentView()
			var next []string
			for _, n := range cur.Members {
				if n != peer {
					next = append(next, n)
				}
			}
			if err := m.Groups["a"].ProposeView(next); err != nil {
				t.Fatal(err)
			}
		default:
		}
		deadline++
	}
	for _, n := range []string{"a", "b"} {
		v := m.Groups[n].CurrentView()
		if v.ID < 2 {
			t.Fatalf("%s never installed the failure view", n)
		}
		if v.Includes("c") {
			t.Fatalf("%s still lists the failed member: %v", n, v)
		}
		if !v.Includes("a") || !v.Includes("b") {
			t.Fatalf("%s lost a live member: %v", n, v)
		}
	}
	// The survivors still communicate.
	got := make(chan string, 1)
	m.Groups["b"].OnDeliver(func(origin string, p []byte) {
		select {
		case got <- origin + ":" + string(p):
		default:
		}
	})
	if err := m.Groups["a"].Send([]byte("post-failure")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	select {
	case msg := <-got:
		if msg != "a:post-failure" {
			t.Fatalf("got %q", msg)
		}
	default:
		t.Fatal("survivors cannot communicate after the view change")
	}
}
