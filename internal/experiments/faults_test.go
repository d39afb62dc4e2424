package experiments

import (
	"encoding/binary"
	"errors"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"paccel/internal/core"
	"paccel/internal/faultinject"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

func TestFaultsDeterministicUnderSeed(t *testing.T) {
	run := func() string {
		r, err := Faults(true, 7)
		if err != nil {
			t.Fatal(err)
		}
		out, err := JSON(r)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestFaultsSchedule(t *testing.T) {
	r, err := Faults(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FaultsReport(r))
	for _, p := range r.Points {
		switch p.Scenario {
		case "dead-peer":
			if !p.FailedCleanly {
				t.Fatalf("%s: expected a clean typed failure, got %+v", p.Scenario, p)
			}
		default:
			if p.Delivered != p.Messages || !p.Ordered {
				t.Fatalf("%s: %d/%d delivered, ordered=%v",
					p.Scenario, p.Delivered, p.Messages, p.Ordered)
			}
		}
		switch p.Scenario {
		case "clean":
			if p.Retransmits != 0 {
				t.Fatalf("clean schedule retransmitted %d times", p.Retransmits)
			}
		case "loss-30":
			if p.Retransmits == 0 {
				t.Fatal("lossy schedule never retransmitted")
			}
		case "corrupt-10":
			if p.NetCorrupted == 0 || p.RecvDrops == 0 {
				t.Fatalf("corruption schedule: corrupted=%d drops=%d",
					p.NetCorrupted, p.RecvDrops)
			}
		case "partition-heal":
			if p.RecoveryMillis <= 0 {
				t.Fatal("partition schedule recorded no recovery latency")
			}
		}
	}
}

// TestChaosStress is the -race chaos harness: concurrent bidirectional
// senders over a real-clock lossy/corrupting network, plus a stalled-burst
// replay from the fault injector. It must end with exactly-once in-order
// delivery in both directions — never a deadlock, a leak, or silent
// corruption. The seed comes from PACCEL_CHAOS_SEED so CI runs are
// reproducible.
func TestChaosStress(t *testing.T) {
	seed := int64(1996)
	if s := os.Getenv("PACCEL_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PACCEL_CHAOS_SEED: %v", err)
		}
		seed = v
	}
	const n = 250
	net := netsim.New(vclock.Real{}, netsim.Config{
		Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
		LossRate: 0.05, DupRate: 0.05, ReorderRate: 0.10, CorruptRate: 0.02,
		Seed: seed,
	})
	fiA := faultinject.New(net.Endpoint("A"), nil, seed,
		faultinject.Rule{Kind: faultinject.Stall, Direction: faultinject.Send, Every: 50, Count: 4})
	mkCfg := func(tr core.Transport) core.Config {
		return core.Config{
			Transport:           tr,
			Build:               FaultStack(5 * time.Millisecond),
			MaxBacklog:          32,
			BlockOnBackpressure: true, // exercises the cond path under -race
		}
	}
	epA, err := core.NewEndpoint(mkCfg(fiA))
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := core.NewEndpoint(mkCfg(net.Endpoint("B")))
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	a, err := epA.Dial(core.PeerSpec{
		Addr: "B", LocalID: []byte("stress-a"), RemoteID: []byte("stress-b"),
		LocalPort: 1, RemotePort: 2, Epoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(core.PeerSpec{
		Addr: "A", LocalID: []byte("stress-b"), RemoteID: []byte("stress-a"),
		LocalPort: 2, RemotePort: 1, Epoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	type inbox struct {
		mu   sync.Mutex
		seqs []uint32
		done chan struct{}
	}
	watch := func(c *core.Conn) *inbox {
		in := &inbox{done: make(chan struct{})}
		c.OnDeliver(func(p []byte) {
			in.mu.Lock()
			in.seqs = append(in.seqs, binary.BigEndian.Uint32(p))
			if len(in.seqs) == n {
				close(in.done)
			}
			in.mu.Unlock()
		})
		return in
	}
	fromA, fromB := watch(b), watch(a)

	sender := func(c *core.Conn, errCh chan<- error) {
		payload := make([]byte, 48)
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint32(payload, uint32(i))
			if err := c.Send(payload); err != nil &&
				!errors.Is(err, core.ErrBackpressure) {
				errCh <- err
				return
			} else if errors.Is(err, core.ErrBackpressure) {
				i-- // blocking mode shouldn't surface this, but be safe
				time.Sleep(time.Millisecond)
			}
		}
		errCh <- nil
	}
	errCh := make(chan error, 2)
	go sender(a, errCh)
	go sender(b, errCh)

	// Mid-run, release the stalled burst: stale datagrams the window has
	// since retransmitted replay into the live stream.
	time.Sleep(50 * time.Millisecond)
	fiA.ReleaseStalled()

	deadline := time.After(60 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("sender failed: %v", err)
			}
		case <-deadline:
			t.Fatal("chaos run deadlocked: senders never finished")
		}
	}
	fiA.ReleaseStalled() // anything stalled after the senders finished
	for name, in := range map[string]*inbox{"A->B": fromA, "B->A": fromB} {
		select {
		case <-in.done:
		case <-deadline:
			t.Fatalf("chaos run stalled: %s incomplete", name)
		}
		in.mu.Lock()
		seqs := in.seqs
		in.mu.Unlock()
		if len(seqs) != n {
			t.Fatalf("%s delivered %d/%d", name, len(seqs), n)
		}
		for i, s := range seqs {
			if s != uint32(i) {
				t.Fatalf("%s: position %d got seq %d (exactly-once in-order violated)", name, i, s)
			}
		}
	}
}
