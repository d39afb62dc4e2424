// Chaos schedules against the full four-layer stack. The paper's
// evaluation ran on a lossless ATM testbed ("in our experiments no
// message loss was observed"); these schedules measure what the
// reproduction's reliability machinery does when the network
// misbehaves — throughput against loss and corruption, recovery after
// partitions and stalled bursts, and failure that is always clean and
// typed, never a deadlock or a silently corrupted delivery.
package paccel_test

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"paccel/internal/core"
	"paccel/internal/faultinject"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

// The fault injector composes over any transport the engine accepts; the
// local Inner interface it declares must stay structurally identical to
// core.Transport.
var _ core.Transport = (*faultinject.Transport)(nil)

// FaultsPoint is one chaos schedule's outcome, one row of BENCH_2.
type FaultsPoint struct {
	Scenario    string  `json:"scenario"`
	Seed        int64   `json:"seed"`
	LossRate    float64 `json:"loss_rate"`
	DupRate     float64 `json:"dup_rate"`
	ReorderRate float64 `json:"reorder_rate"`
	CorruptRate float64 `json:"corrupt_rate"`

	Messages  int  `json:"messages"`
	Delivered int  `json:"delivered"`
	Ordered   bool `json:"exactly_once_in_order"`

	Retransmits  uint64 `json:"retransmits"`
	NaksSent     uint64 `json:"naks_sent"`
	NetCorrupted uint64 `json:"net_corrupted"`
	RecvDrops    uint64 `json:"recv_drops"` // checksum + duplicate refusals

	VirtualMillis  float64 `json:"virtual_ms"`         // virtual time to completion
	MsgsPerVirtSec float64 `json:"msgs_per_virtual_s"` // throughput under the schedule
	RecoveryMillis float64 `json:"recovery_ms"`        // heal/release → fully delivered
	FailedCleanly  bool    `json:"failed_cleanly"`     // typed failure (dead-peer scenario)
	FailureCause   string  `json:"failure_cause,omitempty"`
}

// faultStack is the default stack with a retransmission timeout short
// enough that a lossy schedule converges in bounded time, and NAKs so
// single gaps heal in one round trip.
func faultStack(rto time.Duration) core.StackBuilder {
	return core.BuildStack(core.StackOptions{RetransTimeout: rto, Naks: true})
}

// faultSchedules is the chaos schedule, in run order.
var faultSchedules = []schedule[FaultsPoint]{
	{"clean", faults(netsim.Config{Latency: time.Millisecond}, 0)},
	{"loss-10", faults(netsim.Config{Latency: time.Millisecond, LossRate: 0.10}, 0)},
	{"loss-30", faults(netsim.Config{Latency: time.Millisecond, LossRate: 0.30}, 0)},
	{"dup-reorder", faults(netsim.Config{
		Latency: time.Millisecond, Jitter: 2 * time.Millisecond,
		DupRate: 0.20, ReorderRate: 0.30,
	}, 0)},
	{"corrupt-10", faults(netsim.Config{Latency: time.Millisecond, CorruptRate: 0.10}, 0)},
	{"mixed", faults(netsim.Config{
		Latency: time.Millisecond, Jitter: time.Millisecond,
		LossRate: 0.10, DupRate: 0.10, ReorderRate: 0.20, CorruptRate: 0.05,
	}, 0)},
	{"stall-replay", faults(netsim.Config{Latency: time.Millisecond}, stall)},
	{"partition-heal", faults(netsim.Config{Latency: time.Millisecond}, partition)},
	{"dead-peer", faults(netsim.Config{Latency: time.Millisecond}, deadPeer)},
}

// A fault is what a chaos schedule does besides the network's own
// misbehaviour.
type fault int

const (
	stall     fault = iota + 1 // hold a burst of the client's datagrams, release it late
	partition                  // black-hole both directions mid-run, then heal
	deadPeer                   // permanent partition + supervision: expect a typed failure
)

// faults is the chaos schedule over netCfg with fault f: the client
// streams n messages and, unless the peer dies, every one must arrive
// exactly once, in order.
func faults(netCfg netsim.Config, f fault) func(*testing.T, string, int64, int) FaultsPoint {
	return func(t *testing.T, name string, seed int64, n int) FaultsPoint {
		pt := FaultsPoint{
			Scenario: name, Seed: seed, Messages: n,
			LossRate: netCfg.LossRate, DupRate: netCfg.DupRate,
			ReorderRate: netCfg.ReorderRate, CorruptRate: netCfg.CorruptRate,
		}
		clk := paperClock()
		netCfg.Seed = seed
		net := netsim.New(clk, netCfg)
		var trA core.Transport = net.Endpoint("A")
		var fi *faultinject.Transport
		if f == stall {
			// Hold every 5th datagram of the first 40 hostage; released
			// long after the window has retransmitted them, they arrive
			// as stale duplicates the receiver must refuse.
			fi = faultinject.New(trA, clk, seed,
				faultinject.Rule{Kind: faultinject.Stall, Direction: faultinject.Send, Every: 5, Count: 8})
			trA = fi
		}
		cfgA := core.Config{Transport: trA, Build: faultStack(scenarioRTO)}
		if f == deadPeer {
			cfgA.PeerTimeout = time.Second
		}
		r := newStream(t, name, clk, seed, cfgA,
			core.Config{Transport: net.Endpoint("B"), Build: faultStack(scenarioRTO)}, "B", "A")
		r.expectFail = f == deadPeer
		cut := func(down bool) {
			net.SetLinkDown("A", "B", down)
			net.SetLinkDown("B", "A", down)
		}

		start := clk.Now()
		partitioned, healed := false, false
		var healedAt time.Time
		r.drive(scenarioBudget, func() bool {
			// Fill the pipe until backpressure, then let virtual time run.
			r.send(n)
			if (f == partition || f == deadPeer) && !partitioned && r.sent >= n/2 {
				cut(true)
				partitioned = true
			}
			if f == partition && partitioned && !healed && clk.Now().Sub(start) > 30*time.Second {
				cut(false)
				healed = true
				healedAt = clk.Now()
			}
			if f == stall && r.sent == n && fi.StalledCount() > 0 && clk.Now().Sub(start) > 10*time.Second {
				fi.ReleaseStalled()
			}
			return int(r.next) == n
		})

		elapsed := clk.Now().Sub(start)
		pt.Delivered, pt.Ordered = int(r.next), r.ordered
		pt.VirtualMillis = millis(elapsed)
		if elapsed > 0 {
			pt.MsgsPerVirtSec = float64(pt.Delivered) / elapsed.Seconds()
		}
		if healed {
			pt.RecoveryMillis = millis(clk.Now().Sub(healedAt))
		}
		pt.Retransmits = window(r.c).Stats.Retransmits
		pt.NaksSent = window(r.s).Stats.NaksSent
		pt.NetCorrupted = net.Stats().Corrupted
		pt.RecvDrops = r.s.Stats().Dropped

		if f == deadPeer {
			// The schedule never heals: success here is a clean, typed
			// failure — supervision tripped, the cause wraps the
			// sentinel errors, and later sends refuse with the same
			// cause.
			pt.FailedCleanly = r.c.State() == core.StateFailed &&
				errors.Is(r.cause, core.ErrPeerSilent) &&
				errors.Is(r.cause, core.ErrConnFailed) &&
				errors.Is(r.c.Send(r.payload), core.ErrConnFailed)
			if r.cause != nil {
				pt.FailureCause = r.cause.Error()
			}
			return pt
		}
		if pt.Delivered != n || !pt.Ordered {
			t.Fatalf("faults %s: delivered %d/%d in %v virtual, exactly once in order: %v",
				name, pt.Delivered, n, elapsed, pt.Ordered)
		}
		return pt
	}
}

func TestFaultsSchedule(t *testing.T) {
	rec := runSchedules(t, recordSeed, true, faultSchedules)
	t.Logf("\n%s", jsonRecord(t, rec))
	for _, p := range rec.Points {
		switch p.Scenario {
		case "dead-peer":
			if !p.FailedCleanly {
				t.Fatalf("%s: expected a clean typed failure, got %+v", p.Scenario, p)
			}
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
// corruption. The seed comes from PACCEL_CHAOS_SEED.
func TestChaosStress(t *testing.T) {
	seed := chaosSeed(t)
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
			Build:               faultStack(5 * time.Millisecond),
			MaxBacklog:          32,
			BlockOnBackpressure: true, // exercises the cond path under -race
		}
	}
	sa, sb := mirrored()
	a := dial(t, endpoint(t, mkCfg(fiA)), sa)
	b := dial(t, endpoint(t, mkCfg(net.Endpoint("B"))), sb)

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
