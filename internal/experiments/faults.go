// Chaos experiment: randomized fault schedules against the full 4-layer
// stack. The paper's evaluation ran on a lossless ATM testbed ("in our
// experiments no message loss was observed"); this experiment measures
// what the reproduction's reliability machinery actually does when the
// network misbehaves — throughput vs loss/corruption rate, recovery
// latency after partitions and stalled bursts, and that failure is always
// clean and typed, never a deadlock or a silently corrupted delivery.
package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"paccel/internal/core"
	"paccel/internal/faultinject"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

// The fault injector composes over any transport the engine accepts; the
// local Inner interface it declares must stay structurally identical to
// core.Transport.
var _ core.Transport = (*faultinject.Transport)(nil)

// FaultStack is the default 4-layer stack with a retransmission timeout
// tuned for chaos runs: short enough that a lossy schedule converges in
// bounded (virtual or real) time, with NAKs so single gaps heal in one
// round trip.
func FaultStack(rto time.Duration) core.StackBuilder {
	return core.BuildStack(core.StackOptions{RetransTimeout: rto, Naks: true})
}

// FaultsPoint is one scenario's outcome, one JSON row of the BENCH_2
// baseline.
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

// FaultsResult is the chaos experiment's machine-readable output.
type FaultsResult struct {
	Seed   int64         `json:"seed"`
	Quick  bool          `json:"quick"`
	Points []FaultsPoint `json:"points"`
}

// faultScenario describes one deterministic schedule.
type faultScenario struct {
	name      string
	net       netsim.Config
	stall     bool // faultinject: stall a burst of A's datagrams, release late
	partition bool // black-hole both directions mid-run, then heal
	deadPeer  bool // permanent partition + supervision: expect typed failure
}

const faultRTO = 20 * time.Millisecond

// runFaultScenario drives n sequence-stamped messages A→B through the
// scenario on a virtual clock and checks exactly-once in-order delivery
// (or, for the dead-peer schedule, a clean typed failure).
func runFaultScenario(sc faultScenario, n int, seed int64) (FaultsPoint, error) {
	pt := FaultsPoint{
		Scenario: sc.name, Seed: seed, Messages: n,
		LossRate: sc.net.LossRate, DupRate: sc.net.DupRate,
		ReorderRate: sc.net.ReorderRate, CorruptRate: sc.net.CorruptRate,
	}
	clk := vclock.NewManual(time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC))
	sc.net.Seed = seed
	net := netsim.New(clk, sc.net)

	var trA core.Transport = net.Endpoint("A")
	var fi *faultinject.Transport
	if sc.stall {
		// Hold every 5th datagram of the first 40 hostage; released long
		// after the window has retransmitted them, they arrive as stale
		// duplicates the receiver must refuse.
		fi = faultinject.New(trA, clk, seed,
			faultinject.Rule{Kind: faultinject.Stall, Direction: faultinject.Send, Every: 5, Count: 8})
		trA = fi
	}
	cfgA := core.Config{Transport: trA, Clock: clk, Build: FaultStack(faultRTO)}
	var failCause error
	if sc.deadPeer {
		cfgA.PeerTimeout = time.Second
		cfgA.OnConnFail = func(_ *core.Conn, err error) { failCause = err }
	}
	epA, err := core.NewEndpoint(cfgA)
	if err != nil {
		return pt, err
	}
	defer epA.Close()
	epB, err := core.NewEndpoint(core.Config{
		Transport: net.Endpoint("B"), Clock: clk, Build: FaultStack(faultRTO),
	})
	if err != nil {
		return pt, err
	}
	defer epB.Close()
	a, err := epA.Dial(core.PeerSpec{
		Addr: "B", LocalID: []byte("chaos-a"), RemoteID: []byte("chaos-b"),
		LocalPort: 1, RemotePort: 2, Epoch: 1,
	})
	if err != nil {
		return pt, err
	}
	b, err := epB.Dial(core.PeerSpec{
		Addr: "A", LocalID: []byte("chaos-b"), RemoteID: []byte("chaos-a"),
		LocalPort: 2, RemotePort: 1, Epoch: 1,
	})
	if err != nil {
		return pt, err
	}

	// Exactly-once in-order: each payload carries its sequence number;
	// the receiver demands exactly 0,1,2,... with no repeats or gaps.
	pt.Ordered = true
	next := uint32(0)
	b.OnDeliver(func(p []byte) {
		if len(p) < 4 || binary.BigEndian.Uint32(p) != next {
			pt.Ordered = false
			return
		}
		next++
	})

	const step = 5 * time.Millisecond
	budget := 4 * time.Minute // virtual; costs nothing but Advance calls
	start := clk.Now()
	payload := make([]byte, 32)
	sent := 0
	partitioned, healed := false, false
	var healedAt time.Time
	fail := func() error {
		if sc.deadPeer {
			return nil // expected; recorded below
		}
		return fmt.Errorf("faults %s: connection failed: %w", sc.name, a.Err())
	}
	for clk.Now().Sub(start) < budget {
		if a.State() == core.StateFailed {
			if err := fail(); err != nil {
				return pt, err
			}
			break
		}
		// Fill the pipe until backpressure, then let virtual time run.
		for sent < n {
			binary.BigEndian.PutUint32(payload, uint32(sent))
			err := a.Send(payload)
			if errors.Is(err, core.ErrBackpressure) {
				break
			}
			if errors.Is(err, core.ErrConnFailed) {
				break
			}
			if err != nil {
				return pt, err
			}
			sent++
		}
		if (sc.partition || sc.deadPeer) && !partitioned && sent >= n/2 {
			net.SetLinkDown("A", "B", true)
			net.SetLinkDown("B", "A", true)
			partitioned = true
		}
		if sc.partition && partitioned && !healed &&
			clk.Now().Sub(start) > 30*time.Second {
			net.SetLinkDown("A", "B", false)
			net.SetLinkDown("B", "A", false)
			healed = true
			healedAt = clk.Now()
		}
		if sc.stall && fi != nil && sent == n && fi.StalledCount() > 0 &&
			clk.Now().Sub(start) > 10*time.Second {
			fi.ReleaseStalled()
		}
		if int(next) == n {
			break
		}
		clk.Advance(step)
	}

	elapsed := clk.Now().Sub(start)
	pt.Delivered = int(next)
	pt.VirtualMillis = float64(elapsed) / float64(time.Millisecond)
	if elapsed > 0 {
		pt.MsgsPerVirtSec = float64(pt.Delivered) / elapsed.Seconds()
	}
	if healed {
		pt.RecoveryMillis = float64(clk.Now().Sub(healedAt)) / float64(time.Millisecond)
	}
	stA, stB := a.Stats(), b.Stats()
	_ = stA
	wstats := func(c *core.Conn) (retrans, naks uint64) {
		for _, l := range c.Layers() {
			if w, ok := l.(*layers.Window); ok {
				return w.Stats.Retransmits, w.Stats.NaksSent
			}
		}
		return 0, 0
	}
	pt.Retransmits, _ = wstats(a)
	_, pt.NaksSent = wstats(b)
	pt.NetCorrupted = net.Stats().Corrupted
	pt.RecvDrops = stB.Dropped

	if sc.deadPeer {
		// The schedule never heals: success here is a clean, typed
		// failure — supervision tripped, the cause wraps the sentinel
		// errors, and subsequent sends refuse with the same cause.
		pt.FailedCleanly = a.State() == core.StateFailed &&
			errors.Is(failCause, core.ErrPeerSilent) &&
			errors.Is(failCause, core.ErrConnFailed) &&
			errors.Is(a.Send(payload), core.ErrConnFailed)
		if failCause != nil {
			pt.FailureCause = failCause.Error()
		}
		pt.RecoveryMillis = 0
		return pt, nil
	}
	if pt.Delivered != n {
		return pt, fmt.Errorf("faults %s: delivered %d/%d in %v virtual",
			sc.name, pt.Delivered, n, elapsed)
	}
	if !pt.Ordered {
		return pt, fmt.Errorf("faults %s: delivery violated exactly-once in-order", sc.name)
	}
	return pt, nil
}

// FaultScenarios is the fixed chaos schedule, in run order.
func FaultScenarios() []faultScenario {
	return []faultScenario{
		{name: "clean", net: netsim.Config{Latency: time.Millisecond}},
		{name: "loss-10", net: netsim.Config{Latency: time.Millisecond, LossRate: 0.10}},
		{name: "loss-30", net: netsim.Config{Latency: time.Millisecond, LossRate: 0.30}},
		{name: "dup-reorder", net: netsim.Config{
			Latency: time.Millisecond, Jitter: 2 * time.Millisecond,
			DupRate: 0.20, ReorderRate: 0.30,
		}},
		{name: "corrupt-10", net: netsim.Config{Latency: time.Millisecond, CorruptRate: 0.10}},
		{name: "mixed", net: netsim.Config{
			Latency: time.Millisecond, Jitter: time.Millisecond,
			LossRate: 0.10, DupRate: 0.10, ReorderRate: 0.20, CorruptRate: 0.05,
		}},
		{name: "stall-replay", net: netsim.Config{Latency: time.Millisecond}, stall: true},
		{name: "partition-heal", net: netsim.Config{Latency: time.Millisecond}, partition: true},
		{name: "dead-peer", net: netsim.Config{Latency: time.Millisecond}, deadPeer: true},
	}
}

// Faults runs the chaos schedule with the given seed (0 means 1996).
func Faults(quick bool, seed int64) (*FaultsResult, error) {
	if seed == 0 {
		seed = 1996
	}
	n := 400
	if quick {
		n = 120
	}
	res := &FaultsResult{Seed: seed, Quick: quick}
	for _, sc := range FaultScenarios() {
		pt, err := runFaultScenario(sc, n, seed)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
