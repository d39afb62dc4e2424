// Topo experiment: the full engine driven across the virtual internet
// (internal/netsim/topo) — routed multi-hop paths, finite router
// queues, and NAT middleboxes — under three seeded schedules. Each
// schedule attacks the stack with an emergent network behavior rather
// than an injected fault: a NAT mapping that expires and rebinds
// mid-session, a partition-and-heal along an interior edge the
// endpoints cannot see, and a bufferbloat ramp that overflows a
// slow link's queue. The contract checked is the same everywhere:
// exactly-once in-order delivery once the network allows it, typed
// ErrBackpressure (never silent loss) when the sender outruns it, and
// a pcap trace of the interior edge for every run.
package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"paccel/internal/core"
	"paccel/internal/netsim/topo"
	"paccel/internal/vclock"
)

// TopoPoint is one scenario's outcome, one JSON row of the BENCH_8
// baseline.
type TopoPoint struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	Messages    int  `json:"messages"`
	Delivered   int  `json:"delivered"`
	ExactlyOnce bool `json:"exactly_once_in_order"`

	// The network's own ledger: every datagram either delivered or
	// accounted to a loss class.
	NetSent       uint64 `json:"net_sent"`
	NetDelivered  uint64 `json:"net_delivered"`
	QueueDrops    uint64 `json:"queue_drops"`
	LossDrops     uint64 `json:"loss_drops"`
	LinkDrops     uint64 `json:"link_drops"`
	NATDrops      uint64 `json:"nat_drops"`
	NATRebinds    uint64 `json:"nat_rebinds"`
	MaxQueueDepth int    `json:"max_queue_depth"`

	// The engine's response.
	Recoveries    uint64 `json:"recoveries"`
	Recovered     uint64 `json:"recovered"`
	Probes        uint64 `json:"recovery_probes"`
	Migrations    uint64 `json:"peer_migrations"`
	Retransmits   uint64 `json:"retransmits"`
	Backpressured uint64 `json:"backpressured_sends"`

	// NAT-rebind schedule: what the world called the client before and
	// after.
	ExtBefore string `json:"ext_before,omitempty"`
	ExtAfter  string `json:"ext_after,omitempty"`

	VirtualMillis float64 `json:"virtual_ms"`
	PCAPFrames    uint64  `json:"pcap_frames"`
}

// TopoResult is the topo experiment's machine-readable output.
type TopoResult struct {
	Seed   int64       `json:"seed"`
	Quick  bool        `json:"quick"`
	Points []TopoPoint `json:"points"`
}

// topoScenario describes one seeded schedule over the virtual internet.
type topoScenario struct {
	name string
	run  func(sc *topoRun) error
}

// topoRun is the per-scenario rig: a client and server endpoint joined
// across 10.0.0.2 — [n1] — r1 — r2 — 10.0.1.2, with the interior edge
// tapped.
type topoRun struct {
	clk    *vclock.Manual
	inet   *topo.Internet
	client *topo.Host
	server *topo.Host
	c, s   *core.Conn
	tap    *topo.Tap
	pt     *TopoPoint

	msgs    int
	sent    int
	next    uint32
	ordered bool
	payload []byte
}

const (
	topoRTO         = 20 * time.Millisecond
	topoPeerTimeout = 500 * time.Millisecond
	topoNATIdle     = 5 * time.Second
	topoBudget      = 4 * time.Minute
)

// send offers messages up to limit, counting typed backpressure
// refusals instead of treating them as failures — the caller retries on
// the next drive tick, which is the whole point of the typed error.
func (r *topoRun) send(limit int) error {
	for r.sent < limit {
		binary.BigEndian.PutUint32(r.payload, uint32(r.sent))
		err := r.c.Send(r.payload)
		if errors.Is(err, core.ErrBackpressure) {
			r.pt.Backpressured++
			return nil
		}
		if err != nil {
			return err
		}
		r.sent++
	}
	return nil
}

// drive advances the virtual clock in 5ms ticks for d, sampling the
// routers' queue depth and failing fast if either endpoint dies.
func (r *topoRun) drive(d time.Duration) error {
	deadline := r.clk.Now().Add(d)
	for r.clk.Now().Before(deadline) {
		if r.c.State() == core.StateFailed {
			return fmt.Errorf("client failed: %w", r.c.Err())
		}
		if r.s.State() == core.StateFailed {
			return fmt.Errorf("server failed: %w", r.s.Err())
		}
		for _, router := range []string{"r1", "r2"} {
			if depth, _ := r.inet.QueueStats(router); depth > r.pt.MaxQueueDepth {
				r.pt.MaxQueueDepth = depth
			}
		}
		r.clk.Advance(5 * time.Millisecond)
	}
	return nil
}

// finish keeps offering and driving until every message is delivered or
// the budget runs out.
func (r *topoRun) finish() error {
	deadline := r.clk.Now().Add(topoBudget)
	for int(r.next) < r.msgs && r.clk.Now().Before(deadline) {
		if err := r.send(r.msgs); err != nil {
			return err
		}
		if err := r.drive(5 * time.Millisecond); err != nil {
			return err
		}
	}
	if int(r.next) != r.msgs {
		return fmt.Errorf("delivered %d of %d within the budget", r.next, r.msgs)
	}
	return nil
}

// natRebindSchedule streams half the messages, forces the NAT mapping
// to idle out by cutting the access edge longer than the idle timeout,
// then streams the rest. The heal is emergent: the rebound mapping
// blackholes the server's traffic until dead-peer detection and an
// identified probe teach it the new address.
func natRebindSchedule(r *topoRun) error {
	if err := r.send(r.msgs / 2); err != nil {
		return err
	}
	if err := r.drive(3 * time.Second); err != nil {
		return err
	}
	if int(r.next) != r.msgs/2 {
		return fmt.Errorf("pre-rebind: delivered %d of %d", r.next, r.msgs/2)
	}
	ext, ok := r.inet.ExternalAddr("n1", r.client.LocalAddr())
	if !ok {
		return errors.New("no NAT mapping after traffic")
	}
	r.pt.ExtBefore = ext

	// Silence past the NAT idle: the access edge goes dark, outbound
	// refreshes stop, the mapping expires behind everyone's back.
	r.inet.SetLinkDown("10.0.0.2", "n1", true)
	r.inet.SetLinkDown("n1", "10.0.0.2", true)
	if err := r.drive(topoNATIdle + time.Second); err != nil {
		return err
	}
	r.inet.SetLinkDown("10.0.0.2", "n1", false)
	r.inet.SetLinkDown("n1", "10.0.0.2", false)

	if err := r.finish(); err != nil {
		return err
	}
	r.pt.ExtAfter, _ = r.inet.ExternalAddr("n1", r.client.LocalAddr())
	if r.pt.ExtAfter == r.pt.ExtBefore {
		return fmt.Errorf("NAT never rebound (still %s)", r.pt.ExtBefore)
	}
	return nil
}

// partitionHealSchedule cuts the interior r1-r2 edge — an outage no
// endpoint is adjacent to — for long enough that both sides enter
// recovery, then heals it and requires bounded convergence.
func partitionHealSchedule(r *topoRun) error {
	if err := r.send(r.msgs / 2); err != nil {
		return err
	}
	if err := r.drive(3 * time.Second); err != nil {
		return err
	}
	r.inet.Partition("r1", "r2")
	if err := r.drive(8 * time.Second); err != nil {
		return err
	}
	r.inet.Heal("r1", "r2")
	return r.finish()
}

// bufferbloatSchedule rams the full stream into a 1.5Mbit/s interior
// link with an 8-packet queue: the queue fills, serialization delay
// mounts, overflow drops arrive, and the sender sees typed
// backpressure. The contract is graceful degradation — every refusal
// typed, every congestive loss retransmitted, the stream still
// exactly-once.
func bufferbloatSchedule(r *topoRun) error {
	if err := r.finish(); err != nil {
		return err
	}
	if r.pt.QueueDrops == 0 && r.pt.MaxQueueDepth < 8 {
		return fmt.Errorf("queue never under pressure (max depth %d, %d drops) — the ramp tested nothing",
			r.pt.MaxQueueDepth, r.pt.QueueDrops)
	}
	return nil
}

// topoScenarios is the fixed schedule, in run order.
func topoScenarios() []topoScenario {
	return []topoScenario{
		{name: "nat-rebind", run: natRebindSchedule},
		{name: "partition-heal", run: partitionHealSchedule},
		{name: "bufferbloat", run: bufferbloatSchedule},
	}
}

// runTopoScenario builds the topology for one schedule, runs it, and
// collects both ledgers.
func runTopoScenario(sc topoScenario, n int, seed int64, pcap io.Writer) (TopoPoint, error) {
	if pcap == nil {
		pcap = io.Discard
	}
	pt := TopoPoint{Scenario: sc.name, Seed: seed, Messages: n, ExactlyOnce: true}
	clk := vclock.NewManual(time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC))
	inet := topo.New(clk, topo.Config{Seed: seed})
	inet.AddRouter("r1")
	inet.AddRouter("r2")

	interior := topo.LinkConfig{
		Latency:  2 * time.Millisecond,
		Jitter:   250 * time.Microsecond,
		LossRate: 0.02,
	}
	serverAccess := topo.LinkConfig{Latency: time.Millisecond}
	clientVia := "r1"
	backlog := 0 // engine default
	switch sc.name {
	case "nat-rebind":
		inet.AddNAT("n1", "198.51.100.1", topoNATIdle, "10.0.0.2")
		inet.Link("n1", "r1", topo.LinkConfig{Latency: time.Millisecond})
		clientVia = "n1"
	case "bufferbloat":
		// The slow edge: ~1.6ms serialization per 300-byte frame, an
		// 8-packet queue, no random loss — every drop is congestive.
		interior = topo.LinkConfig{
			Latency:  time.Millisecond,
			BitRate:  1_500_000,
			QueueLen: 8,
		}
		backlog = 64 // small backlog so overload surfaces as typed refusals
	}
	inet.Link("r1", "r2", interior)
	client := inet.Host("10.0.0.2:1", clientVia, topo.LinkConfig{})
	server := inet.Host("10.0.1.2:1", "r2", serverAccess)

	tap, err := inet.Tap("r1", "r2", pcap, 0)
	if err != nil {
		return pt, err
	}

	mk := func(tr core.Transport) core.Config {
		return core.Config{
			Transport: tr, Clock: clk,
			// The topology enforces a real MTU: frames, packed ones
			// included, stay under it the way a path-MTU-aware
			// deployment's fragmentation threshold does.
			Build:       recoveryStack(topoRTO, 1200),
			PeerTimeout: topoPeerTimeout,
			Recovery: core.RecoveryConfig{
				MaxAttempts: 60,
				BaseDelay:   100 * time.Millisecond,
				MaxDelay:    time.Second,
				Seed:        seed,
			},
			MaxBacklog: backlog,
		}
	}
	epC, err := core.NewEndpoint(mk(client))
	if err != nil {
		return pt, err
	}
	defer epC.Close()
	epS, err := core.NewEndpoint(mk(server))
	if err != nil {
		return pt, err
	}
	defer epS.Close()

	// Cookies are pinned (not drawn): the trace must be byte-identical
	// across runs of the same seed for the determinism contract — and
	// the committed pcap artifact — to hold.
	c, err := epC.Dial(core.PeerSpec{
		Addr: server.LocalAddr(), LocalID: []byte("topo-c"), RemoteID: []byte("topo-s"),
		LocalPort: 1, RemotePort: 2, Epoch: 1,
		OutCookie: uint64(seed)<<1 | 1,
	})
	if err != nil {
		return pt, err
	}
	// The server's first route: through a NAT it can only aim at where
	// the mapping will appear; elsewhere, at the client directly.
	serverView := client.LocalAddr()
	if sc.name == "nat-rebind" {
		serverView = "198.51.100.1:60000"
	}
	s, err := epS.Dial(core.PeerSpec{
		Addr: serverView, LocalID: []byte("topo-s"), RemoteID: []byte("topo-c"),
		LocalPort: 2, RemotePort: 1, Epoch: 1,
		OutCookie: uint64(seed)<<1 | 2,
	})
	if err != nil {
		return pt, err
	}

	r := &topoRun{
		clk: clk, inet: inet, client: client, server: server,
		c: c, s: s, tap: tap, pt: &pt,
		msgs: n, ordered: true, payload: make([]byte, 32),
	}
	s.OnDeliver(func(p []byte) {
		if len(p) < 4 || binary.BigEndian.Uint32(p) != r.next {
			r.ordered = false
			return
		}
		r.next++
	})

	start := clk.Now()
	if err := sc.run(r); err != nil {
		return pt, fmt.Errorf("topo %s: %w", sc.name, err)
	}

	pt.Delivered = int(r.next)
	pt.ExactlyOnce = r.ordered && pt.Delivered == n
	pt.VirtualMillis = float64(clk.Now().Sub(start)) / float64(time.Millisecond)

	st := inet.Stats()
	pt.NetSent, pt.NetDelivered = st.Sent, st.Delivered
	pt.QueueDrops, pt.LossDrops, pt.LinkDrops = st.QueueDrops, st.LossDrops, st.LinkDrops
	pt.NATDrops, pt.NATRebinds = st.NATDrops, st.NATRebinds
	stC, stS := c.Stats(), s.Stats()
	pt.Recoveries = stC.Recoveries + stS.Recoveries
	pt.Recovered = stC.Recovered + stS.Recovered
	pt.Probes = stC.RecoveryProbes + stS.RecoveryProbes
	pt.Migrations = stC.PeerMigrations + stS.PeerMigrations
	pt.Retransmits = stC.Retransmits + stS.Retransmits
	if err := tap.Close(); err != nil {
		return pt, fmt.Errorf("topo %s: pcap: %w", sc.name, err)
	}
	pt.PCAPFrames = tap.Frames()

	if !pt.ExactlyOnce {
		return pt, fmt.Errorf("topo %s: delivery violated exactly-once in-order (%d/%d)",
			sc.name, pt.Delivered, n)
	}
	if pt.PCAPFrames == 0 {
		return pt, fmt.Errorf("topo %s: the tap captured nothing", sc.name)
	}
	switch sc.name {
	case "nat-rebind":
		if pt.NATRebinds == 0 || pt.Migrations == 0 {
			return pt, fmt.Errorf("topo %s: rebinds=%d migrations=%d — the heal path never ran",
				sc.name, pt.NATRebinds, pt.Migrations)
		}
	case "partition-heal":
		if pt.Recovered == 0 {
			return pt, fmt.Errorf("topo %s: no recovery completed across the partition", sc.name)
		}
	case "bufferbloat":
		if pt.QueueDrops > 0 && pt.Retransmits == 0 {
			return pt, fmt.Errorf("topo %s: %d congestive drops but no retransmissions",
				sc.name, pt.QueueDrops)
		}
	}
	return pt, nil
}

// Topo runs the virtual-internet schedule with the given seed (0 means
// 1996). pcapFor, when non-nil, supplies a writer for each scenario's
// interior-edge trace; a nil writer (or nil pcapFor) discards it.
func Topo(quick bool, seed int64, pcapFor func(scenario string) io.Writer) (*TopoResult, error) {
	if seed == 0 {
		seed = 1996
	}
	n := 400
	if quick {
		n = 120
	}
	res := &TopoResult{Seed: seed, Quick: quick}
	for _, sc := range topoScenarios() {
		var w io.Writer
		if pcapFor != nil {
			w = pcapFor(sc.name)
		}
		if w == nil {
			w = io.Discard
		}
		pt, err := runTopoScenario(sc, n, seed, w)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// TopoReport formats the result for the pabench console output.
func TopoReport(r *TopoResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Virtual internet (seed %d): %d schedules, routed multi-hop topology, virtual clock\n",
		r.Seed, len(r.Points))
	fmt.Fprintf(&sb, "  %-15s %7s %7s %6s %7s %8s %7s %6s %7s %7s\n",
		"schedule", "msgs", "qdrop", "loss", "rebind", "migrate", "retx", "bkpr", "recov", "frames")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "  %-15s %3d/%-3d %7d %6d %7d %8d %7d %6d %3d/%-3d %7d\n",
			p.Scenario, p.Delivered, p.Messages, p.QueueDrops, p.LossDrops,
			p.NATRebinds, p.Migrations, p.Retransmits, p.Backpressured,
			p.Recovered, p.Recoveries, p.PCAPFrames)
		if p.ExtBefore != "" {
			fmt.Fprintf(&sb, "  %-15s   the world saw the client at %s, then %s\n",
				"", p.ExtBefore, p.ExtAfter)
		}
	}
	return sb.String()
}
