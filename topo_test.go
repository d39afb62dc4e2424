// Topology schedules: the full engine driven across the virtual internet
// (internal/netsim/topo) — routed multi-hop paths, finite router queues
// and a NAT middlebox — under three seeded schedules. Each attacks the
// stack with an emergent network behaviour rather than an injected
// fault: a NAT mapping that expires and rebinds mid-session, a
// partition-and-heal along an interior edge the endpoints cannot see,
// and a bufferbloat ramp that overflows a slow link's queue. The
// contract is the same everywhere: exactly-once in-order delivery once
// the network allows it, typed ErrBackpressure (never silent loss) when
// the sender outruns it, and a pcap trace of the interior edge for every
// run.
package paccel_test

import (
	"bytes"
	"testing"
	"time"

	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim/topo"
)

// The engine cannot tell the topology from a real network: Host
// satisfies the same contracts netsim and UDP do.
var _ core.BatchTransport = (*topo.Host)(nil)

// TopoPoint is one topology schedule's outcome, one row of BENCH_8.
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

	trace []byte // the interior edge's pcap
}

// topoSchedules is the topology schedule, in run order.
var topoSchedules = []schedule[TopoPoint]{
	{"nat-rebind", overTopo(natRebind)},
	{"partition-heal", overTopo(partitionHeal)},
	{"bufferbloat", overTopo(bufferbloat)},
}

const natIdle = 5 * time.Second

// internet is the rig across 10.0.0.2 — [n1] — r1 — r2 — 10.0.1.2,
// with the interior edge r1–r2 tapped.
type internet struct {
	*stream
	inet   *topo.Internet
	client *topo.Host
	tap    *topo.Tap
	trace  bytes.Buffer
	pt     TopoPoint
}

// newInternet builds the topology of the named schedule and the stream
// across it. The client sits behind NAT n1 for nat-rebind; bufferbloat
// narrows the interior edge and the engine's backlog. secure, when set,
// encrypts the stack.
func newInternet(t *testing.T, name string, seed int64, secure *core.SecureConfig) *internet {
	t.Helper()
	clk := paperClock()
	inet := topo.New(clk, topo.Config{Seed: seed})
	inet.AddRouter("r1")
	inet.AddRouter("r2")
	interior := topo.LinkConfig{
		Latency:  2 * time.Millisecond,
		Jitter:   250 * time.Microsecond,
		LossRate: 0.02,
	}
	clientVia, backlog := "r1", 0 // engine default backlog
	switch name {
	case "nat-rebind":
		inet.AddNAT("n1", "198.51.100.1", natIdle, "10.0.0.2")
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
	server := inet.Host("10.0.1.2:1", "r2", topo.LinkConfig{Latency: time.Millisecond})

	r := &internet{inet: inet, client: client}
	var err error
	if r.tap, err = inet.Tap("r1", "r2", &r.trace, 0); err != nil {
		t.Fatal(err)
	}
	// The topology enforces a real MTU: frames, packed ones included,
	// stay under it the way a path-MTU-aware deployment's fragmentation
	// threshold does.
	opts := healOptions
	opts.FragThreshold, opts.Secure = 1200, secure
	build := seededStack(opts)
	cfg := func(tr core.Transport) core.Config {
		c := healConfig(tr, build, seed, 60)
		c.MaxBacklog = backlog
		return c
	}
	// The server's first route: through a NAT it can only aim at where
	// the mapping will appear; elsewhere, at the client directly.
	serverView := client.LocalAddr()
	if name == "nat-rebind" {
		serverView = "198.51.100.1:60000"
	}
	r.stream = newStream(t, name, clk, seed, cfg(client), cfg(server), server.LocalAddr(), serverView)
	r.onStep = func() {
		for _, router := range []string{"r1", "r2"} {
			if depth, _ := inet.QueueStats(router); depth > r.pt.MaxQueueDepth {
				r.pt.MaxQueueDepth = depth
			}
		}
	}
	return r
}

// overTopo runs schedule on a fresh internet and collects both ledgers.
func overTopo(schedule func(r *internet, n int)) func(*testing.T, string, int64, int) TopoPoint {
	return func(t *testing.T, name string, seed int64, n int) TopoPoint {
		r := newInternet(t, name, seed, nil)
		start := r.clk.Now()
		schedule(r, n)

		pt := &r.pt
		pt.Scenario, pt.Seed, pt.Messages = name, seed, n
		pt.Delivered = int(r.next)
		pt.ExactlyOnce = r.ordered && pt.Delivered == n
		pt.VirtualMillis = millis(r.clk.Now().Sub(start))
		st := r.inet.Stats()
		pt.NetSent, pt.NetDelivered = st.Sent, st.Delivered
		pt.QueueDrops, pt.LossDrops, pt.LinkDrops = st.QueueDrops, st.LossDrops, st.LinkDrops
		pt.NATDrops, pt.NATRebinds = st.NATDrops, st.NATRebinds
		stC, stS := r.c.Stats(), r.s.Stats()
		pt.Recoveries = stC.Recoveries + stS.Recoveries
		pt.Recovered = stC.Recovered + stS.Recovered
		pt.Probes = stC.RecoveryProbes + stS.RecoveryProbes
		pt.Migrations = stC.PeerMigrations + stS.PeerMigrations
		pt.Retransmits = stC.Retransmits + stS.Retransmits
		pt.Backpressured = r.refused
		if err := r.tap.Close(); err != nil {
			t.Fatalf("topo %s: pcap: %v", name, err)
		}
		pt.PCAPFrames, pt.trace = r.tap.Frames(), r.trace.Bytes()

		switch {
		case !pt.ExactlyOnce:
			t.Fatalf("topo %s: delivery violated exactly-once in-order (%d/%d)", name, pt.Delivered, n)
		case pt.PCAPFrames == 0:
			t.Fatalf("topo %s: the tap captured nothing", name)
		case name == "nat-rebind" && (pt.NATRebinds == 0 || pt.Migrations == 0):
			t.Fatalf("topo %s: rebinds=%d migrations=%d — the heal path never ran",
				name, pt.NATRebinds, pt.Migrations)
		case name == "partition-heal" && pt.Recovered == 0:
			t.Fatalf("topo %s: no recovery completed across the partition", name)
		case name == "bufferbloat" && pt.QueueDrops == 0 && pt.MaxQueueDepth < 8:
			t.Fatalf("topo %s: queue never under pressure (max depth %d) — the ramp tested nothing",
				name, pt.MaxQueueDepth)
		case name == "bufferbloat" && pt.QueueDrops > 0 && pt.Retransmits == 0:
			t.Fatalf("topo %s: %d congestive drops but no retransmissions", name, pt.QueueDrops)
		}
		return *pt
	}
}

// natRebind streams half the messages, forces the NAT mapping to idle
// out by cutting the access edge longer than the idle timeout, then
// streams the rest. The heal is emergent: the rebound mapping
// blackholes the server's traffic until dead-peer detection and an
// identified probe teach it the new address.
func natRebind(r *internet, n int) {
	r.send(n / 2)
	r.drive(3*time.Second, nil)
	if int(r.next) != n/2 {
		r.t.Fatalf("%s: pre-rebind: delivered %d of %d", r.name, r.next, n/2)
	}
	ext, ok := r.inet.ExternalAddr("n1", r.client.LocalAddr())
	if !ok {
		r.t.Fatalf("%s: no NAT mapping after traffic", r.name)
	}
	r.pt.ExtBefore = ext

	// Silence past the NAT idle: the access edge goes dark, outbound
	// refreshes stop, the mapping expires behind everyone's back.
	access := func(down bool) {
		r.inet.SetLinkDown("10.0.0.2", "n1", down)
		r.inet.SetLinkDown("n1", "10.0.0.2", down)
	}
	access(true)
	r.drive(natIdle+time.Second, nil)
	access(false)

	r.finish(n)
	r.pt.ExtAfter, _ = r.inet.ExternalAddr("n1", r.client.LocalAddr())
	if r.pt.ExtAfter == r.pt.ExtBefore {
		r.t.Fatalf("%s: NAT never rebound (still %s)", r.name, r.pt.ExtBefore)
	}
}

// partitionHeal cuts the interior r1–r2 edge — an outage no endpoint is
// adjacent to — for long enough that both sides enter recovery, then
// heals it and requires bounded convergence.
func partitionHeal(r *internet, n int) {
	r.send(n / 2)
	r.drive(3*time.Second, nil)
	r.inet.Partition("r1", "r2")
	r.drive(8*time.Second, nil)
	r.inet.Heal("r1", "r2")
	r.finish(n)
}

// bufferbloat rams the full stream into a 1.5 Mbit/s interior link with
// an 8-packet queue: the queue fills, serialization delay mounts,
// overflow drops arrive, and the sender sees typed backpressure. The
// contract is graceful degradation — every refusal typed, every
// congestive loss retransmitted, the stream still exactly-once.
func bufferbloat(r *internet, n int) { r.finish(n) }

func TestTopoSchedule(t *testing.T) {
	rec := runSchedules(t, recordSeed, true, topoSchedules)
	t.Logf("\n%s", jsonRecord(t, rec))
	for _, p := range rec.Points {
		// Zero silent loss: the network's ledger balances — everything
		// sent was delivered or accounted to a named loss class.
		lost := p.QueueDrops + p.LossDrops + p.LinkDrops + p.NATDrops
		if p.NetSent < p.NetDelivered+lost {
			t.Fatalf("%s: ledger unbalanced: sent=%d delivered=%d lost=%d",
				p.Scenario, p.NetSent, p.NetDelivered, lost)
		}
		switch p.Scenario {
		case "nat-rebind":
			if p.ExtBefore == "" || p.ExtBefore == p.ExtAfter {
				t.Fatalf("nat-rebind: ext %q -> %q", p.ExtBefore, p.ExtAfter)
			}
		case "partition-heal":
			if p.LinkDrops == 0 {
				t.Fatalf("partition-heal: linkDrops=%d", p.LinkDrops)
			}
		case "bufferbloat":
			if p.Backpressured == 0 {
				t.Fatalf("bufferbloat: overload never surfaced as typed backpressure")
			}
		}
	}

	// The nat-rebind trace round-trips through the in-repo reader.
	tf, err := topo.ReadPCAP(bytes.NewReader(rec.Points[0].trace))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tf.Frames)) != rec.Points[0].PCAPFrames {
		t.Fatalf("trace has %d frames, point recorded %d", len(tf.Frames), rec.Points[0].PCAPFrames)
	}
	prev := time.Time{}
	for i, f := range tf.Frames {
		if f.Time.Before(prev) {
			t.Fatalf("frame %d: timestamps not monotone", i)
		}
		prev = f.Time
	}
}

// natRebindOver runs the nat-rebind schedule with 200 messages on the
// plaintext stack, or on the encrypted one when secure is set. The
// client reappears on a new external address; the server must not
// migrate on cookie-only traffic, must detect the dead peer, and must
// re-learn the route from an identified probe — with every message
// delivered exactly once, in order.
func natRebindOver(t *testing.T, seed int64, secure *core.SecureConfig) *internet {
	t.Helper()
	r := newInternet(t, "nat-rebind", seed, secure)
	natRebind(r, 200)
	if !r.ordered {
		t.Fatal("delivery violated exactly-once in-order across the rebind")
	}
	if st := r.inet.NATStats("n1"); st.Rebinds == 0 {
		t.Fatalf("NAT stats = %+v, want a rebind", st)
	}
	if got := r.s.RemoteAddr(); got != r.pt.ExtAfter {
		t.Fatalf("server routes to %s, want the rebound mapping %s", got, r.pt.ExtAfter)
	}
	if r.s.Stats().PeerMigrations == 0 {
		t.Fatal("server never migrated the peer route")
	}
	return r
}

// TestTopoNATRebindChaos is the -race chaos entry for the topology: the
// nat-rebind schedule at the PACCEL_CHAOS_SEED seed.
func TestTopoNATRebindChaos(t *testing.T) {
	natRebindOver(t, chaosSeed(t), nil)
}

// TestCoreOverTopoNATRebind runs the full engine — window, recovery,
// migration — across the routed, lossy, NAT'd topology with a mapping
// rebind forced mid-stream.
func TestCoreOverTopoNATRebind(t *testing.T) {
	r := natRebindOver(t, recordSeed, nil)
	stC, stS := r.c.Stats(), r.s.Stats()
	t.Logf("rebind %s -> %s: recoveries=%d migrations=%d probes=%d",
		r.pt.ExtBefore, r.pt.ExtAfter, stC.Recoveries+stS.Recoveries,
		stS.PeerMigrations, stC.RecoveryProbes+stS.RecoveryProbes)
}

// TestSecureOverTopoNATRebind is the encrypted twin of
// TestCoreOverTopoNATRebind: an AES-GCM channel across the same
// schedule. Recovery must carry the crypto state too — resumption
// rekeys the send direction, the window's replays are re-sealed under
// the post-resume epoch, and the peer adopts the new epoch off the wire
// — while every payload arrives exactly once, in order, decrypted.
func TestSecureOverTopoNATRebind(t *testing.T) {
	r := natRebindOver(t, recordSeed, &core.SecureConfig{Key: []byte("topology master key")})
	stats := func(c *core.Conn) layers.SecureStats {
		s, ok := c.SecureStats()
		if !ok {
			t.Fatal("no secure layer in stack")
		}
		return s
	}
	// The client rekeyed, its epoch moved past 1, and the server adopted
	// the new generation from the wire without a handshake.
	cs, ss := stats(r.c), stats(r.s)
	if cs.Rekeys == 0 || cs.SendEpoch < 2 {
		t.Fatalf("client never rekeyed across recovery: %+v", cs)
	}
	if ss.Adoptions == 0 || ss.RecvEpoch < 2 {
		t.Fatalf("server never adopted the post-recovery epoch: %+v", ss)
	}
	if ss.Opened == 0 || cs.Sealed == 0 {
		t.Fatalf("no sealed traffic flowed: client %+v server %+v", cs, ss)
	}
	if cs.AuthFails != 0 || ss.AuthFails != 0 {
		t.Fatalf("frames failed authentication: client %+v server %+v", cs, ss)
	}
	t.Logf("rebind %s -> %s: client %+v server %+v", r.pt.ExtBefore, r.pt.ExtAfter, cs, ss)
}
