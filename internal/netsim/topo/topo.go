// Package topo is the virtual internet: a routed multi-hop topology of
// hosts, routers and NAT middleboxes over which the protocol stack's
// faults are *emergent* rather than scripted.
//
// Where package netsim models one link with injected faults drawn from
// configured rates, topo models the machinery that produces those
// faults in the real internet: routers with finite FIFO output queues
// (queue overflow is congestive loss; queue occupancy is bufferbloat
// delay), per-link MTU, latency, jitter, loss and bit rate — each
// direction independently, so paths can be asymmetric — and NAT boxes
// that rewrite source addresses, expire idle mappings, and rebind to a
// fresh external port on the next packet. Recovery, session resumption
// and peer-address migration are then exercised by what the topology
// does, not by a faultinject rule written to imitate it.
//
// Hosts attach at the edge and implement the engine's Transport and
// BatchTransport contracts: borrow-only delivery (the handler owns the
// datagram slice only for the duration of the call), slice-order
// SendBatch with loss-is-not-failure semantics, and — under a
// vclock.Manual clock and a fixed seed — fully deterministic replay, so
// every existing chaos and stress harness runs unchanged on a
// multi-hop topology.
//
// Any link can be tapped: a Tap writes every frame crossing the edge
// (both directions) as a legacy-format .pcap file with UDP/IPv4
// encapsulation, readable by tcpdump/wireshark for post-mortem
// debugging. See pcap.go.
//
// Addresses are "ip:port" strings ("10.0.0.2:1"). The IP names the
// host node (one node per IP, any number of ports); routers forward on
// the destination IP. A NAT owns its external IP, so outside traffic
// to a mapping routes to the NAT box, which translates and forwards
// inward.
package topo

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

// Addr names a host endpoint: an "ip:port" string. It is an alias so
// topo hosts satisfy transport interfaces declared over plain strings.
type Addr = string

// ErrTooLarge is returned by Send for datagrams over the first-hop MTU.
// (An oversized datagram *mid-path* — a smaller interior MTU — is
// silently dropped instead, like the real internet without ICMP: the
// sender finds out from its own timers.)
var ErrTooLarge = errors.New("topo: datagram exceeds first-hop MTU")

// ErrClosed is returned by Send on a closed host.
var ErrClosed = errors.New("topo: host closed")

// DefaultMTU is the default per-link MTU: Ethernet's, the interior
// internet's common denominator.
const DefaultMTU = 1500

// DefaultQueueLen is the default output-queue capacity, in packets.
// Small enough that a modest overload overflows it in tests.
const DefaultQueueLen = 64

// DefaultMaxHops bounds a packet's forwarding hops (TTL): a routing
// loop drops the packet instead of looping forever.
const DefaultMaxHops = 32

// LinkConfig describes one *direction* of a link. Link installs the
// same config both ways; LinkAsym installs different ones.
type LinkConfig struct {
	// Latency is the propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) to each packet's
	// propagation delay. Packets with unlucky draws are overtaken —
	// reordering is emergent, not injected.
	Jitter time.Duration
	// BitRate models serialization in bits/s: a packet occupies the
	// link for size*8/BitRate, and packets behind it queue. 0 means
	// infinitely fast (no queueing — the queue can then never fill).
	BitRate float64
	// LossRate is the per-packet probability of random loss in [0, 1]
	// (the medium's own loss, distinct from queue overflow).
	LossRate float64
	// MTU is the largest packet this direction carries; 0 means
	// DefaultMTU.
	MTU int
	// QueueLen is the output-queue capacity in packets; 0 means
	// DefaultQueueLen. Arrivals beyond it are congestive drops.
	QueueLen int
}

func (c *LinkConfig) mtu() int {
	if c.MTU <= 0 {
		return DefaultMTU
	}
	return c.MTU
}

func (c *LinkConfig) queueLen() int {
	if c.QueueLen <= 0 {
		return DefaultQueueLen
	}
	return c.QueueLen
}

// Config controls the internet.
type Config struct {
	// Seed makes every random draw (loss, jitter) reproducible;
	// 0 means a fixed default.
	Seed int64
	// MaxHops bounds forwarding hops; 0 means DefaultMaxHops.
	MaxHops int
}

// Stats counts internet-level events. Every packet a host offered is
// either Delivered or accounted to exactly one loss counter — the
// zero-silent-loss bookkeeping the harnesses assert.
type Stats struct {
	Sent, Delivered uint64
	BytesSent       uint64

	// QueueDrops are congestive losses: arrivals at a full output
	// queue.
	QueueDrops uint64
	// LinkDrops are packets sent into an administratively-down link.
	LinkDrops uint64
	// LossDrops are the medium's random losses (LinkConfig.LossRate).
	LossDrops uint64
	// MTUDrops are packets over an interior link's MTU (first-hop
	// violations error out of Send instead and are not counted here).
	MTUDrops uint64
	// RouteDrops are packets with no route: unknown destination IP,
	// no endpoint at the port, a closed host, or hop budget exhausted.
	RouteDrops uint64
	// NATDrops are inbound packets to an expired or never-allocated
	// NAT mapping.
	NATDrops uint64
	// NATRebinds counts mappings re-allocated on a new external port
	// after idle expiry.
	NATRebinds uint64

	// BatchSends counts SendBatch calls; BatchDatagrams the datagrams
	// they carried (each also counted in Sent).
	BatchSends, BatchDatagrams uint64
}

// Lost is the sum of every loss class: Sent - Delivered - Lost is the
// traffic still in flight.
func (s Stats) Lost() uint64 {
	return s.QueueDrops + s.LinkDrops + s.LossDrops + s.MTUDrops + s.RouteDrops + s.NATDrops
}

type nodeKind uint8

const (
	kindRouter nodeKind = iota
	kindHost
	kindNAT
)

// node is one vertex: a router, a NAT box, or a host (one per IP).
type node struct {
	name string
	kind nodeKind
	// nbrs are the directed out-links, by neighbor name.
	nbrs map[string]*linkState
	// hosts are the endpoints attached here (kindHost), by full addr.
	hosts map[Addr]*Host
	nat   *natState

	// Per-router occupancy telemetry, resolved once (nil when
	// telemetry is off): the sum of this node's output queues, and its
	// total congestive drops.
	depthGauge, dropsGauge *telemetry.NamedGauge
}

// linkState is one directed edge and its output queue at the upstream
// node.
type linkState struct {
	from, to string
	cfg      LinkConfig
	down     bool

	// queued packets occupy the output buffer from enqueue until
	// serialization completes; peak is the most ever queued at once;
	// nextFree is the serialization horizon.
	queued   int
	peak     int
	nextFree time.Time
	drops    uint64

	// Prebuilt event causes (the drop paths run per packet).
	dropCause string

	taps []*Tap
}

// Internet is the routed virtual internet.
type Internet struct {
	clock   vclock.Clock
	maxHops int

	// mu guards all simulation state: topology, routes, queues, NAT
	// tables, rng and stats. The engine is lock-light by design — this
	// is a robustness simulator, not a throughput path — and one lock
	// keeps the rng draw order (the deterministic-replay contract)
	// trivially stable.
	mu      sync.Mutex
	rng     *rand.Rand
	nodes   map[string]*node
	ipOwner map[string]string            // IP → owning node
	routes  map[string]map[string]string // node → dest node → next hop
	stats   Stats
	seq     uint64

	tel atomic.Pointer[telemetry.Recorder]
}

// New creates an internet driven by the given clock. Build the topology
// with AddRouter/AddNAT/Link/Host before sending traffic.
func New(clock vclock.Clock, cfg Config) *Internet {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1996
	}
	maxHops := cfg.MaxHops
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	return &Internet{
		clock:   clock,
		maxHops: maxHops,
		rng:     rand.New(rand.NewSource(seed)),
		nodes:   make(map[string]*node),
		ipOwner: make(map[string]string),
		routes:  make(map[string]map[string]string),
	}
}

// SetTelemetry installs a recorder: partition and queue-overflow events
// (EventFault), NAT mapping events (EventRebind — never sampled), and
// per-router "<name>/queue_depth" / "<name>/queue_drops" named gauges.
// Gauge handles resolve here, once, so the per-packet updates are a
// single atomic add. Nil uninstalls (handles go nil and no-op).
func (n *Internet) SetTelemetry(rec *telemetry.Recorder) {
	n.tel.Store(rec)
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, nd := range n.nodes {
		nd.resolveGauges(rec)
	}
}

func (nd *node) resolveGauges(rec *telemetry.Recorder) {
	if rec == nil {
		nd.depthGauge, nd.dropsGauge = nil, nil
		return
	}
	nd.depthGauge = rec.NamedGauge(nd.name + "/queue_depth")
	nd.dropsGauge = rec.NamedGauge(nd.name + "/queue_drops")
}

// Stats returns a snapshot of the internet counters.
func (n *Internet) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// addNode registers a vertex, failing loudly on a name collision —
// topologies are built once, in test or harness code, where a panic is
// a clear diagnostic and an error return would be ignored boilerplate.
func (n *Internet) addNode(name string, kind nodeKind) *node {
	if name == "" {
		panic("topo: empty node name")
	}
	if _, ok := n.nodes[name]; ok {
		panic(fmt.Sprintf("topo: node %q already exists", name))
	}
	nd := &node{name: name, kind: kind, nbrs: make(map[string]*linkState)}
	nd.resolveGauges(n.tel.Load())
	n.nodes[name] = nd
	return nd
}

// AddRouter adds a router named name.
func (n *Internet) AddRouter(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addNode(name, kindRouter)
	n.recomputeLocked()
}

// Link joins a and b with the same config in both directions. Both
// nodes must already exist (AddRouter/AddNAT/Host).
func (n *Internet) Link(a, b string, cfg LinkConfig) {
	n.LinkAsym(a, b, cfg, cfg)
}

// LinkAsym joins a and b with per-direction configs: ab governs a→b
// traffic, ba the reverse. Asymmetric paths (a fat downlink over a thin
// uplink) are one LinkAsym call.
func (n *Internet) LinkAsym(a, b string, ab, ba LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		panic(fmt.Sprintf("topo: link %q-%q: unknown node", a, b))
	}
	if _, ok := na.nbrs[b]; ok {
		panic(fmt.Sprintf("topo: link %q-%q already exists", a, b))
	}
	na.nbrs[b] = newLink(a, b, ab)
	nb.nbrs[a] = newLink(b, a, ba)
	n.recomputeLocked()
}

func newLink(from, to string, cfg LinkConfig) *linkState {
	return &linkState{
		from: from, to: to, cfg: cfg,
		dropCause: "topo: queue overflow on " + from + "->" + to,
	}
}

// SetLinkDown cuts (or restores) the directed edge a→b: packets routed
// onto it are dropped, but routing does not reconverge — the path stays
// dead until healed, which is exactly what a partition test wants. Like
// netsim.SetLinkDown this is deliberately directed; use Partition/Heal
// for the bidirectional cut.
func (n *Internet) SetLinkDown(a, b string, down bool) {
	n.mu.Lock()
	na := n.nodes[a]
	var l *linkState
	if na != nil {
		l = na.nbrs[b]
	}
	if l != nil {
		l.down = down
	}
	n.mu.Unlock()
	if l == nil {
		panic(fmt.Sprintf("topo: SetLinkDown %q->%q: no such link", a, b))
	}
	cause := causeHealed
	if down {
		cause = causePartition
	}
	n.tel.Load().Event(telemetry.EventFault, 0, cause+": "+a+"->"+b)
}

// Partition cuts the a-b edge in both directions; Heal restores it.
// Cutting an interior edge strands every path through it — the
// multi-hop partition the recovery machinery must ride out.
func (n *Internet) Partition(a, b string) {
	n.SetLinkDown(a, b, true)
	n.SetLinkDown(b, a, true)
}

// Heal restores both directions of the a-b edge.
func (n *Internet) Heal(a, b string) {
	n.SetLinkDown(a, b, false)
	n.SetLinkDown(b, a, false)
}

// QueueStats reports a node's current total output-queue occupancy and
// its cumulative congestive drops.
func (n *Internet) QueueStats(name string) (depth int, drops uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd := n.nodes[name]
	if nd == nil {
		return 0, 0
	}
	for _, l := range nd.nbrs {
		depth += l.queued
		drops += l.drops
	}
	return depth, drops
}

// PeakQueueDepth reports the most packets the directed link a->b ever
// held in its output queue at once — the occupancy a sampled QueueStats
// can miss between samples. An unknown link reports 0.
func (n *Internet) PeakQueueDepth(a, b string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if na := n.nodes[a]; na != nil {
		if l := na.nbrs[b]; l != nil {
			return l.peak
		}
	}
	return 0
}

// recomputeLocked rebuilds every node's next-hop table by BFS. Neighbor
// names are visited in sorted order so equal-length path ties break
// identically on every run — route choice is part of the deterministic-
// replay contract. Down links still route (and drop): outages do not
// reconverge.
func (n *Internet) recomputeLocked() {
	names := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		names = append(names, name)
	}
	sort.Strings(names)

	sortedNbrs := make(map[string][]string, len(n.nodes))
	for name, nd := range n.nodes {
		ns := make([]string, 0, len(nd.nbrs))
		for nb := range nd.nbrs {
			ns = append(ns, nb)
		}
		sort.Strings(ns)
		sortedNbrs[name] = ns
	}

	n.routes = make(map[string]map[string]string, len(n.nodes))
	for _, src := range names {
		next := make(map[string]string)
		// BFS from src; first-visit parent chain gives the next hop.
		prev := map[string]string{src: ""}
		queue := []string{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range sortedNbrs[cur] {
				if _, seen := prev[nb]; seen {
					continue
				}
				prev[nb] = cur
				queue = append(queue, nb)
			}
		}
		for _, dst := range names {
			if dst == src {
				continue
			}
			if _, ok := prev[dst]; !ok {
				continue // disconnected
			}
			hop := dst
			for prev[hop] != src {
				hop = prev[hop]
			}
			next[dst] = hop
		}
		n.routes[src] = next
	}
}

// Constant event causes for the per-packet paths.
const (
	causePartition = "topo: link partitioned"
	causeHealed    = "topo: link healed"
)

// bufPool holds in-flight packet payloads, pooled like netsim's.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

func copyToPooled(datagram []byte) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < len(datagram) {
		*bp = make([]byte, len(datagram))
	}
	*bp = (*bp)[:len(datagram)]
	copy(*bp, datagram)
	return bp
}

// packet is one datagram in flight. src and dst are rewritten in place
// by NAT traversal — the pcap tap sees the addresses as they were at
// its vantage point, like a real capture.
type packet struct {
	src, dst Addr
	data     *[]byte
	size     int
	seq      uint64
	hops     int
	at       string // current node
	from     string // neighbor arrived from ("" at the origin host)
}

// hostDelivery is a packet that reached its destination host during
// locked processing; the handler runs after the engine lock is
// released.
type hostDelivery struct {
	h *Host
	d delivery
}

// dispatch runs accumulated host deliveries outside the engine lock.
func dispatch(dels []hostDelivery) {
	for _, hd := range dels {
		hd.h.deliver(hd.d)
	}
}

// forwardLocked advances packets hop by hop until each is delivered,
// dropped, or parked on a timer (serialization or propagation delay).
// Called with n.mu held; returns deliveries for the caller to dispatch
// after unlocking.
func (n *Internet) forwardLocked(now time.Time, work []*packet) []hostDelivery {
	var dels []hostDelivery
	for len(work) > 0 {
		p := work[0]
		work = work[1:]
		nd := n.nodes[p.at]
		if nd == nil {
			n.dropLocked(p, &n.stats.RouteDrops, nil)
			continue
		}

		// NAT, inbound side: traffic addressed to the box's external
		// IP translates (or dies) here.
		if nd.nat != nil && ipOf(p.dst) == nd.nat.extIP {
			if !nd.nat.translateIn(n, p, now) {
				continue // dropped, accounted by translateIn
			}
		}

		// At the destination host?
		if nd.kind == kindHost && n.ipOwner[ipOf(p.dst)] == nd.name {
			h := nd.hosts[p.dst]
			if h == nil || h.closed.Load() {
				n.dropLocked(p, &n.stats.RouteDrops, nil)
				continue
			}
			n.stats.Delivered++
			dels = append(dels, hostDelivery{h, delivery{src: p.src, data: p.data, arrival: now, seq: p.seq}})
			continue
		}

		// Route toward the destination's owner.
		owner := n.ipOwner[ipOf(p.dst)]
		var hop string
		if owner != "" {
			hop = n.routes[p.at][owner]
		}
		if hop == "" || p.hops >= n.maxHops {
			n.dropLocked(p, &n.stats.RouteDrops, nil)
			continue
		}

		// NAT, outbound side: leaving the inside for the outside
		// rewrites the source.
		if nd.nat != nil && nd.nat.inside[p.from] && !nd.nat.inside[hop] {
			nd.nat.translateOut(n, p, now)
		}

		l := nd.nbrs[hop]
		p.hops++
		n.enqueueLocked(now, nd, l, p, &work)
	}
	return dels
}

// enqueueLocked puts p on the directed link l, applying the link's
// fate machinery: down, MTU, random loss, queue admission,
// serialization and propagation. Instantly-forwardable packets are
// appended to *work; delayed ones park on clock timers.
func (n *Internet) enqueueLocked(now time.Time, nd *node, l *linkState, p *packet, work *[]*packet) {
	if l.down {
		n.dropLocked(p, &n.stats.LinkDrops, nil)
		return
	}
	if p.size > l.cfg.mtu() {
		n.dropLocked(p, &n.stats.MTUDrops, nil)
		return
	}
	if l.cfg.LossRate > 0 && n.rng.Float64() < l.cfg.LossRate {
		n.dropLocked(p, &n.stats.LossDrops, nil)
		return
	}

	var txTime time.Duration
	if l.cfg.BitRate > 0 {
		txTime = time.Duration(float64(p.size*8) / l.cfg.BitRate * float64(time.Second))
	}
	if txTime > 0 {
		if l.queued >= l.cfg.queueLen() {
			// Congestive loss: the emergent drop this simulator
			// exists for.
			l.drops++
			n.stats.QueueDrops++
			nd.dropsGauge.Add(1)
			n.dropLocked(p, nil, &l.dropCause)
			return
		}
		l.queued++
		if l.queued > l.peak {
			l.peak = l.queued
		}
		nd.depthGauge.Add(1)
	}

	// The tap sees the frame going onto the wire, pre-rewrite state of
	// later hops invisible — capture now, at this vantage point.
	for _, tap := range l.taps {
		tap.capture(now, p)
	}

	start := now
	if l.nextFree.After(start) {
		start = l.nextFree
	}
	depart := start.Add(txTime)
	l.nextFree = depart

	delay := l.cfg.Latency
	if l.cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(l.cfg.Jitter)))
	}
	arrive := depart.Add(delay)

	p.from = l.from
	p.at = l.to

	if txTime > 0 {
		// The packet occupies the output buffer until serialization
		// completes.
		n.clock.AfterFunc(depart.Sub(now), func() {
			n.mu.Lock()
			l.queued--
			nd.depthGauge.Add(-1)
			n.mu.Unlock()
		})
	}
	if arrive.After(now) {
		n.clock.AfterFunc(arrive.Sub(now), func() {
			n.mu.Lock()
			dels := n.forwardLocked(arrive, []*packet{p})
			n.mu.Unlock()
			dispatch(dels)
		})
		return
	}
	*work = append(*work, p)
}

// dropLocked retires a packet: its buffer returns to the pool and
// exactly one loss counter accounts for it. A non-nil cause emits a
// telemetry fault event (prebuilt string — no allocation per drop).
func (n *Internet) dropLocked(p *packet, counter *uint64, cause *string) {
	if counter != nil {
		*counter++
	}
	bufPool.Put(p.data)
	p.data = nil
	if cause != nil {
		n.tel.Load().Event(telemetry.EventFault, 0, *cause)
	}
}

// ipOf splits the IP out of an "ip:port" address (the whole string when
// there is no colon, so bare names still route as opaque IPs).
func ipOf(addr Addr) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return addr
}
