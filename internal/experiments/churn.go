// The churn experiment: surviving the fleet reboot (DESIGN.md §14). A
// correlated restart turns a quiet server into the landing zone for a
// connect/disconnect storm — every peer redials at once, the cookie
// table churns through orders of magnitude more identities than it can
// hold live, and the endpoint must keep serving the connections it has
// admitted while refusing the rest *cheaply* and *loudly* (typed
// errors and counters, never silence).
//
// Three scenarios:
//
//   - load: fill the cache-packed routing table to 100k–1M learned
//     entries, report the measured bytes/connection and the routed
//     fast-path ns/op at that occupancy, then let the incremental GC
//     drain it all, recording the worst sweep size and pause — the
//     pause bound must hold no matter how big the table got.
//   - storm: a seeded mass redial against a small-capacity endpoint on
//     the virtual clock. Admission fills to MaxConns, the storm
//     detector trips and tightens, the rest is shed; one admitted
//     "victim" connection keeps sending throughout and must lose
//     nothing. Every attempt is accounted: admitted + shed == offered.
//   - udp: the same storm shape over real loopback sockets, proving
//     the admission path holds outside the simulator.
//
// -json writes the machine-readable baseline (BENCH_7.json); -seed
// pins the storm schedule and the early-drop coin.
package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/udp"
	"paccel/internal/vclock"
)

// churnAccept is the storm server's accept hook: every identified
// connection taken at face value, exactly as a fleet frontend would
// before authentication happens at a higher layer.
func churnAccept(remote layers.IdentInfo, netSrc string) (core.PeerSpec, bool) {
	return core.PeerSpec{
		Addr:      netSrc,
		LocalID:   bytes.TrimRight(remote.Dst, "\x00"),
		RemoteID:  bytes.TrimRight(remote.Src, "\x00"),
		LocalPort: remote.DstPort, RemotePort: remote.SrcPort,
		Epoch: remote.Epoch,
	}, true
}

// ChurnLoadPoint is one table-occupancy measurement of the load
// scenario.
type ChurnLoadPoint struct {
	Entries int `json:"entries"`
	Anchors int `json:"anchors"`

	// Table geometry at peak occupancy. BytesPerEntry is the headline
	// memory number: routing-table bytes per live learned route.
	TableSlots    int64   `json:"table_slots"`
	TableBytes    int64   `json:"table_bytes"`
	BytesPerEntry float64 `json:"bytes_per_entry"`

	FillNsPerBind   float64 `json:"fill_ns_per_bind"`
	DeliverNsLoaded float64 `json:"deliver_ns_loaded"`

	// Incremental-GC drain: the whole table is evicted over bounded
	// sweeps. GCMaxSweepSlots must never exceed the budget, and
	// GCMaxPauseUs is the longest wall-clock time any single sweep held
	// the router lock.
	GCSweepBudget   int     `json:"gc_sweep_budget"`
	GCSweeps        uint64  `json:"gc_sweeps"`
	GCMaxSweepSlots uint64  `json:"gc_max_sweep_slots"`
	GCMaxPauseUs    float64 `json:"gc_max_pause_us"`
	Evicted         uint64  `json:"evicted"`
	DrainedClean    bool    `json:"drained_clean"`
}

// ChurnStormResult is the netsim mass-redial scenario.
type ChurnStormResult struct {
	MaxConns int   `json:"max_conns"`
	Attempts int   `json:"attempts"`
	Seed     int64 `json:"seed"`

	Admitted       uint64 `json:"admitted"`
	Shed           uint64 `json:"shed"`
	ShedFull       uint64 `json:"shed_full"`
	ShedStorm      uint64 `json:"shed_storm"`
	StormsDetected uint64 `json:"storms_detected"`
	StormExited    bool   `json:"storm_exited"`

	// AccountedLossless is the "never silent" acceptance bit: every
	// offered attempt is either an admitted connection or a counted shed.
	AccountedLossless bool `json:"accounted_lossless"`

	// The admitted victim's end-to-end delivery through the storm.
	VictimSent      int `json:"victim_sent"`
	VictimDelivered int `json:"victim_delivered"`

	// Identified fast-path latency for an admitted connection while the
	// endpoint is quiescent versus while it is actively shedding with
	// the storm detector engaged — the number that must not move.
	DeliverNsQuiescent float64 `json:"deliver_ns_quiescent"`
	DeliverNsStorm     float64 `json:"deliver_ns_storm"`
	ShedNsOp           float64 `json:"shed_ns_op"`
	ShedAllocsOp       float64 `json:"shed_allocs_op"`
}

// ChurnUDPResult is the real-socket storm scenario.
type ChurnUDPResult struct {
	Clients  int    `json:"clients"`
	Arrived  uint64 `json:"arrived"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	// Accounted: every first message that reached the server socket was
	// either admitted or counted as shed.
	Accounted bool `json:"accounted"`
}

// ChurnResult is the machine-readable output of the churn experiment —
// the BENCH_7.json acceptance artifact.
type ChurnResult struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	Quick  bool   `json:"quick"`

	Load  []ChurnLoadPoint  `json:"load"`
	Storm *ChurnStormResult `json:"storm"`
	UDP   *ChurnUDPResult   `json:"udp"`
}

// Churn runs the full experiment.
func Churn(quick bool, seed int64) (*ChurnResult, error) {
	if seed == 0 {
		seed = 0x7e57ab1e
	}
	res := &ChurnResult{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Quick: quick}
	sizes := []int{100_000, 1_000_000}
	attempts := 20000
	udpClients := 1000
	if quick {
		sizes = []int{20_000, 100_000}
		attempts = 2000
		udpClients = 200
	}
	for _, n := range sizes {
		pt, err := churnLoad(n)
		if err != nil {
			return nil, err
		}
		res.Load = append(res.Load, *pt)
	}
	storm, err := churnStorm(attempts, seed)
	if err != nil {
		return nil, err
	}
	res.Storm = storm
	udpRes, err := churnUDP(udpClients, seed)
	if err != nil {
		return nil, err
	}
	res.UDP = udpRes
	return res, nil
}

// churnLoad fills one endpoint's routing table to n learned entries,
// measures its geometry and loaded fast path, then drains it through
// the incremental GC on the virtual clock.
func churnLoad(n int) (*ChurnLoadPoint, error) {
	const ttl = time.Minute
	// Enough anchor connections that each holds only a few hundred
	// synthetic routes — like a fleet, and it keeps per-eviction
	// bookkeeping (a scan of the anchor's cookie list) cheap.
	anchors := n / 256
	if anchors < 16 {
		anchors = 16
	}
	clk := vclock.NewManual(time.Unix(0, 0))
	net := netsim.New(clk, netsim.Config{})
	tap := &tapTransport{inner: net.Endpoint("S")}
	var h handlerGrab
	server, err := core.NewEndpoint(core.Config{
		Transport: handlerGrabTap{tap, &h},
		Clock:     clk,
		Build:     LeanStack,
		CookieTTL: ttl,
		MaxConns:  n + anchors + 1,
	})
	if err != nil {
		return nil, err
	}
	defer server.Close()

	pt := &ChurnLoadPoint{Entries: n, Anchors: anchors, GCSweepBudget: 4096}
	per := n / anchors
	start := time.Now()
	for i := 0; i < anchors; i++ {
		anchor, err := server.Dial(core.PeerSpec{
			Addr: "X", LocalID: []byte("s"), RemoteID: []byte("x"),
			LocalPort: uint16(i%65000 + 1), RemotePort: 9, Epoch: uint32(i / 65000),
		})
		if err != nil {
			return nil, err
		}
		if got := server.BindBenchCookies(anchor, uint64(1+i*per)<<16, per, true); got != per {
			return nil, fmt.Errorf("churn: anchor %d bound %d of %d routes", i, got, per)
		}
	}
	bound := anchors * per
	pt.FillNsPerBind = float64(time.Since(start).Nanoseconds()) / float64(bound)
	pt.Entries = bound

	// One pre-agreed-cookie connection on top of the load gives us a
	// genuine fast-path frame to replay against the loaded table.
	client, err := core.NewEndpoint(core.Config{
		Transport: net.Endpoint("C"), Clock: clk, Build: LeanStack,
	})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	sc, err := server.Dial(core.PeerSpec{
		Addr: "C", LocalID: []byte("server"), RemoteID: []byte("client"),
		LocalPort: 2000, RemotePort: 1000, Epoch: 1,
		OutCookie: 0xc11e, ExpectInCookie: 0x5eed, SkipFirstConnID: true,
	})
	if err != nil {
		return nil, err
	}
	sc.OnDeliver(func([]byte) {})
	cc, err := client.Dial(core.PeerSpec{
		Addr: "S", LocalID: []byte("client"), RemoteID: []byte("server"),
		LocalPort: 1000, RemotePort: 2000, Epoch: 1,
		OutCookie: 0x5eed, ExpectInCookie: 0xc11e, SkipFirstConnID: true,
	})
	if err != nil {
		return nil, err
	}
	if err := cc.Send([]byte("capture!")); err != nil {
		return nil, err
	}
	frame := tap.takeLast()
	if len(frame) == 0 || h.fn == nil {
		return nil, fmt.Errorf("churn: no fast-path frame captured")
	}

	snap := server.Snapshot()
	pt.TableSlots = snap.TableSlots
	pt.TableBytes = snap.TableBytes
	if snap.TableEntries > 0 {
		pt.BytesPerEntry = float64(snap.TableBytes) / float64(snap.TableEntries)
	}

	const replays = 200_000
	for i := 0; i < 256; i++ {
		h.fn("C", frame)
	}
	start = time.Now()
	for i := 0; i < replays; i++ {
		h.fn("C", frame)
	}
	pt.DeliverNsLoaded = float64(time.Since(start).Nanoseconds()) / replays

	// Drain: three TTLs of virtual time fire every paced incremental
	// sweep; the synthetic routes are never refreshed, so all of them
	// must be gone, in bounded bites.
	clk.Advance(3 * ttl)
	snap = server.Snapshot()
	pt.GCSweeps = snap.GCSweeps
	pt.GCMaxSweepSlots = snap.GCMaxSweepSlots
	pt.GCMaxPauseUs = float64(snap.GCMaxPause.Nanoseconds()) / 1e3
	pt.Evicted = snap.CookiesEvicted
	// The pre-agreed capture binding is not learned, so it survives; all
	// synthetic learned routes must be gone.
	pt.DrainedClean = snap.CookiesEvicted == uint64(bound) && snap.TableEntries <= 2
	if pt.GCMaxSweepSlots > uint64(pt.GCSweepBudget) {
		return nil, fmt.Errorf("churn: GC sweep examined %d slots, budget %d",
			pt.GCMaxSweepSlots, pt.GCSweepBudget)
	}
	if !pt.DrainedClean {
		return nil, fmt.Errorf("churn: table not drained (evicted %d of %d, %d entries left)",
			snap.CookiesEvicted, bound, snap.TableEntries)
	}
	return pt, nil
}

// handlerGrab steals a reference to the endpoint's receive callback so
// frames can be replayed without the network.
type handlerGrab struct {
	fn func(src string, datagram []byte)
}

type handlerGrabTap struct {
	core.Transport
	h *handlerGrab
}

func (t handlerGrabTap) SetHandler(fn func(src string, datagram []byte)) {
	t.h.fn = fn
	t.Transport.SetHandler(fn)
}

// churnStorm is the seeded mass-redial scenario on the virtual clock.
func churnStorm(attempts int, seed int64) (*ChurnStormResult, error) {
	const maxConns = 256
	const stormRate = 500
	res := &ChurnStormResult{MaxConns: maxConns, Attempts: attempts, Seed: seed}
	clk := vclock.NewManual(time.Unix(0, 0))
	net := netsim.New(clk, netsim.Config{})

	var victimDelivered int
	var victimConn *core.Conn
	server, err := core.NewEndpoint(core.Config{
		Transport: net.Endpoint("S"),
		Clock:     clk,
		MaxConns:  maxConns,
		Admission: core.AdmissionConfig{StormRate: stormRate, Seed: uint64(seed)},
		Accept:    churnAccept,
		OnConn: func(c *core.Conn) {
			if victimConn == nil {
				victimConn = c
				c.OnDeliver(func([]byte) { victimDelivered++ })
				return
			}
			c.OnDeliver(func([]byte) {})
		},
	})
	if err != nil {
		return nil, err
	}
	defer server.Close()

	// The victim redials first — the connection that made it back in —
	// and keeps talking through the whole storm.
	victimEp, err := core.NewEndpoint(core.Config{Transport: net.Endpoint("V"), Clock: clk})
	if err != nil {
		return nil, err
	}
	defer victimEp.Close()
	victim, err := victimEp.Dial(core.PeerSpec{
		Addr: "S", LocalID: []byte("victim"), RemoteID: []byte("srv"),
		LocalPort: 7, RemotePort: 9, Epoch: 1,
	})
	if err != nil {
		return nil, err
	}
	victimSent := 0
	victimSend := func() error {
		for {
			err := victim.Send([]byte("still here"))
			if err == nil {
				victimSent++
				return nil
			}
			if errors.Is(err, core.ErrBackpressure) {
				clk.Advance(20 * time.Millisecond)
				continue
			}
			return err
		}
	}
	if err := victimSend(); err != nil {
		return nil, err
	}

	before := server.Snapshot()
	redial := func(i int) error {
		ep, err := core.NewEndpoint(core.Config{
			Transport: net.Endpoint(fmt.Sprintf("C%d", i)), Clock: clk,
		})
		if err != nil {
			return err
		}
		conn, err := ep.Dial(core.PeerSpec{
			Addr: "S", LocalID: []byte(fmt.Sprintf("c%d", i)), RemoteID: []byte("srv"),
			LocalPort: uint16(i%65000 + 1), RemotePort: 9, Epoch: uint32(i / 65000),
		})
		if err == nil {
			conn.Send([]byte("redial"))
		}
		ep.Close()
		return nil
	}
	// The storm: every peer in the fleet redials inside a few virtual
	// seconds. ~500 attempts land per virtual second — over stormRate,
	// so the detector must trip.
	offered := 0
	for i := 0; i < attempts; i++ {
		if err := redial(i); err != nil {
			return nil, err
		}
		offered++
		if i%16 == 15 {
			if err := victimSend(); err != nil {
				return nil, err
			}
		}
		if i%500 == 499 {
			clk.Advance(time.Second)
		}
	}
	// Drain: calm virtual seconds carrying only a trickle of redials
	// (far under the calm threshold); the detector must relax.
	for s := 0; s < 5; s++ {
		clk.Advance(time.Second)
		if err := redial(attempts + s); err != nil {
			return nil, err
		}
		offered++
		if err := victimSend(); err != nil {
			return nil, err
		}
	}
	clk.Advance(time.Second)
	if err := redial(attempts + 5); err != nil {
		return nil, err
	}
	offered++

	after := server.Snapshot()
	res.Admitted = after.Accepted - before.Accepted
	res.Shed = after.ShedTotal - before.ShedTotal
	res.ShedFull = after.ShedFull - before.ShedFull
	res.ShedStorm = after.ShedStorm - before.ShedStorm
	res.StormsDetected = after.StormsDetected
	res.StormExited = after.StormsDetected > 0 && !after.StormActive
	res.AccountedLossless = res.Admitted+res.Shed == uint64(offered)
	res.VictimSent = victimSent
	res.VictimDelivered = victimDelivered
	if !res.AccountedLossless {
		return nil, fmt.Errorf("churn: %d attempts but admitted %d + shed %d (silent loss)",
			offered, res.Admitted, res.Shed)
	}
	if res.VictimDelivered != res.VictimSent {
		return nil, fmt.Errorf("churn: victim sent %d, delivered %d — admitted traffic lost",
			res.VictimSent, res.VictimDelivered)
	}
	if res.StormsDetected == 0 {
		return nil, fmt.Errorf("churn: storm of %d attempts/s never tripped the %d/s detector",
			attempts, stormRate)
	}

	// Fast-path latency, quiescent vs actively shedding, on the replay
	// harness (real clock: these are wall-time measurements).
	sh, err := NewShedHarness(1 << 20)
	if err != nil {
		return nil, err
	}
	res.DeliverNsQuiescent = timeOps(200_000, sh.Deliver)
	sh.Close()
	sh, err = NewShedHarness(64) // low storm threshold: shedding trips it
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	res.ShedNsOp = timeOps(200_000, sh.Shed) // also drives the detector past 64/s
	if !sh.Server.Snapshot().StormActive {
		return nil, fmt.Errorf("churn: shed replay did not engage the storm detector")
	}
	// Interleave 1:1 with shed traffic, timing only the delivery blocks.
	var acc time.Duration
	const blocks, per = 1000, 64
	for b := 0; b < blocks; b++ {
		for i := 0; i < per; i++ {
			sh.Shed()
		}
		t0 := time.Now()
		for i := 0; i < per; i++ {
			sh.Deliver()
		}
		acc += time.Since(t0)
	}
	res.DeliverNsStorm = float64(acc.Nanoseconds()) / float64(blocks*per)
	res.ShedAllocsOp = testing.AllocsPerRun(2000, sh.Shed)
	return res, nil
}

func timeOps(n int, op func()) float64 {
	for i := 0; i < 256; i++ {
		op()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// ShedHarness drives one endpoint's admission reject path and one
// admitted connection's delivery path directly, bypassing the network:
// the fixture behind the storm latency numbers, the shed benchmarks,
// and the root-package perfgate benches.
type ShedHarness struct {
	Server *core.Endpoint

	h           handlerGrab
	client      *core.Endpoint
	client2     *core.Endpoint
	cookieFrame []byte
	shedFrame   []byte
}

// NewShedHarness builds a MaxConns=1 endpoint holding one pre-agreed
// fast-path connection, plus one captured stranger first-message whose
// replay is refused by admission every time. stormRate configures the
// detector (use a huge rate to keep it quiet, a small one to trip it).
func NewShedHarness(stormRate int) (*ShedHarness, error) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	sh := &ShedHarness{}
	tap := &tapTransport{inner: net.Endpoint("S")}
	server, err := core.NewEndpoint(core.Config{
		Transport: handlerGrabTap{tap, &sh.h},
		Build:     LeanStack,
		MaxConns:  1,
		Admission: core.AdmissionConfig{StormRate: stormRate, Seed: 7},
		Accept:    churnAccept,
		OnConn:    func(c *core.Conn) { c.OnDeliver(func([]byte) {}) },
	})
	if err != nil {
		return nil, err
	}
	sh.Server = server
	client, err := core.NewEndpoint(core.Config{Transport: net.Endpoint("C"), Build: LeanStack})
	if err != nil {
		sh.Close()
		return nil, err
	}
	sh.client = client
	// The admitted connection: pre-agreed cookies, so its frames are
	// cookie-only and its dial occupies the single slot.
	scServer, err := server.Dial(core.PeerSpec{
		Addr: "C", LocalID: []byte("server"), RemoteID: []byte("client"),
		LocalPort: 2000, RemotePort: 1000, Epoch: 1,
		OutCookie: 0xc11e, ExpectInCookie: 0x5eed, SkipFirstConnID: true,
	})
	if err != nil {
		sh.Close()
		return nil, err
	}
	scServer.OnDeliver(func([]byte) {})
	cc, err := client.Dial(core.PeerSpec{
		Addr: "S", LocalID: []byte("client"), RemoteID: []byte("server"),
		LocalPort: 1000, RemotePort: 2000, Epoch: 1,
		OutCookie: 0x5eed, ExpectInCookie: 0xc11e, SkipFirstConnID: true,
	})
	if err != nil {
		sh.Close()
		return nil, err
	}
	if err := cc.Send([]byte("fastpath")); err != nil {
		sh.Close()
		return nil, err
	}
	sh.cookieFrame = tap.takeLast()

	// The stranger: a genuine identified first message from a peer the
	// server has never admitted. Its live arrival was already refused
	// (the slot is taken), and every replay re-runs the same refusal.
	client2, err := core.NewEndpoint(core.Config{Transport: net.Endpoint("Z"), Build: LeanStack})
	if err != nil {
		sh.Close()
		return nil, err
	}
	sh.client2 = client2
	zc, err := client2.Dial(core.PeerSpec{
		Addr: "S", LocalID: []byte("stranger"), RemoteID: []byte("server"),
		LocalPort: 3000, RemotePort: 2000, Epoch: 1,
	})
	if err != nil {
		sh.Close()
		return nil, err
	}
	if err := zc.Send([]byte("let me in")); err != nil {
		sh.Close()
		return nil, err
	}
	sh.shedFrame = tap.takeLast()
	if len(sh.cookieFrame) == 0 || len(sh.shedFrame) == 0 || sh.h.fn == nil {
		sh.Close()
		return nil, fmt.Errorf("experiments: shed harness captured no frames")
	}
	if n := server.Snapshot().Conns; n != 1 {
		sh.Close()
		return nil, fmt.Errorf("experiments: shed harness holds %d conns, want 1", n)
	}
	return sh, nil
}

// Deliver replays the admitted connection's cookie-only frame.
func (sh *ShedHarness) Deliver() { sh.h.fn("C", sh.cookieFrame) }

// Shed replays the stranger's first message into the admission path;
// the endpoint is at capacity, so every call is a counted refusal.
func (sh *ShedHarness) Shed() { sh.h.fn("Z", sh.shedFrame) }

// Close tears the harness down.
func (sh *ShedHarness) Close() {
	if sh.client2 != nil {
		sh.client2.Close()
	}
	if sh.client != nil {
		sh.client.Close()
	}
	if sh.Server != nil {
		sh.Server.Close()
	}
}

// churnUDP replays the storm shape over real loopback sockets.
func churnUDP(clients int, seed int64) (*ChurnUDPResult, error) {
	const maxConns = 32
	res := &ChurnUDPResult{Clients: clients}
	tr, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	server, err := core.NewEndpoint(core.Config{
		Transport: tr,
		MaxConns:  maxConns,
		Admission: core.AdmissionConfig{StormRate: 1 << 20, Seed: uint64(seed)},
		Accept:    churnAccept,
		OnConn:    func(c *core.Conn) { c.OnDeliver(func([]byte) {}) },
	})
	if err != nil {
		return nil, err
	}
	defer server.Close()
	addr := tr.LocalAddr()

	before := server.Snapshot()
	for i := 0; i < clients; i++ {
		ct, err := udp.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ep, err := core.NewEndpoint(core.Config{Transport: ct, Build: LeanStack})
		if err != nil {
			ct.Close()
			return nil, err
		}
		conn, err := ep.Dial(core.PeerSpec{
			Addr: addr, LocalID: []byte(fmt.Sprintf("u%d", i)), RemoteID: []byte("srv"),
			LocalPort: uint16(i%65000 + 1), RemotePort: 9, Epoch: uint32(i / 65000),
		})
		if err == nil {
			conn.Send([]byte("redial"))
		}
		ep.Close()
	}
	// UDP delivery is asynchronous; wait for the arrivals to settle.
	deadline := time.Now().Add(5 * time.Second)
	var after core.EndpointStats
	for {
		after = server.Snapshot()
		arrived := (after.Accepted - before.Accepted) + (after.ShedTotal - before.ShedTotal)
		if arrived >= uint64(clients) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	res.Admitted = after.Accepted - before.Accepted
	res.Shed = after.ShedTotal - before.ShedTotal
	res.Arrived = res.Admitted + res.Shed
	// Loopback can drop under pressure, so arrived ≤ offered; the
	// accounting claim is server-side: nothing that arrived vanished.
	res.Accounted = res.Arrived > 0 && res.Admitted <= maxConns
	if !res.Accounted {
		return nil, fmt.Errorf("churn/udp: admitted %d (cap %d), arrived %d",
			res.Admitted, maxConns, res.Arrived)
	}
	return res, nil
}

// ChurnReport formats the result for the pabench console output.
func ChurnReport(r *ChurnResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet-reboot churn (%s/%s%s)\n", r.GOOS, r.GOARCH,
		map[bool]string{true: ", quick", false: ""}[r.Quick])
	fmt.Fprintf(&b, "  routing-table load + incremental GC drain:\n")
	fmt.Fprintf(&b, "  %9s %8s %8s %10s %10s %9s %10s %8s\n",
		"entries", "B/entry", "fill ns", "deliver ns", "gc sweeps", "max slots", "max pause", "drained")
	for _, pt := range r.Load {
		fmt.Fprintf(&b, "  %9d %8.1f %8.0f %10.1f %10d %9d %8.0fµs %8v\n",
			pt.Entries, pt.BytesPerEntry, pt.FillNsPerBind, pt.DeliverNsLoaded,
			pt.GCSweeps, pt.GCMaxSweepSlots, pt.GCMaxPauseUs, pt.DrainedClean)
	}
	if s := r.Storm; s != nil {
		fmt.Fprintf(&b, "  redial storm (netsim, seed %d): %d attempts at cap %d\n",
			s.Seed, s.Attempts, s.MaxConns)
		fmt.Fprintf(&b, "    admitted %d + shed %d (full %d, storm %d) = offered: %v; storms %d, exited %v\n",
			s.Admitted, s.Shed, s.ShedFull, s.ShedStorm, s.AccountedLossless,
			s.StormsDetected, s.StormExited)
		fmt.Fprintf(&b, "    victim through the storm: sent %d, delivered %d (zero loss: %v)\n",
			s.VictimSent, s.VictimDelivered, s.VictimSent == s.VictimDelivered)
		fmt.Fprintf(&b, "    identified fast path: %.1f ns quiescent, %.1f ns mid-shed; shed %.1f ns, %.3f allocs\n",
			s.DeliverNsQuiescent, s.DeliverNsStorm, s.ShedNsOp, s.ShedAllocsOp)
	}
	if u := r.UDP; u != nil {
		fmt.Fprintf(&b, "  redial storm (real UDP loopback): %d clients, %d arrived, admitted %d + shed %d, accounted %v\n",
			u.Clients, u.Arrived, u.Admitted, u.Shed, u.Accounted)
	}
	return b.String()
}
