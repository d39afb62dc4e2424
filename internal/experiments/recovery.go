// Recovery chaos experiment: deterministic failover schedules against
// the self-healing machinery (recovery.go in internal/core). Each
// scenario kills the path mid-stream — a partition that heals, a NAT
// rebind that moves the peer's address, an endpoint restart, a
// permanent outage — and checks the connection's contract: exactly-once
// in-order delivery across the failover, route migration without a new
// Dial, and a typed ErrRecoveryExhausted failure when the retry budget
// runs out.
package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/faultinject"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

// RecoveryStack is the chaos stack plus a jittered heartbeat: dead-peer
// detection with automatic recovery needs a liveness source, or an idle
// healed connection would legitimately trip ErrPeerSilent again.
func RecoveryStack(rto time.Duration) core.StackBuilder {
	return recoveryStack(rto, layers.DefaultFragThreshold)
}

// recoveryStack is RecoveryStack with the given fragmentation threshold,
// which is also the largest payload the engine packs into one frame.
func recoveryStack(rto time.Duration, fragThreshold int) core.StackBuilder {
	return func(spec core.PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
		w := layers.NewWindow()
		w.RetransTimeout = rto
		w.Naks = true
		return []stack.Layer{
			layers.NewChksum(),
			&layers.Frag{Threshold: fragThreshold},
			w,
			&layers.Heartbeat{
				Interval: 100 * time.Millisecond,
				Jitter:   25 * time.Millisecond,
				Seed:     int64(spec.LocalPort), // deterministic, distinct per side
			},
			&layers.Ident{
				Local: spec.LocalID, Remote: spec.RemoteID,
				LocalPort: spec.LocalPort, RemotePort: spec.RemotePort,
				Epoch: spec.Epoch, Order: order,
			},
		}, nil
	}
}

// RecoveryPoint is one scenario's outcome, one JSON row of the BENCH_3
// baseline.
type RecoveryPoint struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	Messages    int  `json:"messages"`
	Delivered   int  `json:"delivered"`
	ExactlyOnce bool `json:"exactly_once_in_order"`

	Recoveries        uint64 `json:"recoveries"`      // times either side entered Recovering
	Recovered         uint64 `json:"recovered"`       // recoveries completed
	Probes            uint64 `json:"recovery_probes"` // resume probes sent
	Migrations        uint64 `json:"peer_migrations"` // route rewrites (both sides)
	Resumes           uint64 `json:"window_resumes"`  // window resumption rounds
	Replays           uint64 `json:"resume_replays"`  // unacked frames replayed
	UnackedAtFailover int    `json:"unacked_at_failover"`

	VirtualMillis  float64 `json:"virtual_ms"`
	RecoveryMillis float64 `json:"recovery_ms"` // failover → fully delivered

	RemoteAddrAfter string `json:"remote_addr_after"` // observer's route post-failover
	FailedCleanly   bool   `json:"failed_cleanly"`    // exhausted budget: typed failure
	FailureCause    string `json:"failure_cause,omitempty"`
}

// RecoveryResult is the recovery experiment's machine-readable output.
type RecoveryResult struct {
	Seed   int64           `json:"seed"`
	Quick  bool            `json:"quick"`
	Points []RecoveryPoint `json:"points"`
}

// recoveryScenario describes one deterministic failover schedule.
type recoveryScenario struct {
	name    string
	flip    string // endpoint whose socket moves to <name>2 at failover ("" = none)
	heal    bool   // heal the partition after healAfter
	exhaust bool   // permanent outage + small budget: expect typed failure

	// expectRecovery: the redial engine is the expected heal path. False
	// for a sender-side flip, where the first identified retransmission
	// from the new address migrates the peer's route within one RTO —
	// before dead-peer detection can trip. Recovery probes are only
	// needed when the silent side is the one that moved.
	expectRecovery bool
}

const (
	recoveryRTO       = 20 * time.Millisecond
	recoveryTimeout   = 500 * time.Millisecond
	recoveryHealAfter = 8 * time.Second
)

func recoveryConfig(exhaust bool, seed int64) core.RecoveryConfig {
	cfg := core.RecoveryConfig{
		MaxAttempts: 60,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    time.Second,
		Seed:        seed,
	}
	if exhaust {
		cfg.MaxAttempts = 5
	}
	return cfg
}

func findWindow(c *core.Conn) *layers.Window {
	for _, l := range c.Layers() {
		if w, ok := l.(*layers.Window); ok {
			return w
		}
	}
	return nil
}

// runRecoveryScenario streams n sequence-stamped messages A→B, forces
// the scenario's failover halfway through, and measures what the
// self-healing machinery does about it.
func runRecoveryScenario(sc recoveryScenario, n int, seed int64) (RecoveryPoint, error) {
	pt := RecoveryPoint{Scenario: sc.name, Seed: seed, Messages: n}
	clk := vclock.NewManual(time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC))
	net := netsim.New(clk, netsim.Config{Latency: time.Millisecond, Seed: seed})

	var trA core.Transport = net.Endpoint("A")
	var trB core.Transport = net.Endpoint("B")
	var fi *faultinject.Transport
	switch sc.flip {
	case "A":
		fi = faultinject.New(trA, clk, seed)
		trA = fi
	case "B":
		fi = faultinject.New(trB, clk, seed)
		trB = fi
	}

	var failCause error
	cfgA := core.Config{
		Transport: trA, Clock: clk, Build: RecoveryStack(recoveryRTO),
		PeerTimeout: recoveryTimeout,
		Recovery:    recoveryConfig(sc.exhaust, seed),
		OnConnFail:  func(_ *core.Conn, err error) { failCause = err },
	}
	cfgB := core.Config{
		Transport: trB, Clock: clk, Build: RecoveryStack(recoveryRTO),
		PeerTimeout: recoveryTimeout,
		Recovery:    recoveryConfig(sc.exhaust, seed),
	}
	epA, err := core.NewEndpoint(cfgA)
	if err != nil {
		return pt, err
	}
	defer epA.Close()
	epB, err := core.NewEndpoint(cfgB)
	if err != nil {
		return pt, err
	}
	defer epB.Close()
	a, err := epA.Dial(core.PeerSpec{
		Addr: "B", LocalID: []byte("heal-a"), RemoteID: []byte("heal-b"),
		LocalPort: 1, RemotePort: 2, Epoch: 1,
	})
	if err != nil {
		return pt, err
	}
	b, err := epB.Dial(core.PeerSpec{
		Addr: "A", LocalID: []byte("heal-b"), RemoteID: []byte("heal-a"),
		LocalPort: 2, RemotePort: 1, Epoch: 1,
	})
	if err != nil {
		return pt, err
	}

	pt.ExactlyOnce = true
	next := uint32(0)
	b.OnDeliver(func(p []byte) {
		if len(p) < 4 || binary.BigEndian.Uint32(p) != next {
			pt.ExactlyOnce = false
			return
		}
		next++
	})

	const step = 5 * time.Millisecond
	budget := 4 * time.Minute
	start := clk.Now()
	payload := make([]byte, 32)
	sent := 0
	send := func(limit int) error {
		for sent < limit {
			binary.BigEndian.PutUint32(payload, uint32(sent))
			err := a.Send(payload)
			if errors.Is(err, core.ErrBackpressure) || errors.Is(err, core.ErrConnFailed) {
				return nil
			}
			if err != nil {
				return err
			}
			sent++
		}
		return nil
	}

	// Phase 1 — establish: deliver the first quarter and idle past the
	// identification handshake, so steady-state traffic is cookie-only.
	// (An unconfirmed identification would still ride on every message
	// and hand the flip scenarios a free migration before supervision
	// ever trips — the failover must hit an established session.)
	if err := send(n / 4); err != nil {
		return pt, err
	}
	for int(next) < n/4 || clk.Now().Sub(start) < 2*time.Second {
		if a.State() == core.StateFailed {
			return pt, fmt.Errorf("recovery %s: failed during warmup: %w", sc.name, a.Err())
		}
		clk.Advance(step)
	}

	// Phase 2 — the failover: fill the pipe, then kill the established
	// path under it. For the flip scenarios the affected socket
	// simultaneously reappears on a new address, the NAT-rebind /
	// restart shape.
	if err := send(n); err != nil {
		return pt, err
	}
	net.SetLinkDown("A", "B", true)
	net.SetLinkDown("B", "A", true)
	if fi != nil {
		fi.SwapInner(net.Endpoint(sc.flip + "2"))
	}
	if w := findWindow(a); w != nil {
		pt.UnackedAtFailover = w.Outstanding()
	}
	failoverAt := clk.Now()

	// Phase 3 — drive to completion (or to the typed failure).
	healed := false
	for clk.Now().Sub(start) < budget {
		if a.State() == core.StateFailed {
			if sc.exhaust {
				break // expected; recorded below
			}
			return pt, fmt.Errorf("recovery %s: connection failed: %w", sc.name, a.Err())
		}
		if err := send(n); err != nil {
			return pt, err
		}
		if sc.heal && !healed && clk.Now().Sub(failoverAt) > recoveryHealAfter {
			net.SetLinkDown("A", "B", false)
			net.SetLinkDown("B", "A", false)
			healed = true
		}
		if sent == n && int(next) == n &&
			a.State() == core.StateActive && b.State() == core.StateActive {
			break
		}
		clk.Advance(step)
	}

	elapsed := clk.Now().Sub(start)
	pt.Delivered = int(next)
	pt.VirtualMillis = float64(elapsed) / float64(time.Millisecond)
	if !sc.exhaust {
		pt.RecoveryMillis = float64(clk.Now().Sub(failoverAt)) / float64(time.Millisecond)
	}
	stA, stB := a.Stats(), b.Stats()
	pt.Recoveries = stA.Recoveries + stB.Recoveries
	pt.Recovered = stA.Recovered + stB.Recovered
	pt.Probes = stA.RecoveryProbes + stB.RecoveryProbes
	pt.Migrations = stA.PeerMigrations + stB.PeerMigrations
	if w := findWindow(a); w != nil {
		pt.Resumes = w.Stats.Resumes
		pt.Replays = w.Stats.ResumeReplays
	}
	// The observer is the side that watched its peer move: A for a B
	// flip, B for an A flip, A otherwise.
	switch sc.flip {
	case "A":
		pt.RemoteAddrAfter = b.RemoteAddr()
	default:
		pt.RemoteAddrAfter = a.RemoteAddr()
	}

	if sc.exhaust {
		// The outage never ends: success is a clean, typed failure after
		// exactly the configured budget, with every sentinel matchable.
		pt.FailedCleanly = a.State() == core.StateFailed &&
			errors.Is(failCause, core.ErrRecoveryExhausted) &&
			errors.Is(failCause, core.ErrConnFailed) &&
			errors.Is(failCause, core.ErrPeerSilent) &&
			errors.Is(a.Send(payload), core.ErrRecoveryExhausted)
		if failCause != nil {
			pt.FailureCause = failCause.Error()
		}
		return pt, nil
	}
	if pt.Delivered != n {
		return pt, fmt.Errorf("recovery %s: delivered %d/%d in %v virtual",
			sc.name, pt.Delivered, n, elapsed)
	}
	if !pt.ExactlyOnce {
		return pt, fmt.Errorf("recovery %s: delivery violated exactly-once in-order", sc.name)
	}
	if sc.expectRecovery && pt.Recovered == 0 {
		return pt, fmt.Errorf("recovery %s: no recovery ever completed", sc.name)
	}
	if sc.flip != "" && pt.Migrations == 0 {
		return pt, fmt.Errorf("recovery %s: the route never migrated", sc.name)
	}
	return pt, nil
}

// RecoveryScenarios is the fixed failover schedule, in run order.
func RecoveryScenarios() []recoveryScenario {
	return []recoveryScenario{
		{name: "kill-and-heal", heal: true, expectRecovery: true},
		{name: "addr-flip", flip: "B", expectRecovery: true},
		{name: "endpoint-restart", flip: "A"},
		{name: "retry-exhausted", exhaust: true},
	}
}

// Recovery runs the failover schedule with the given seed (0 means 1996).
func Recovery(quick bool, seed int64) (*RecoveryResult, error) {
	if seed == 0 {
		seed = 1996
	}
	n := 400
	if quick {
		n = 120
	}
	res := &RecoveryResult{Seed: seed, Quick: quick}
	for _, sc := range RecoveryScenarios() {
		pt, err := runRecoveryScenario(sc, n, seed)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
