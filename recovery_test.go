// Failover schedules against the self-healing machinery (recovery.go in
// internal/core). Each schedule kills the path mid-stream — a partition
// that heals, a NAT rebind that moves the peer's address, an endpoint
// restart, a permanent outage — and checks the connection's contract:
// exactly-once in-order delivery across the failover, route migration
// without a new Dial, and a typed ErrRecoveryExhausted failure when the
// retry budget runs out.
package paccel_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"paccel/internal/core"
	"paccel/internal/faultinject"
	"paccel/internal/netsim"
)

// RecoveryPoint is one failover schedule's outcome, one row of BENCH_3.
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

// recoverySchedules is the failover schedule, in run order.
var recoverySchedules = []schedule[RecoveryPoint]{
	{"kill-and-heal", failover(outage{heal: true, expectRecovery: true})},
	{"addr-flip", failover(outage{flip: "B", expectRecovery: true})},
	{"endpoint-restart", failover(outage{flip: "A"})},
	{"retry-exhausted", failover(outage{exhaust: true})},
}

// An outage is how a failover schedule kills the path.
type outage struct {
	flip    string // endpoint whose socket moves to <flip>2 at failover ("" = none)
	heal    bool   // heal the partition 8 s after the failover
	exhaust bool   // permanent outage + small budget: expect typed failure

	// expectRecovery: the redial engine is the expected heal path. False
	// for a sender-side flip, where the first identified retransmission
	// from the new address migrates the peer's route within one RTO —
	// before dead-peer detection can trip. Recovery probes are only
	// needed when the silent side is the one that moved.
	expectRecovery bool
}

// failover streams n messages A→B, forces the outage a quarter of the
// way through, and measures what the self-healing machinery does about
// it.
func failover(o outage) func(*testing.T, string, int64, int) RecoveryPoint {
	return func(t *testing.T, name string, seed int64, n int) RecoveryPoint {
		pt := RecoveryPoint{Scenario: name, Seed: seed, Messages: n}
		clk := paperClock()
		net := netsim.New(clk, netsim.Config{Latency: time.Millisecond, Seed: seed})
		var trA core.Transport = net.Endpoint("A")
		var trB core.Transport = net.Endpoint("B")
		var fi *faultinject.Transport
		switch o.flip {
		case "A":
			fi = faultinject.New(trA, clk, seed)
			trA = fi
		case "B":
			fi = faultinject.New(trB, clk, seed)
			trB = fi
		}
		attempts := 60
		if o.exhaust {
			attempts = 5
		}
		build := seededStack(healOptions)
		r := newStream(t, name, clk, seed,
			healConfig(trA, build, seed, attempts), healConfig(trB, build, seed, attempts), "B", "A")
		r.expectFail = o.exhaust
		cut := func(down bool) {
			net.SetLinkDown("A", "B", down)
			net.SetLinkDown("B", "A", down)
		}

		// Phase 1 — establish: deliver the first quarter and idle past
		// the identification handshake, so steady-state traffic is
		// cookie-only. (An unconfirmed identification would still ride
		// on every message and hand the flip schedules a free migration
		// before supervision ever trips — the failover must hit an
		// established session.)
		start := clk.Now()
		r.send(n / 4)
		r.drive(scenarioBudget, func() bool {
			return int(r.next) >= n/4 && clk.Now().Sub(start) >= 2*time.Second
		})

		// Phase 2 — the failover: fill the pipe, then kill the
		// established path under it. For the flip schedules the affected
		// socket simultaneously reappears on a new address, the
		// NAT-rebind / restart shape.
		r.send(n)
		cut(true)
		if fi != nil {
			fi.SwapInner(net.Endpoint(o.flip + "2"))
		}
		pt.UnackedAtFailover = window(r.c).Outstanding()
		failoverAt := clk.Now()

		// Phase 3 — drive to completion (or to the typed failure).
		healed := false
		r.drive(start.Add(scenarioBudget).Sub(clk.Now()), func() bool {
			r.send(n)
			if o.heal && !healed && clk.Now().Sub(failoverAt) > 8*time.Second {
				cut(false)
				healed = true
			}
			return r.sent == n && int(r.next) == n &&
				r.c.State() == core.StateActive && r.s.State() == core.StateActive
		})

		elapsed := clk.Now().Sub(start)
		pt.Delivered, pt.ExactlyOnce = int(r.next), r.ordered
		pt.VirtualMillis = millis(elapsed)
		if !o.exhaust {
			pt.RecoveryMillis = millis(clk.Now().Sub(failoverAt))
		}
		stA, stB := r.c.Stats(), r.s.Stats()
		pt.Recoveries = stA.Recoveries + stB.Recoveries
		pt.Recovered = stA.Recovered + stB.Recovered
		pt.Probes = stA.RecoveryProbes + stB.RecoveryProbes
		pt.Migrations = stA.PeerMigrations + stB.PeerMigrations
		w := window(r.c)
		pt.Resumes, pt.Replays = w.Stats.Resumes, w.Stats.ResumeReplays
		// The observer is the side that watched its peer move: B for an
		// A flip, A otherwise.
		pt.RemoteAddrAfter = r.c.RemoteAddr()
		if o.flip == "A" {
			pt.RemoteAddrAfter = r.s.RemoteAddr()
		}

		if o.exhaust {
			// The outage never ends: success is a clean, typed failure
			// after exactly the configured budget, with every sentinel
			// matchable.
			pt.FailedCleanly = r.c.State() == core.StateFailed &&
				errors.Is(r.cause, core.ErrRecoveryExhausted) &&
				errors.Is(r.cause, core.ErrConnFailed) &&
				errors.Is(r.cause, core.ErrPeerSilent) &&
				errors.Is(r.c.Send(r.payload), core.ErrRecoveryExhausted)
			if r.cause != nil {
				pt.FailureCause = r.cause.Error()
			}
			return pt
		}
		switch {
		case pt.Delivered != n || !pt.ExactlyOnce:
			t.Fatalf("recovery %s: delivered %d/%d in %v virtual, exactly once in order: %v",
				name, pt.Delivered, n, elapsed, pt.ExactlyOnce)
		case o.expectRecovery && pt.Recovered == 0:
			t.Fatalf("recovery %s: no recovery ever completed", name)
		case o.flip != "" && pt.Migrations == 0:
			t.Fatalf("recovery %s: the route never migrated", name)
		}
		return pt
	}
}

func TestRecoverySchedule(t *testing.T) {
	rec := runSchedules(t, recordSeed, true, recoverySchedules)
	t.Logf("\n%s", jsonRecord(t, rec))
	for _, p := range rec.Points {
		switch p.Scenario {
		case "retry-exhausted":
			if !p.FailedCleanly {
				t.Fatalf("%s: expected a clean typed failure, got %+v", p.Scenario, p)
			}
			if !strings.Contains(p.FailureCause, "recovery attempts exhausted") {
				t.Fatalf("%s: cause %q does not name exhaustion", p.Scenario, p.FailureCause)
			}
		case "addr-flip":
			// The silent side moved: only its identified recovery probes
			// can re-route the peer, so recovery must have engaged.
			if p.RemoteAddrAfter != "B2" || p.Migrations == 0 {
				t.Fatalf("addr-flip: route=%q migrations=%d", p.RemoteAddrAfter, p.Migrations)
			}
			if p.Recovered == 0 || p.Probes == 0 {
				t.Fatalf("addr-flip: recovered=%d probes=%d", p.Recovered, p.Probes)
			}
		case "endpoint-restart":
			// The sender moved: its identified retransmissions migrate the
			// peer within one RTO, faster than supervision can trip.
			if p.RemoteAddrAfter != "A2" || p.Migrations == 0 {
				t.Fatalf("endpoint-restart: route=%q migrations=%d", p.RemoteAddrAfter, p.Migrations)
			}
		case "kill-and-heal":
			if p.Recovered == 0 || p.Probes == 0 {
				t.Fatalf("kill-and-heal: recovered=%d probes=%d", p.Recovered, p.Probes)
			}
			if p.RemoteAddrAfter != "B" {
				t.Fatalf("kill-and-heal: route moved to %q", p.RemoteAddrAfter)
			}
			if p.UnackedAtFailover == 0 || p.Replays == 0 {
				t.Fatalf("kill-and-heal: unacked=%d replays=%d — the failover cut nothing",
					p.UnackedAtFailover, p.Replays)
			}
		}
	}
}
