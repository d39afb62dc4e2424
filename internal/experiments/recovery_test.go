package experiments

import (
	"strings"
	"testing"
)

func TestRecoveryDeterministicUnderSeed(t *testing.T) {
	run := func() string {
		r, err := Recovery(true, 7)
		if err != nil {
			t.Fatal(err)
		}
		out, err := jsonRecord(r)
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

func TestRecoverySchedule(t *testing.T) {
	r, err := Recovery(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	logRecord(t, r)
	for _, p := range r.Points {
		switch p.Scenario {
		case "retry-exhausted":
			if !p.FailedCleanly {
				t.Fatalf("%s: expected a clean typed failure, got %+v", p.Scenario, p)
			}
			if !strings.Contains(p.FailureCause, "recovery attempts exhausted") {
				t.Fatalf("%s: cause %q does not name exhaustion", p.Scenario, p.FailureCause)
			}
		default:
			if p.Delivered != p.Messages || !p.ExactlyOnce {
				t.Fatalf("%s: %d/%d delivered, exactlyOnce=%v",
					p.Scenario, p.Delivered, p.Messages, p.ExactlyOnce)
			}
		}
		switch p.Scenario {
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
