package experiments

import (
	"bytes"
	"io"
	"os"
	"strconv"
	"testing"
	"time"

	"paccel/internal/core"
	"paccel/internal/netsim/topo"
)

func TestTopoDeterministicUnderSeed(t *testing.T) {
	run := func() (string, []byte) {
		var trace bytes.Buffer
		r, err := Topo(true, 7, func(sc string) io.Writer {
			if sc == "nat-rebind" {
				return &trace
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := jsonRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		return out, trace.Bytes()
	}
	aJSON, aTrace := run()
	bJSON, bTrace := run()
	if aJSON != bJSON {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", aJSON, bJSON)
	}
	if !bytes.Equal(aTrace, bTrace) {
		t.Fatal("same seed produced different pcap traces")
	}
}

func TestTopoSchedule(t *testing.T) {
	var trace bytes.Buffer
	r, err := Topo(true, 0, func(sc string) io.Writer {
		if sc == "nat-rebind" {
			return &trace
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	logRecord(t, r)
	if len(r.Points) != 3 {
		t.Fatalf("%d points", len(r.Points))
	}
	for _, p := range r.Points {
		if !p.ExactlyOnce || p.Delivered != p.Messages {
			t.Fatalf("%s: %d/%d exactlyOnce=%v", p.Scenario, p.Delivered, p.Messages, p.ExactlyOnce)
		}
		// Zero silent loss: the network's ledger balances — everything
		// sent was delivered or accounted to a named loss class.
		lost := p.QueueDrops + p.LossDrops + p.LinkDrops + p.NATDrops
		if p.NetSent < p.NetDelivered+lost {
			t.Fatalf("%s: ledger unbalanced: sent=%d delivered=%d lost=%d",
				p.Scenario, p.NetSent, p.NetDelivered, lost)
		}
		switch p.Scenario {
		case "nat-rebind":
			if p.NATRebinds == 0 || p.Migrations == 0 {
				t.Fatalf("nat-rebind: rebinds=%d migrations=%d", p.NATRebinds, p.Migrations)
			}
			if p.ExtBefore == "" || p.ExtBefore == p.ExtAfter {
				t.Fatalf("nat-rebind: ext %q -> %q", p.ExtBefore, p.ExtAfter)
			}
		case "partition-heal":
			if p.Recovered == 0 || p.LinkDrops == 0 {
				t.Fatalf("partition-heal: recovered=%d linkDrops=%d", p.Recovered, p.LinkDrops)
			}
		case "bufferbloat":
			if p.QueueDrops == 0 && p.MaxQueueDepth < 8 {
				t.Fatalf("bufferbloat: no queue pressure (depth %d, drops %d)",
					p.MaxQueueDepth, p.QueueDrops)
			}
			if p.Backpressured == 0 {
				t.Fatalf("bufferbloat: overload never surfaced as typed backpressure")
			}
		}
	}

	// The nat-rebind trace round-trips through the in-repo reader.
	tf, err := topo.ReadPCAP(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tf.Frames)) != r.Points[0].PCAPFrames {
		t.Fatalf("trace has %d frames, point recorded %d", len(tf.Frames), r.Points[0].PCAPFrames)
	}
	prev := time.Time{}
	for i, f := range tf.Frames {
		if f.Time.Before(prev) {
			t.Fatalf("frame %d: timestamps not monotone", i)
		}
		prev = f.Time
	}
}

// TestTopoNATRebindChaos is the -race chaos entry for the topo layer:
// the full engine across a NAT'd lossy multi-hop path with a mid-stream
// rebind, on the wall clock's schedule for goroutine interleaving but
// the virtual clock for network time. The seed comes from
// PACCEL_CHAOS_SEED so CI runs are reproducible.
func TestTopoNATRebindChaos(t *testing.T) {
	seed := int64(1996)
	if s := os.Getenv("PACCEL_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PACCEL_CHAOS_SEED: %v", err)
		}
		seed = v
	}
	pt, err := runTopoScenario(topoScenario{name: "nat-rebind", run: natRebindSchedule}, 200, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.ExactlyOnce || pt.NATRebinds == 0 || pt.Migrations == 0 {
		t.Fatalf("chaos point: %+v", pt)
	}
}

// A topo.Host behind the harness must still satisfy the engine's
// transport contracts when driven through experiments code.
var _ core.BatchTransport = (*topo.Host)(nil)
