package core_test

import (
	"testing"
	"time"

	"paccel/internal/core"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

// TestChurnLoadSmall fills one endpoint's routing table with 8000
// learned routes through the public API, at the default GC budget, and
// drains it on the virtual clock: the table must stay compact while
// loaded and empty out completely once the routes go idle.
func TestChurnLoadSmall(t *testing.T) {
	const ttl = time.Minute
	const entries = 8000
	const anchors = 16
	// The engine's default incremental-sweep budget, in slots.
	const sweepBudget = 4096
	clk := vclock.NewManual(time.Unix(0, 0))
	net := netsim.New(clk, netsim.Config{})
	server, err := core.NewEndpoint(core.Config{
		Transport: net.Endpoint("S"),
		Clock:     clk,
		CookieTTL: ttl,
		MaxConns:  entries + anchors,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	per := entries / anchors
	for i := 0; i < anchors; i++ {
		anchor, err := server.Dial(core.PeerSpec{
			Addr: "X", LocalID: []byte("s"), RemoteID: []byte("x"),
			LocalPort: uint16(i + 1), RemotePort: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := server.BindBenchCookies(anchor, uint64(1+i*per)<<16, per, true); got != per {
			t.Fatalf("anchor %d bound %d of %d routes", i, got, per)
		}
	}

	loaded := server.Snapshot()
	if loaded.TableEntries != entries {
		t.Fatalf("loaded table holds %d entries, want %d", loaded.TableEntries, entries)
	}
	if bpe := loaded.TableBytesPerEntry; bpe <= 0 || bpe > 512 {
		t.Fatalf("implausible bytes/entry %.1f", bpe)
	}

	// Three TTLs fire every paced sweep; no synthetic route is ever
	// refreshed, so all of them must be gone, in bounded bites.
	clk.Advance(3 * ttl)
	s := server.Snapshot()
	if s.GCMaxSweepSlots > sweepBudget {
		t.Fatalf("GC sweep examined %d slots, budget %d", s.GCMaxSweepSlots, sweepBudget)
	}
	if s.CookiesEvicted != entries || s.TableEntries != 0 {
		t.Fatalf("GC did not drain the table: evicted %d of %d, %d entries left",
			s.CookiesEvicted, entries, s.TableEntries)
	}
}
