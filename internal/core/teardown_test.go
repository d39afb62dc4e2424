package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"paccel/internal/netsim"
	"paccel/internal/udp"
	"paccel/internal/vclock"
)

// Timer-teardown audit: every timer the stack arms — window retransmit,
// delayed ack, heartbeat, dead-peer supervision, cookie GC — must be
// stopped by conn Close and endpoint Close/Shutdown. The Manual clock's
// PendingCount makes a leaked timer a test failure instead of a background
// wakeup that keeps a "closed" endpoint alive.

func TestWindowTimersStoppedOnClose(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	// Black-hole the ack direction: A's retransmit timer stays armed and
	// B's delayed-ack timer arms (its acks vanish, so it keeps re-arming).
	r.net.SetLinkDown("B", "A", true)
	if err := r.a.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := r.clk.PendingCount(); got == 0 {
		t.Fatal("expected armed retransmit/delayed-ack timers")
	}
	r.a.Close()
	r.b.Close()
	if got := r.clk.PendingCount(); got != 0 {
		t.Fatalf("%d timers still armed after conn Close", got)
	}
}

func TestHeartbeatTimerStoppedOnClose(t *testing.T) {
	build := BuildStack(StackOptions{Heartbeat: time.Second})
	r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.Build = build
		cfgB.Build = build
	})
	if got := r.clk.PendingCount(); got == 0 {
		t.Fatal("expected armed heartbeat timers")
	}
	r.a.Close()
	r.b.Close()
	if got := r.clk.PendingCount(); got != 0 {
		t.Fatalf("%d timers still armed after conn Close", got)
	}
}

func TestSupervisionAndGCTimersStoppedOnClose(t *testing.T) {
	for _, mode := range []string{"close", "shutdown"} {
		t.Run(mode, func(t *testing.T) {
			r := newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
				cfgA.PeerTimeout = time.Second // supervision timer on A
				cfgB.CookieTTL = time.Minute   // GC timer on B
			})
			if got := r.clk.PendingCount(); got < 2 {
				t.Fatalf("expected supervision + GC timers armed, have %d", got)
			}
			if mode == "close" {
				r.epA.Close()
				r.epB.Close()
			} else {
				if err := r.epA.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := r.epB.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if got := r.clk.PendingCount(); got != 0 {
				t.Fatalf("%d timers still armed after endpoint %s", got, mode)
			}
		})
	}
}

// settleGoroutines polls until the goroutine count returns to the
// baseline (readLoops need a moment to observe the close).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d > baseline %d\n%s", n, baseline,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNoGoroutineLeakNetsim(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 6; i++ {
		net := netsim.New(vclock.Real{}, netsim.Config{})
		mk := func(addr string) *Endpoint {
			ep, err := NewEndpoint(Config{Transport: net.Endpoint(addr)})
			if err != nil {
				t.Fatal(err)
			}
			return ep
		}
		epA, epB := mk("A"), mk("B")
		sa, sb := specAB()
		a, err := epA.Dial(sa)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := epB.Dial(sb); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if err := a.Send([]byte{byte(j)}); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 0 {
			epA.Close()
			epB.Close()
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			epA.Shutdown(ctx)
			epB.Shutdown(ctx)
			cancel()
		}
	}
	settleGoroutines(t, baseline)
}

func TestNoGoroutineLeakUDP(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		trA, err := udp.Listen("127.0.0.1:0")
		if err != nil {
			t.Skipf("no loopback UDP: %v", err)
		}
		trB, err := udp.Listen("127.0.0.1:0")
		if err != nil {
			trA.Close()
			t.Skipf("no loopback UDP: %v", err)
		}
		epA, err := NewEndpoint(Config{Transport: trA})
		if err != nil {
			t.Fatal(err)
		}
		epB, err := NewEndpoint(Config{Transport: trB})
		if err != nil {
			t.Fatal(err)
		}
		sa, sb := specAB()
		sa.Addr, sb.Addr = trB.LocalAddr(), trA.LocalAddr()
		a, err := epA.Dial(sa)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan struct{}, 8)
		b, err := epB.Dial(sb)
		if err != nil {
			t.Fatal(err)
		}
		b.OnDeliver(func(p []byte) { got <- struct{}{} })
		if err := a.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("udp delivery timed out")
		}
		if i%2 == 0 {
			epA.Close()
			epB.Close()
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			epA.Shutdown(ctx)
			epB.Shutdown(ctx)
			cancel()
		}
	}
	settleGoroutines(t, baseline)
}
