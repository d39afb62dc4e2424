package evsim

import (
	"strings"
	"testing"
	"time"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestSimEventOrder(t *testing.T) {
	var s Sim
	var order []int
	s.At(us(30), func() { order = append(order, 3) })
	s.At(us(10), func() { order = append(order, 1) })
	s.At(us(20), func() {
		order = append(order, 2)
		s.At(us(25), func() { order = append(order, 4) }) // past: runs at now
	})
	s.Run()
	if len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 4 || order[3] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestCPUCriticalSerialization(t *testing.T) {
	c := &CPU{}
	end1 := c.Exec(0, us(10))
	end2 := c.Exec(us(5), us(10)) // arrives while busy
	if end1 != us(10) || end2 != us(20) {
		t.Fatalf("ends = %v, %v", end1, end2)
	}
}

func TestCPULazyRunsInGaps(t *testing.T) {
	c := &CPU{}
	c.Exec(0, us(10))
	l := c.AddLazy(us(10), us(30), "bg")
	// Gap [10, 50): lazy finishes at 40.
	c.Exec(us(50), us(5))
	if !l.Done() || l.DoneAt() != us(40) {
		t.Fatalf("lazy done=%v at %v", l.Done(), l.DoneAt())
	}
}

func TestCPUDependencyForcesLazy(t *testing.T) {
	c := &CPU{}
	c.Exec(0, us(10))
	l := c.AddLazy(us(10), us(30), "bg")
	// No gap: critical at 10 depending on l forces it first.
	end := c.Exec(us(10), us(5), l)
	if !l.Done() || l.DoneAt() != us(40) {
		t.Fatalf("lazy at %v", l.DoneAt())
	}
	if end != us(45) {
		t.Fatalf("end = %v", end)
	}
}

func TestCPUPartialLazyProgress(t *testing.T) {
	c := &CPU{}
	l := c.AddLazy(0, us(100), "bg")
	// Gap [0, 30): 70 remains; forcing at 30 costs 70 more.
	end := c.Exec(us(30), us(10), l)
	if l.DoneAt() != us(100) || end != us(110) {
		t.Fatalf("lazy at %v, end %v", l.DoneAt(), end)
	}
}

func TestCPUFlush(t *testing.T) {
	c := &CPU{}
	a := c.AddLazy(0, us(10), "a")
	b := c.AddLazy(0, us(20), "b")
	// Lazy work progressed in idle time from t=0, so a finished at 10
	// before the flush; b completes at 30.
	idle := c.Flush(us(5))
	if idle != us(30) || a.DoneAt() != us(10) || b.DoneAt() != us(30) {
		t.Fatalf("idle=%v a=%v b=%v", idle, a.DoneAt(), b.DoneAt())
	}
	if c.Backlog() != 0 {
		t.Fatal("backlog after flush")
	}
}

func TestZeroLazyIsDoneImmediately(t *testing.T) {
	c := &CPU{}
	l := c.AddLazy(us(7), 0, "nil")
	if !l.Done() || l.DoneAt() != us(7) {
		t.Fatal("zero lazy not immediate")
	}
	var nilLazy *Lazy
	if !nilLazy.Done() {
		t.Fatal("nil lazy not done")
	}
}

// --- Paper reproduction bands. These are the assertions that the DES
// regenerates the published numbers' shape. ---

func TestFig4Timeline(t *testing.T) {
	tl, res := FirstRoundTripTimeline(PaperCosts())
	// Paper: ~170 µs round trip (ours includes ~3 µs/way of cell
	// serialization the paper's figure omits).
	if res.FirstRTT < us(165) || res.FirstRTT > us(185) {
		t.Fatalf("first RTT = %v, want ≈170–176 µs", res.FirstRTT)
	}
	if res.OneWay.mean() < us(80) || res.OneWay.mean() > us(95) {
		t.Fatalf("one-way = %v, want ≈85 µs", res.OneWay.mean())
	}
	// The GC completes roughly 400–700 µs in (paper's Figure 4 shows
	// ~550–600 µs).
	if res.PostDone < us(400) || res.PostDone > us(750) {
		t.Fatalf("post+GC done at %v", res.PostDone)
	}
	out := tl.render("server", "client")
	for _, label := range []string{"SEND()", "DELIVER()", "POSTSEND DONE", "POSTDELIVER DONE", "GARBAGE COLLECTED"} {
		if !strings.Contains(out, label) {
			t.Fatalf("timeline missing %q:\n%s", label, out)
		}
	}
}

func TestTable4Bands(t *testing.T) {
	t4 := ComputeTable4(PaperCosts())
	if t4.OneWayLatency < us(80) || t4.OneWayLatency > us(95) {
		t.Fatalf("one-way = %v (paper: 85 µs)", t4.OneWayLatency)
	}
	if t4.MsgsPerSec < 70000 || t4.MsgsPerSec > 95000 {
		t.Fatalf("throughput = %.0f (paper: 80,000 msgs/s)", t4.MsgsPerSec)
	}
	if t4.RoundTripsSec < 4500 || t4.RoundTripsSec > 7000 {
		t.Fatalf("rt/s = %.0f (paper: ~6000)", t4.RoundTripsSec)
	}
	if t4.BandwidthMBs < 13 || t4.BandwidthMBs > 17 {
		t.Fatalf("bandwidth = %.1f (paper: ~15 MB/s)", t4.BandwidthMBs)
	}
}

func TestFig5SaturationWithGC(t *testing.T) {
	cm := PaperCosts()
	rate, lat := MaxRoundTripRate(cm, 3000)
	// Paper: ~1900 rt/s cap, average latency ~400 µs (worst ~550).
	if rate < 1600 || rate > 2400 {
		t.Fatalf("GC-every cap = %.0f rt/s (paper: ~1900)", rate)
	}
	if lat < us(350) || lat > us(650) {
		t.Fatalf("saturated latency = %v (paper: ~400–550 µs)", lat)
	}
}

func TestFig5FlatRegion(t *testing.T) {
	cm := PaperCosts()
	// Below 1650 rt/s the 170 µs latency is maintained (paper §5).
	for _, rate := range []float64{200, 800, 1650} {
		res := RoundTrips(RTConfig{Model: cm, N: 1500, Rate: rate})
		if res.Latency.mean() > us(200) {
			t.Fatalf("rate %.0f: latency = %v, want flat ≈176 µs",
				rate, res.Latency.mean())
		}
	}
}

func TestFig5OccasionalGCReachesHigherRates(t *testing.T) {
	cm := PaperCosts()
	cm.GCEveryReceive = false
	res := RoundTrips(RTConfig{Model: cm, N: 2000, Rate: 5000})
	if res.Latency.mean() > us(250) {
		t.Fatalf("occasional-GC at 5000 rt/s: latency = %v", res.Latency.mean())
	}
	rate, _ := MaxRoundTripRate(cm, 3000)
	if rate < 4500 {
		t.Fatalf("occasional-GC cap = %.0f (paper: ~6000)", rate)
	}
	// And it must beat the GC-every configuration decisively.
	gcRate, _ := MaxRoundTripRate(PaperCosts(), 3000)
	if rate < 2*gcRate {
		t.Fatalf("occasional %.0f not >> gc-every %.0f", rate, gcRate)
	}
}

func TestLayerDoublingAddsPostCost(t *testing.T) {
	// §5: stacking the window layer twice adds ~15 µs to post-send and
	// ~15 µs to post-deliver, with no change to the critical path.
	base := PaperCosts()
	doubled := PaperCosts()
	doubled.ExtraLayers = 1
	tlB, rB := FirstRoundTripTimeline(base)
	tlD, rD := FirstRoundTripTimeline(doubled)
	_ = tlB
	_ = tlD
	if rB.FirstRTT != rD.FirstRTT {
		t.Fatalf("doubling changed the critical path: %v vs %v", rB.FirstRTT, rD.FirstRTT)
	}
	if got := doubled.postSend() - base.postSend(); got != us(15) {
		t.Fatalf("post-send delta = %v", got)
	}
	if got := doubled.postDeliver() - base.postDeliver(); got != us(15) {
		t.Fatalf("post-deliver delta = %v", got)
	}
	// At saturation, the extra post work lowers the achievable rate.
	rateB, _ := MaxRoundTripRate(base, 2000)
	rateD, _ := MaxRoundTripRate(doubled, 2000)
	if rateD >= rateB {
		t.Fatalf("doubled-stack rate %.0f >= base %.0f", rateD, rateB)
	}
}

func TestUnacceleratedModel(t *testing.T) {
	um := PaperUnaccelerated()
	rtt := um.RoundTrip(8)
	// Paper: ~1.5 ms for the original C Horus.
	if rtt < 1300*time.Microsecond || rtt > 1700*time.Microsecond {
		t.Fatalf("unaccelerated RTT = %v (paper: ~1.5 ms)", rtt)
	}
	// The PA's improvement is roughly an order of magnitude (§1).
	_, acc := FirstRoundTripTimeline(PaperCosts())
	ratio := float64(rtt) / float64(acc.FirstRTT)
	if ratio < 6 || ratio > 12 {
		t.Fatalf("PA speedup = %.1fx (paper: ≈8.8x)", ratio)
	}
}

func TestStreamBottlenecks(t *testing.T) {
	cm := PaperCosts()
	small := Stream(cm, 8)
	if small.Bottleneck != "receiver" {
		t.Fatalf("8-byte stream bottleneck = %s", small.Bottleneck)
	}
	big := Stream(cm, 1024)
	if big.Bottleneck != "network" {
		t.Fatalf("1 KB stream bottleneck = %s", big.Bottleneck)
	}
	// ATM cell tax: payload bandwidth is below the raw 17.5 MB/s link.
	if big.BytesPerSec/1e6 >= 17.0 {
		t.Fatalf("bandwidth %.1f ignores the cell tax", big.BytesPerSec/1e6)
	}
}

func TestWireCellRounding(t *testing.T) {
	cm := PaperCosts()
	// 8-byte payload + 22 header = 30 bytes -> 1 cell -> 53 bytes.
	want := time.Duration(float64(53*8) / cm.BitRate * float64(time.Second))
	if got := cm.wire(8); got != want {
		t.Fatalf("wire(8) = %v, want %v", got, want)
	}
	// 40-byte payload + 22 = 62 -> 2 cells.
	want2 := time.Duration(float64(2*53*8) / cm.BitRate * float64(time.Second))
	if got := cm.wire(40); got != want2 {
		t.Fatalf("wire(40) = %v, want %v", got, want2)
	}
}

func TestGCDrawBounds(t *testing.T) {
	cm := PaperCosts()
	res := RoundTrips(RTConfig{Model: cm, N: 500})
	// Worst-case saturated latency must stay within preSend+... + GCMax
	// bounds; this is a sanity check that GC draws respect [min,max).
	if res.Latency.max() > 2*time.Millisecond {
		t.Fatalf("max latency = %v", res.Latency.max())
	}
	cmNo := cm
	cmNo.GCEveryReceive = false
	if cmNo.gc(nil) != 0 {
		t.Fatal("occasional GC should draw zero")
	}
}

func TestOpenLoopIdleIsPaperLatency(t *testing.T) {
	res := RoundTrips(RTConfig{Model: PaperCosts(), N: 100, Rate: 100})
	if res.Latency.mean() != res.FirstRTT {
		t.Fatalf("idle-rate latency %v != first RTT %v", res.Latency.mean(), res.FirstRTT)
	}
}

func TestOccasionalGCHiccups(t *testing.T) {
	// §5: "the garbage collection does lead to occasional hiccups which
	// last about a millisecond." Occasional-GC mode with a periodic
	// millisecond collection: the typical round trip stays at ~176 µs,
	// but the tail shows the hiccup.
	cm := PaperCosts()
	cm.GCEveryReceive = false
	cm.GCHiccupEvery = 100
	cm.GCHiccup = time.Millisecond
	res := RoundTrips(RTConfig{Model: cm, N: 1000})
	if p50 := res.Latency.percentile(50); p50 > us(250) {
		t.Fatalf("median latency = %v, want ~176 µs", p50)
	}
	if max := res.Latency.max(); max < 900*time.Microsecond {
		t.Fatalf("max latency = %v, want a ~1 ms hiccup", max)
	}
	// Without hiccups configured, occasional GC has no tail.
	cm.GCHiccupEvery = 0
	smooth := RoundTrips(RTConfig{Model: cm, N: 1000})
	if smooth.Latency.max() > us(300) {
		t.Fatalf("hiccup-free max = %v", smooth.Latency.max())
	}
}

func TestStrictDrainCostsThroughput(t *testing.T) {
	// The Go engine's conservative policy — drain the whole previous
	// post phase before the next same-direction op — trades round-trip
	// rate for simplicity. The model quantifies it: strict draining
	// serializes the 80 µs post-send into the send path.
	loose := PaperCosts()
	loose.GCEveryReceive = false
	strict := loose
	strict.StrictDrain = true
	lr, _ := MaxRoundTripRate(loose, 2000)
	sr, _ := MaxRoundTripRate(strict, 2000)
	if sr >= lr {
		t.Fatalf("strict %.0f >= loose %.0f", sr, lr)
	}
	// Strict drain lands near 1/(rtt+postsend) ≈ 3900 rt/s.
	if sr < 3000 || sr > 4500 {
		t.Fatalf("strict rate = %.0f, want ~3900", sr)
	}
	// The unloaded round trip is identical either way.
	_, resL := FirstRoundTripTimeline(loose)
	strictRes := RoundTrips(RTConfig{Model: strict, N: 1, Gap: time.Second})
	if strictRes.FirstRTT != resL.FirstRTT {
		t.Fatalf("idle RTT differs: %v vs %v", strictRes.FirstRTT, resL.FirstRTT)
	}
}

func TestEthernetHidesAllPostProcessing(t *testing.T) {
	// §5: "On slower networks, such as Ethernet, post-processing and
	// garbage collection could be done between round-trips as well."
	// With a ~500 µs one-way latency, the flight windows absorb the
	// entire post+GC budget: back-to-back round trips run at the
	// network-bound rate with no latency inflation, even collecting
	// after every receive.
	cm := PaperCosts()
	cm.NetLatency = 500 * time.Microsecond
	cm.BitRate = 10e6 // 10 Mbit/s Ethernet
	cm.CellSize, cm.CellPayload = 0, 0
	_, idle := FirstRoundTripTimeline(cm)
	res := RoundTrips(RTConfig{Model: cm, N: 2000})
	if res.Latency.mean() > idle.FirstRTT+20*time.Microsecond {
		t.Fatalf("saturated latency %v inflated over idle %v", res.Latency.mean(), idle.FirstRTT)
	}
	wantRate := 1 / idle.FirstRTT.Seconds()
	if res.Achieved < 0.95*wantRate {
		t.Fatalf("achieved %.0f, want ≈%.0f (network-bound)", res.Achieved, wantRate)
	}
	// Contrast: on the ATM testbed the same GC policy saturates far
	// below 1/RTT.
	atm := PaperCosts()
	atmRate, _ := MaxRoundTripRate(atm, 2000)
	_, atmIdle := FirstRoundTripTimeline(atm)
	if atmRate > 0.5/atmIdle.FirstRTT.Seconds() {
		t.Fatalf("ATM rate %.0f should sit well below 1/RTT %.0f", atmRate, 1/atmIdle.FirstRTT.Seconds())
	}
}
