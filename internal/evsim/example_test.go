package evsim

import (
	"fmt"
	"time"
)

// The examples below are the paper's evaluation (§1, §5, §6) regenerated
// on the calibrated model. The model is deterministic, so every printed
// number is checked: a diff in an Output block is a change to the model,
// and EXPERIMENTS.md quotes these blocks.

// micros formats a duration as whole microseconds, the paper's unit.
func micros(d time.Duration) string {
	return fmt.Sprintf("%.0f", float64(d)/float64(time.Microsecond))
}

// Table 4: basic performance of the simulated 1996 testbed.
func ExampleComputeTable4() {
	t4 := ComputeTable4(PaperCosts())
	fmt.Printf("%-28s %15s %15s\n", "what", "paper", "reproduced")
	fmt.Printf("%-28s %15s %15s\n", "one-way latency", "85 µs", micros(t4.OneWayLatency)+" µs")
	fmt.Printf("%-28s %15s %15s\n", "message throughput", "80,000 msgs/s",
		fmt.Sprintf("%.0f msgs/s", t4.MsgsPerSec))
	fmt.Printf("%-28s %15s %15s\n", "#roundtrips/sec", "6000 rt/s",
		fmt.Sprintf("%.0f rt/s", t4.RoundTripsSec))
	fmt.Printf("%-28s %15s %15s\n", "bandwidth (1 Kbyte msgs)", "15 Mbytes/s",
		fmt.Sprintf("%.1f Mbytes/s", t4.BandwidthMBs))
	// Output:
	// what                                   paper      reproduced
	// one-way latency                        85 µs           88 µs
	// message throughput             80,000 msgs/s    80910 msgs/s
	// #roundtrips/sec                    6000 rt/s       5375 rt/s
	// bandwidth (1 Kbyte msgs)         15 Mbytes/s   15.8 Mbytes/s
}

// Figure 4: the breakdown of one round trip (paper: send 25 µs, net
// 35 µs, deliver 25 µs per direction; post-send ~80 µs, post-deliver
// ~50 µs, GC 150–450 µs), then the dashed case, the same exchange pushed
// back to back to its limit (paper: ~1900 rt/s at ~400 µs).
func ExampleFirstRoundTripTimeline() {
	tl, res := FirstRoundTripTimeline(PaperCosts())
	fmt.Print(tl.render("server", "client"))
	fmt.Printf("round trip %s µs; all post-processing and GC done by %s µs\n",
		micros(res.FirstRTT), micros(res.PostDone))
	rate, lat := MaxRoundTripRate(PaperCosts(), 2000)
	fmt.Printf("pushed to its limits: %.0f rt/s, average latency %s µs\n", rate, micros(lat))
	// Output:
	//         µs  server                       client
	//          0                               SEND()
	//         25                               to U-Net
	//         88  DELIVER()
	//         88  SEND()
	//        176                               DELIVER()
	//        193  POSTSEND DONE
	//        243  POSTDELIVER DONE
	//        256                               POSTSEND DONE
	//        306                               POSTDELIVER DONE
	//        570  GARBAGE COLLECTED
	//        685                               GARBAGE COLLECTED
	// round trip 176 µs; all post-processing and GC done by 685 µs
	// pushed to its limits: 2035 rt/s, average latency 491 µs
}

// Figure 5: round-trip latency against round trips per second, with a
// collection after every receive (the paper's solid line: flat at 170 µs
// until ~1650 rt/s, capping near 1900 rt/s around 400 µs) and only
// occasionally (dashed: reaches ~6000 rt/s). A closed loop is paced with
// shrinking idle gaps, then pushed back to back, so each curve ends at
// its saturation point as the paper's lines do.
func ExampleRoundTrips_figure5() {
	gaps := []time.Duration{1800, 1300, 800, 600, 500, 400, 300, 250, 200, 150, 100, 50, 20, 0}
	solid, dashed := PaperCosts(), PaperCosts()
	dashed.GCEveryReceive = false
	fmt.Printf("%12s %16s %12s %16s\n", "rt/s (GC)", "latency µs (GC)", "rt/s (occ)", "latency µs (occ)")
	for _, gap := range gaps {
		s := RoundTrips(RTConfig{Model: solid, N: 2000, Gap: gap * time.Microsecond})
		d := RoundTrips(RTConfig{Model: dashed, N: 2000, Gap: gap * time.Microsecond})
		fmt.Printf("%12.0f %16s %12.0f %16s\n",
			s.Achieved, micros(s.Latency.mean()), d.Achieved, micros(d.Latency.mean()))
	}
	// Output:
	//    rt/s (GC)  latency µs (GC)   rt/s (occ) latency µs (occ)
	//          506              176          506              176
	//          677              176          677              176
	//         1025              176         1025              176
	//         1289              176         1289              176
	//         1479              176         1479              176
	//         1736              176         1736              176
	//         2020              195         2101              176
	//         2035              242         2347              176
	//         2035              291         2659              176
	//         2035              341         3067              176
	//         2035              391         3622              176
	//         2035              441         4424              176
	//         2035              471         5101              176
	//         2035              491         5375              186
}

// §5 layer doubling: stacking the window layer k extra times adds ~15 µs
// of post-sending and ~15 µs of post-delivery per layer; prediction keeps
// the round trip unchanged, and only the saturation rate falls.
func ExampleCostModel_layerDoubling() {
	fmt.Printf("%8s %12s %14s %14s %12s\n", "extra", "rtt µs", "post-send µs", "post-dlvr µs", "max rt/s")
	for extra := 0; extra <= 4; extra++ {
		cm := PaperCosts()
		cm.ExtraLayers = extra
		_, res := FirstRoundTripTimeline(cm)
		rate, _ := MaxRoundTripRate(cm, 1500)
		fmt.Printf("%8d %12s %14s %14s %12.0f\n",
			extra, micros(res.FirstRTT), micros(cm.postSend()), micros(cm.postDeliver()), rate)
	}
	// Output:
	//    extra       rtt µs   post-send µs   post-dlvr µs     max rt/s
	//        0          176             80             50         2044
	//        1          176             95             65         1930
	//        2          176            110             80         1827
	//        3          176            125             95         1734
	//        4          176            140            110         1650
}

// §1: the accelerated round trip against traditional layering, where
// every layer crossing sits on the critical path (paper: 170 µs vs
// ~1.5 ms, ≈ 8.8×).
func ExampleUnacceleratedModel_RoundTrip() {
	um := PaperUnaccelerated()
	_, acc := FirstRoundTripTimeline(PaperCosts())
	rtt := um.RoundTrip(8)
	fmt.Printf("accelerated rtt %s µs, traditional rtt %s µs (%.1fx)\n",
		micros(acc.FirstRTT), micros(rtt), float64(rtt)/float64(acc.FirstRTT))
	// Output:
	// accelerated rtt 176 µs, traditional rtt 1424 µs (8.1x)
}

// §6 maximum load: one client caps at ~6000 RPC/s, more clients cannot
// exceed that on one CPU because post-processing consumes every cycle,
// and N processors multiply it. The last line is the paper's "faster ML"
// remedy: post-processing three times cheaper, on one CPU.
func ExampleServerLoad() {
	cm := PaperCosts()
	cm.GCEveryReceive = false
	fmt.Printf("%8s %11s %14s %14s %12s\n", "clients", "processors", "per-client", "server cap", "bottleneck")
	for _, c := range []struct{ clients, procs int }{
		{1, 1}, {2, 1}, {8, 1}, {64, 1}, {64, 2}, {64, 4}, {64, 8},
	} {
		r := ServerLoad(ServerLoadConfig{Model: cm, Clients: c.clients, Processors: c.procs})
		fmt.Printf("%8d %11d %14.0f %14.0f %12s\n",
			c.clients, c.procs, r.PerClientCap, r.ServerCap, r.Bottleneck)
	}
	r := ServerLoad(ServerLoadConfig{Model: cm, Clients: 64, Processors: 1, PostSpeedup: 3})
	fmt.Printf("3x faster post-processing: %.0f RPC/s on one CPU\n", r.ServerCap)
	// Output:
	//  clients  processors     per-client     server cap   bottleneck
	//        1           1           5375           5375   client-cap
	//        2           1           5375           5556   server-cpu
	//        8           1           5375           5556   server-cpu
	//       64           1           5375           5556   server-cpu
	//       64           2           5375          11111   server-cpu
	//       64           4           5375          22222   server-cpu
	//       64           8           5375          44444   server-cpu
	// 3x faster post-processing: 10714 RPC/s on one CPU
}

// §5 GC hiccups: with occasional collection, one ~1 ms pause per 100
// receives ("occasional hiccups which last about a millisecond") leaves a
// flat latency distribution with a millisecond spike.
func ExampleRoundTrips_gcHiccups() {
	cm := PaperCosts()
	cm.GCEveryReceive = false
	cm.GCHiccupEvery = 100
	cm.GCHiccup = time.Millisecond
	res := RoundTrips(RTConfig{Model: cm, N: 3000})
	fmt.Printf("p50 %s µs, p90 %s µs, p99 %s µs, max %s µs\n",
		micros(res.Latency.percentile(50)), micros(res.Latency.percentile(90)),
		micros(res.Latency.percentile(99)), micros(res.Latency.max()))
	fmt.Printf("achieved %.0f rt/s back to back\n", res.Achieved)
	// Output:
	// p50 186 µs, p90 186 µs, p99 186 µs, max 1180 µs
	// achieved 5111 rt/s back to back
}
