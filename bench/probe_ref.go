package main

import (
	"math"
	"time"
)

var _ = probeNames("ns", "ref.spin_ns")
var _ = probeNames("%", "ref.drift_pct")

var spinSink uint64

// spinBlock is a fixed piece of pure-CPU work (no memory traffic, no
// calls): a reference for how fast this machine is right now.
func spinBlock() {
	x := spinSink | 1
	for i := 0; i < 1024; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
}

func spinLoop(n int) {
	for i := 0; i < n; i++ {
		spinBlock()
	}
}

// refSpin returns the median time of one spinBlock, in nanoseconds.
func refSpin(rep time.Duration) float64 {
	p := &prober{rep: rep, out: map[string]metric{}}
	probeRef(p)
	return p.out["ref.spin_ns"].Value
}

// driftPct compares two readings of the reference loop, taken at the start
// and at the end of a run: the machine changing speed under the benchmark.
func driftPct(start, end float64) float64 { return 100 * math.Abs(end-start) / start }

func probeRef(p *prober) { p.loop("ref.spin_ns", spinLoop) }
