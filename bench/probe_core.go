package main

import (
	"runtime"

	"paccel/internal/core"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

var _ = probeNames("ns", "core.dial_ns", "core.close_ns")
var _ = probeNames("count", "core.dial_allocs")

// probeCore times one-sided Endpoint.Dial and Conn.Close: stack build,
// schema compile, filter build, Prime, router insert — and their undoing.
func probeCore(p *prober) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	ep, err := core.NewEndpoint(core.Config{Transport: net.Endpoint("S")})
	if err != nil {
		p.fail(err)
		return
	}
	defer ep.Close()
	const batch = 64
	conns := make([]*core.Conn, batch)
	var next uint32
	dialNs, closeNs, allocs := make([]float64, probeReps), make([]float64, probeReps), make([]float64, probeReps)
	for r := range dialNs {
		var td, tc int64
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rounds := 0
		for deadline := nanos() + int64(p.rep); nanos() < deadline; rounds++ {
			t0 := nanos()
			for i := range conns {
				next++
				c, err := ep.Dial(core.PeerSpec{Addr: "X", LocalID: []byte("s"), RemoteID: []byte("x"),
					LocalPort: uint16(next%65000 + 1), RemotePort: 9, Epoch: next / 65000})
				if err != nil {
					p.fail(err)
					return
				}
				conns[i] = c
			}
			t1 := nanos()
			for _, c := range conns {
				c.Close()
			}
			td += t1 - t0
			tc += nanos() - t1
		}
		runtime.ReadMemStats(&ms1)
		n := float64(rounds * batch)
		dialNs[r], closeNs[r] = float64(td)/n, float64(tc)/n
		allocs[r] = float64(ms1.Mallocs-ms0.Mallocs) / n
	}
	p.set("core.dial_ns", dialNs)
	p.set("core.close_ns", closeNs)
	p.set("core.dial_allocs", allocs)
}
