package main

import (
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

var _ = probeNames("ns", "netsim.raw_send_ns")

// probeNetsim times one Send over the perfect network with an empty
// handler: the simulator's own cost per datagram (copy, lookup, deliver).
func probeNetsim(p *prober) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	a, b := net.Endpoint("A"), net.Endpoint("B")
	defer a.Close()
	defer b.Close()
	b.SetHandler(func(string, []byte) {})
	d := make([]byte, 30) // an 8 B message on the default stack: 22 B of header
	p.loop("netsim.raw_send_ns", func(n int) {
		for i := 0; i < n; i++ {
			if err := a.Send("B", d); err != nil {
				p.fail(err)
				return
			}
		}
	})
}
