// The admission replay harness: one endpoint at capacity, one admitted
// fast-path connection and one stranger whose first message is refused
// every time. The root benchmarks time the reject path and the admitted
// delivery with it (BenchmarkAdmissionShedAllocs); the redial-storm
// behaviour itself is tested in internal/core (TestRedialStormLosesNothing).
package experiments

import (
	"bytes"
	"fmt"

	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

// acceptAll is the harness server's accept hook: every identified
// connection taken at face value, exactly as a fleet frontend would
// before authentication happens at a higher layer.
func acceptAll(remote layers.IdentInfo, netSrc string) (core.PeerSpec, bool) {
	return core.PeerSpec{
		Addr:      netSrc,
		LocalID:   bytes.TrimRight(remote.Dst, "\x00"),
		RemoteID:  bytes.TrimRight(remote.Src, "\x00"),
		LocalPort: remote.DstPort, RemotePort: remote.SrcPort,
		Epoch: remote.Epoch,
	}, true
}

// ShedHarness drives one endpoint's admission reject path and one
// admitted connection's delivery path directly, bypassing the network:
// the fixture behind the root package's shed benchmarks.
type ShedHarness struct {
	Server *core.Endpoint

	h           handlerGrab
	client      *core.Endpoint
	client2     *core.Endpoint
	cookieFrame []byte
	shedFrame   []byte
}

// NewShedHarness builds a MaxConns=1 endpoint holding one pre-agreed
// fast-path connection, plus one captured stranger first-message whose
// replay is refused by admission every time. stormRate configures the
// detector (use a huge rate to keep it quiet, a small one to trip it).
func NewShedHarness(stormRate int) (*ShedHarness, error) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	sh := &ShedHarness{}
	tap := &tapTransport{inner: net.Endpoint("S")}
	server, err := core.NewEndpoint(core.Config{
		Transport: handlerGrabTap{tap, &sh.h},
		Build:     LeanStack,
		MaxConns:  1,
		Admission: core.AdmissionConfig{StormRate: stormRate, Seed: 7},
		Accept:    acceptAll,
		OnConn:    func(c *core.Conn) { c.OnDeliver(func([]byte) {}) },
	})
	if err != nil {
		return nil, err
	}
	sh.Server = server
	client, err := core.NewEndpoint(core.Config{Transport: net.Endpoint("C"), Build: LeanStack})
	if err != nil {
		sh.Close()
		return nil, err
	}
	sh.client = client
	// The admitted connection: pre-agreed cookies, so its frames are
	// cookie-only and its dial occupies the single slot.
	scServer, err := server.Dial(core.PeerSpec{
		Addr: "C", LocalID: []byte("server"), RemoteID: []byte("client"),
		LocalPort: 2000, RemotePort: 1000, Epoch: 1,
		OutCookie: 0xc11e, ExpectInCookie: 0x5eed, SkipFirstConnID: true,
	})
	if err != nil {
		sh.Close()
		return nil, err
	}
	scServer.OnDeliver(func([]byte) {})
	cc, err := client.Dial(core.PeerSpec{
		Addr: "S", LocalID: []byte("client"), RemoteID: []byte("server"),
		LocalPort: 1000, RemotePort: 2000, Epoch: 1,
		OutCookie: 0x5eed, ExpectInCookie: 0xc11e, SkipFirstConnID: true,
	})
	if err != nil {
		sh.Close()
		return nil, err
	}
	if err := cc.Send([]byte("fastpath")); err != nil {
		sh.Close()
		return nil, err
	}
	sh.cookieFrame = tap.takeLast()

	// The stranger: a genuine identified first message from a peer the
	// server has never admitted. Its live arrival was already refused
	// (the slot is taken), and every replay re-runs the same refusal.
	client2, err := core.NewEndpoint(core.Config{Transport: net.Endpoint("Z"), Build: LeanStack})
	if err != nil {
		sh.Close()
		return nil, err
	}
	sh.client2 = client2
	zc, err := client2.Dial(core.PeerSpec{
		Addr: "S", LocalID: []byte("stranger"), RemoteID: []byte("server"),
		LocalPort: 3000, RemotePort: 2000, Epoch: 1,
	})
	if err != nil {
		sh.Close()
		return nil, err
	}
	if err := zc.Send([]byte("let me in")); err != nil {
		sh.Close()
		return nil, err
	}
	sh.shedFrame = tap.takeLast()
	if len(sh.cookieFrame) == 0 || len(sh.shedFrame) == 0 || sh.h.fn == nil {
		sh.Close()
		return nil, fmt.Errorf("experiments: shed harness captured no frames")
	}
	if n := server.Snapshot().Conns; n != 1 {
		sh.Close()
		return nil, fmt.Errorf("experiments: shed harness holds %d conns, want 1", n)
	}
	return sh, nil
}

// Deliver replays the admitted connection's cookie-only frame.
func (sh *ShedHarness) Deliver() { sh.h.fn("C", sh.cookieFrame) }

// Shed replays the stranger's first message into the admission path;
// the endpoint is at capacity, so every call is a counted refusal.
func (sh *ShedHarness) Shed() { sh.h.fn("Z", sh.shedFrame) }

// Close tears the harness down.
func (sh *ShedHarness) Close() {
	if sh.client2 != nil {
		sh.client2.Close()
	}
	if sh.client != nil {
		sh.client.Close()
	}
	if sh.Server != nil {
		sh.Server.Close()
	}
}
