// Package experiments holds the seeded whole-system scenarios — the
// chaos schedule (faults), failover (recovery) and the virtual internet
// (topo) — whose committed records BENCH_2, BENCH_3 and BENCH_8 are
// pinned by TestSeededRecordsReproduce, and the fixtures the root
// package's benchmarks stand on: connected PA and baseline pairs over the
// in-memory network, the lean, secure and doubled-window stacks, and the
// receive and admission replay harnesses.
package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"paccel/internal/baseline"
	"paccel/internal/core"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

// Pair is a connected PA client/server over an instantaneous in-memory
// network.
type Pair struct {
	EpA, EpB *core.Endpoint
	A, B     *Conn
}

// Conn aliases the engine connection for the experiment surface.
type Conn = core.Conn

// PairOptions tweak the fixture.
type PairOptions struct {
	NetConfig netsim.Config
	Build     core.StackBuilder
}

// NewPair dials two endpoints A↔B over an in-memory network on the real
// clock.
func NewPair(opt PairOptions) (*Pair, error) {
	net := netsim.New(vclock.Real{}, opt.NetConfig)
	cfg := func(addr string) core.Config {
		return core.Config{Transport: net.Endpoint(addr), Build: opt.Build}
	}
	epA, err := core.NewEndpoint(cfg("A"))
	if err != nil {
		return nil, err
	}
	epB, err := core.NewEndpoint(cfg("B"))
	if err != nil {
		return nil, err
	}
	a, err := epA.Dial(core.PeerSpec{
		Addr: "B", LocalID: []byte("client"), RemoteID: []byte("server"),
		LocalPort: 1, RemotePort: 2, Epoch: 1,
	})
	if err != nil {
		return nil, err
	}
	b, err := epB.Dial(core.PeerSpec{
		Addr: "A", LocalID: []byte("server"), RemoteID: []byte("client"),
		LocalPort: 2, RemotePort: 1, Epoch: 1,
	})
	if err != nil {
		return nil, err
	}
	return &Pair{EpA: epA, EpB: epB, A: a, B: b}, nil
}

// Close releases the fixture.
func (p *Pair) Close() {
	p.EpA.Close()
	p.EpB.Close()
}

// StreamOneWay sends n messages A→B as fast as possible and returns the
// achieved messages/second and bytes/second.
func (p *Pair) StreamOneWay(n int, payload []byte) (msgsPerSec, bytesPerSec float64, err error) {
	var got atomic.Int64
	doneCh := make(chan struct{})
	p.B.OnDeliver(func([]byte) {
		if got.Add(1) == int64(n) {
			close(doneCh)
		}
	})
	start := time.Now()
	for i := 0; i < n; i++ {
		for {
			err := p.A.Send(payload)
			if err == nil {
				break
			}
			if errors.Is(err, core.ErrBacklogFull) {
				// Backpressure: the window is closed and the
				// backlog is at capacity; wait for acks.
				time.Sleep(20 * time.Microsecond)
				continue
			}
			return 0, 0, err
		}
	}
	p.A.Flush()
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-doneCh:
		case <-time.After(50 * time.Millisecond):
			// Nudge: under heavy load (race detector, parallel
			// suites) delayed-ack timers can lag; Flush drains
			// pending post-processing and kicks the backlog.
			p.A.Flush()
			p.B.Flush()
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("stream stalled at %d/%d", got.Load(), n)
			}
			continue
		}
		break
	}
	el := time.Since(start).Seconds()
	return float64(n) / el, float64(n*len(payload)) / el, nil
}

// BaselinePair is the traditional-path fixture.
type BaselinePair struct {
	EpA, EpB *baseline.Endpoint
	A, B     *baseline.Conn
}

// NewBaselinePair dials two baseline endpoints.
func NewBaselinePair(netCfg netsim.Config) (*BaselinePair, error) {
	net := netsim.New(vclock.Real{}, netCfg)
	epA, err := baseline.NewEndpoint(baseline.Config{Transport: net.Endpoint("A")})
	if err != nil {
		return nil, err
	}
	epB, err := baseline.NewEndpoint(baseline.Config{Transport: net.Endpoint("B")})
	if err != nil {
		return nil, err
	}
	a, err := epA.Dial(core.PeerSpec{Addr: "B", LocalID: []byte("client"), RemoteID: []byte("server"), LocalPort: 1, RemotePort: 2, Epoch: 1})
	if err != nil {
		return nil, err
	}
	b, err := epB.Dial(core.PeerSpec{Addr: "A", LocalID: []byte("server"), RemoteID: []byte("client"), LocalPort: 2, RemotePort: 1, Epoch: 1})
	if err != nil {
		return nil, err
	}
	return &BaselinePair{EpA: epA, EpB: epB, A: a, B: b}, nil
}

// Close releases the fixture.
func (p *BaselinePair) Close() {
	p.EpA.Close()
	p.EpB.Close()
}

// DoubledWindowStack is the §5 layer-doubling configuration: the window
// layer stacked twice.
var DoubledWindowStack = core.BuildStack(core.StackOptions{DoubleWindow: true})
