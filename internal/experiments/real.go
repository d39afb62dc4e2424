// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment has two modes where that makes sense:
//
//   - sim: the calibrated discrete-event model of the paper's 1996
//     testbed (internal/evsim), which reproduces the published numbers'
//     shape and scale;
//   - real: the actual Go Protocol Accelerator (internal/core) measured
//     end-to-end over the in-memory network on today's hardware — the
//     same experiments, four orders of magnitude faster.
//
// cmd/pabench prints them; bench_test.go wraps them as Go benchmarks.
package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"paccel/internal/baseline"
	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/stack"
	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

// JSON renders an experiment result as its committed BENCH_N.json
// baseline: two-space indent, trailing newline.
func JSON(result any) (string, error) {
	out, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// Pair is a connected PA client/server over an instantaneous in-memory
// network, used by the real-mode measurements.
type Pair struct {
	Net      *netsim.Network
	EpA, EpB *core.Endpoint
	A, B     *Conn
}

// Conn aliases the engine connection for the experiment surface.
type Conn = core.Conn

// PairOptions tweak the real-measurement fixture.
type PairOptions struct {
	NetConfig netsim.Config
	Build     core.StackBuilder

	// Telemetry, when non-nil, is installed on both endpoints (and on the
	// network, for fault events). TelemetrySampleEvery is forwarded to
	// core.Config; zero keeps the engine default.
	Telemetry            *telemetry.Recorder
	TelemetrySampleEvery int
}

// NewPair dials two endpoints A↔B over an in-memory network on the real
// clock.
func NewPair(opt PairOptions) (*Pair, error) {
	net := netsim.New(vclock.Real{}, opt.NetConfig)
	if opt.Telemetry != nil {
		net.SetTelemetry(opt.Telemetry)
	}
	cfg := func(addr string) core.Config {
		return core.Config{
			Transport:            net.Endpoint(addr),
			Build:                opt.Build,
			Telemetry:            opt.Telemetry,
			TelemetrySampleEvery: opt.TelemetrySampleEvery,
		}
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
	return &Pair{Net: net, EpA: epA, EpB: epB, A: a, B: b}, nil
}

// Close releases the fixture.
func (p *Pair) Close() {
	p.EpA.Close()
	p.EpB.Close()
}

// PingPong echoes n round trips of payload bytes and returns the mean
// round-trip time.
func (p *Pair) PingPong(n int, payload []byte) (time.Duration, error) {
	p.B.OnDeliver(func(data []byte) {
		if err := p.B.Send(data); err != nil {
			panic(err)
		}
	})
	done := make(chan struct{}, 1)
	p.A.OnDeliver(func([]byte) { done <- struct{}{} })
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := p.A.Send(payload); err != nil {
			return 0, err
		}
		<-done
	}
	return time.Since(start) / time.Duration(n), nil
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

// PingPong mirrors Pair.PingPong for the baseline path.
func (p *BaselinePair) PingPong(n int, payload []byte) (time.Duration, error) {
	p.B.OnDeliver(func(data []byte) {
		if err := p.B.Send(data); err != nil {
			panic(err)
		}
	})
	done := make(chan struct{}, 1)
	p.A.OnDeliver(func([]byte) { done <- struct{}{} })
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := p.A.Send(payload); err != nil {
			return 0, err
		}
		<-done
	}
	return time.Since(start) / time.Duration(n), nil
}

// DoubledWindowStack is the §5 layer-doubling configuration: the window
// layer stacked twice.
func DoubledWindowStack(spec core.PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
	return []stack.Layer{
		layers.NewChksum(),
		layers.NewFrag(),
		layers.NewWindow(),
		layers.NewWindow(),
		&layers.Ident{
			Local: spec.LocalID, Remote: spec.RemoteID,
			LocalPort: spec.LocalPort, RemotePort: spec.RemotePort,
			Epoch: spec.Epoch, Order: order,
		},
	}, nil
}
