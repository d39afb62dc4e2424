// The secure experiment: the cost of an AES-GCM encryption layer riding
// the accelerator's fast path (DESIGN.md §17). The paper's claim is that
// layering overhead can be masked by prediction, filters and piggyback
// fields; the secure layer is the strongest test of that claim — a layer
// that must touch every payload byte. The experiment measures what the
// machinery leaves: one send+synchronous-deliver through the encrypted
// stack vs the same stack with a checksum in the AEAD's place, across
// payload sizes, plus the steady-state allocation count (acceptance: 0)
// and the cost of a rekey (one epoch bump + key derivation).
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

// SecurePayloads are the measured payload sizes: a tiny control-style
// message, the small-message steady state, a typical RPC body, and a
// page-sized payload still under the fragmentation threshold.
var SecurePayloads = []int{32, 256, 1024, 4096}

// secureExpKey is the experiment's pre-shared master key.
var secureExpKey = []byte("pabench secure experiment key")

// SecureLeanStack is LeanStack with the AEAD in the checksum's place: frag +
// secure + ident, windowless so the fast path has no timer machinery
// behind the measurement and the nonce prediction never sees a gap.
func SecureLeanStack(spec core.PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
	return []stack.Layer{
		layers.NewFrag(),
		layers.NewSecure(secureExpKey, spec.LocalID, spec.RemoteID, spec.LocalPort, spec.RemotePort),
		&layers.Ident{
			Local: spec.LocalID, Remote: spec.RemoteID,
			LocalPort: spec.LocalPort, RemotePort: spec.RemotePort,
			Epoch: spec.Epoch, Order: order,
		},
	}, nil
}

// securePair is one connected A→B pair over the instantaneous in-memory
// network; a Send on a delivers synchronously at b inside the same call.
type securePair struct {
	a, b    *core.Conn
	cleanup func()
}

func newSecurePair(build core.StackBuilder) (*securePair, error) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	epA, err := core.NewEndpoint(core.Config{Transport: net.Endpoint("A"), Build: build})
	if err != nil {
		return nil, err
	}
	epB, err := core.NewEndpoint(core.Config{Transport: net.Endpoint("B"), Build: build})
	if err != nil {
		epA.Close()
		return nil, err
	}
	p := &securePair{cleanup: func() { epA.Close(); epB.Close() }}
	if p.a, err = epA.Dial(core.PeerSpec{
		Addr: "B", LocalID: []byte("alice"), RemoteID: []byte("bob"),
		LocalPort: 1, RemotePort: 2, Epoch: 1,
	}); err != nil {
		p.cleanup()
		return nil, err
	}
	if p.b, err = epB.Dial(core.PeerSpec{
		Addr: "A", LocalID: []byte("bob"), RemoteID: []byte("alice"),
		LocalPort: 2, RemotePort: 1, Epoch: 1,
	}); err != nil {
		p.cleanup()
		return nil, err
	}
	p.b.OnDeliver(func([]byte) {})
	return p, nil
}

// secureMeasure times op with the benchmark harness, best of reps.
func secureMeasure(op func() error, reps int) (float64, error) {
	best := math.MaxFloat64
	for r := 0; r < reps; r++ {
		var opErr error
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					opErr = err
					b.FailNow()
				}
			}
		})
		if opErr != nil {
			return 0, opErr
		}
		if v := float64(br.NsPerOp()); v < best {
			best = v
		}
	}
	return best, nil
}

// SecurePayloadResult is one payload size's measurements. One op is one
// send through the full engine plus the far side's synchronous
// authenticated decrypt and delivery.
type SecurePayloadResult struct {
	PayloadBytes int `json:"payload_bytes"`

	PlainNsOp  float64 `json:"plain_ns_op"`
	SecureNsOp float64 `json:"secure_ns_op"`
	// OverheadPct is the headline number: what AES-GCM costs on top of
	// the checksum stack, end to end, as a percentage.
	OverheadPct float64 `json:"overhead_pct"`

	SecureMsgsPerSec float64 `json:"secure_msgs_per_sec"`
	SecureMBPerSec   float64 `json:"secure_mb_per_sec"`

	// SecureAllocsOp is the steady state — the zero-allocation
	// acceptance number with encryption on.
	SecureAllocsOp float64 `json:"secure_allocs_op"`
}

// SecureResult is the machine-readable output of the secure experiment —
// the BENCH_10.json acceptance artifact.
type SecureResult struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`

	// RekeyNs is the cost of one Resume on the secure layer: epoch bump,
	// SHA-256 key derivation, AES-GCM instance construction.
	RekeyNs float64 `json:"rekey_ns"`

	Payloads []SecurePayloadResult `json:"payloads"`
}

// Secure runs the encryption-overhead experiment: the AEAD stack vs the
// checksum stack across payload sizes.
func Secure(quick bool) (*SecureResult, error) {
	reps := 3
	allocRuns := 2000
	sizes := SecurePayloads
	if quick {
		reps = 2
		allocRuns = 200
		sizes = sizes[:len(sizes)-1]
	}
	res := &SecureResult{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}

	for _, n := range sizes {
		r := SecurePayloadResult{PayloadBytes: n}
		payload := make([]byte, n)

		p, err := newSecurePair(LeanStack)
		if err != nil {
			return nil, err
		}
		if r.PlainNsOp, err = secureMeasure(func() error { return p.a.Send(payload) }, reps); err != nil {
			p.cleanup()
			return nil, err
		}
		p.cleanup()

		s, err := newSecurePair(SecureLeanStack)
		if err != nil {
			return nil, err
		}
		if r.SecureNsOp, err = secureMeasure(func() error { return s.a.Send(payload) }, reps); err != nil {
			s.cleanup()
			return nil, err
		}
		for i := 0; i < 64; i++ { // warm scratches and pools
			if err := s.a.Send(payload); err != nil {
				s.cleanup()
				return nil, err
			}
		}
		r.SecureAllocsOp = testing.AllocsPerRun(allocRuns, func() {
			if err := s.a.Send(payload); err != nil {
				panic(err)
			}
		})
		s.cleanup()

		if r.PlainNsOp > 0 {
			r.OverheadPct = (r.SecureNsOp - r.PlainNsOp) / r.PlainNsOp * 100
		}
		if r.SecureNsOp > 0 {
			r.SecureMsgsPerSec = 1e9 / r.SecureNsOp
			r.SecureMBPerSec = float64(n) / r.SecureNsOp * 1e9 / 1e6
		}
		res.Payloads = append(res.Payloads, r)
	}

	// Rekey cost: one epoch bump + key derivation on a bare layer. The
	// layer is primed through a throwaway stack so handles are live.
	sec := layers.NewSecure(secureExpKey, []byte("alice"), []byte("bob"), 1, 2)
	if err := primeSecureLayer(sec); err != nil {
		return nil, err
	}
	start := time.Now()
	const rekeys = 4096
	for i := 0; i < rekeys; i++ {
		sec.Resume()
	}
	res.RekeyNs = float64(time.Since(start).Nanoseconds()) / rekeys
	return res, nil
}

// primeSecureLayer runs a bare secure layer through Init/Prime the way
// the engine would, so Resume has live handles and predictions.
func primeSecureLayer(sec *layers.Secure) error {
	st, err := stack.NewStack(sec)
	if err != nil {
		return err
	}
	schema := header.New()
	ic := &stack.InitContext{
		Schema:     schema,
		SendFilter: filter.NewBuilder(),
		RecvFilter: filter.NewBuilder(),
	}
	if err := st.Init(ic); err != nil {
		return err
	}
	if err := schema.Compile(); err != nil {
		return err
	}
	ctx := &stack.Context{Order: bits.BigEndian}
	for c := header.Class(0); c < header.NumClasses; c++ {
		ctx.PredictSend[c] = make([]byte, schema.Size(c))
		ctx.PredictRecv[c] = make([]byte, schema.Size(c))
	}
	st.Prime(ctx)
	return nil
}

// SecureReport formats the result for the pabench console output.
func SecureReport(r *SecureResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Secure channel: AES-GCM on the fast path vs checksum stack (%s/%s)\n", r.GOOS, r.GOARCH)
	fmt.Fprintf(&b, "  one op = one send + synchronous authenticated deliver; rekey = %.0f ns\n", r.RekeyNs)
	fmt.Fprintf(&b, "  %7s  %20s  %9s  %10s  %9s  %9s\n",
		"payload", "plain/secure ns", "overhead", "msgs/s", "MB/s", "allocs/op")
	for _, row := range r.Payloads {
		fmt.Fprintf(&b, "  %6dB  %8.0f / %9.0f  %8.1f%%  %10.0f  %9.1f  %9.3f\n",
			row.PayloadBytes, row.PlainNsOp, row.SecureNsOp, row.OverheadPct,
			row.SecureMsgsPerSec, row.SecureMBPerSec, row.SecureAllocsOp)
	}
	return b.String()
}
