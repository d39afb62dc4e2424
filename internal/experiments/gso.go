// The gso experiment: kernel-offload transport I/O (DESIGN.md §13). It
// measures what UDP_SEGMENT send coalescing and UDP_GRO receive
// coalescing buy on top of the PR 4 sendmmsg tier — the same engine, the
// same burst-generating stack, with the offloads enabled (default
// Listen) versus explicitly disabled (the plain sendmmsg control arm).
//
// The headline metric is **syscalls/datagram**: every send and receive
// system call the two transports actually issue, divided by the
// datagrams delivered. sendmmsg already amortizes syscall entry over 64
// datagrams; composing UDP_SEGMENT into it makes each sendmmsg header a
// super-datagram of up to 64 segments, so a 256-datagram burst drops
// from 4 sendmmsg calls to 1 call carrying 4 super-datagrams — and on
// the receive side UDP_GRO hands the loop coalesced payloads that split
// in userspace without extra syscalls.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"paccel/internal/udp"
)

// GSOBursts are the measured burst sizes. 64 fills one sendmmsg chunk
// (the PR 4 regime: both arms pay one syscall, the offload pays it with
// one header); 256 is where composition shows — 4 sendmmsg calls plain
// versus 1 call of 4 super-datagrams.
var GSOBursts = []int{4, 16, 64, 256}

// gsoSyscallOps is how many bursts the syscall-accounting pass sends per
// configuration.
const gsoSyscallOps = 200

// newGSOFixture is newUDPBurstFixture with explicit offload control,
// returning the raw transports so the caller can read their syscall and
// offload counters.
func newGSOFixture(burst int, offload bool) (*burstFixture, *udp.Transport, *udp.Transport, error) {
	opts := udp.Options{DisableGSO: !offload, DisableGRO: !offload}
	server, err := udp.ListenWithOptions("127.0.0.1:0", opts)
	if err != nil {
		return nil, nil, nil, err
	}
	client, err := udp.ListenWithOptions("127.0.0.1:0", opts)
	if err != nil {
		server.Close()
		return nil, nil, nil, err
	}
	f, err := newBurstFixture(burst, client, server, server.LocalAddr(), client.LocalAddr())
	if err != nil {
		return nil, nil, nil, err
	}
	return f, client, server, nil
}

// drainDatagrams waits until the receiving transport's datagram counter
// stops moving (everything in flight on loopback has been delivered).
func drainDatagrams(tr *udp.Transport) uint64 {
	prev := tr.Stats().RecvDatagrams
	for i := 0; i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := tr.Stats().RecvDatagrams
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// gsoSyscallPass sends gsoSyscallOps bursts through one fixture and
// returns per-datagram syscall rates plus the client's offload counters.
func gsoSyscallPass(burst int, offload bool) (tx, rx, total float64, st udp.Stats, err error) {
	f, client, server, err := newGSOFixture(burst, offload)
	if err != nil {
		return 0, 0, 0, st, err
	}
	defer f.cleanup()
	// Warm: prime prediction, pools, and the peer-address cache.
	for i := 0; i < 16; i++ {
		if err := f.send(); err != nil {
			return 0, 0, 0, st, err
		}
	}
	drainDatagrams(server)
	c0, s0, d0 := client.Stats(), server.Stats(), server.Stats().RecvDatagrams
	for i := 0; i < gsoSyscallOps; i++ {
		if err := f.send(); err != nil {
			return 0, 0, 0, st, err
		}
	}
	delivered := drainDatagrams(server) - d0
	c1, s1 := client.Stats(), server.Stats()
	st = c1
	if delivered == 0 {
		return 0, 0, 0, st, fmt.Errorf("gso: no datagrams delivered (burst %d)", burst)
	}
	tx = float64(c1.TxSyscalls-c0.TxSyscalls) / float64(delivered)
	rx = float64(s1.RxSyscalls-s0.RxSyscalls) / float64(delivered)
	return tx, rx, tx + rx, st, nil
}

// GSOBurstResult is one burst size's measurements. NsOp values are per
// burst operation (one engine Send fragmenting into ~Burst datagrams);
// the syscall rates are per delivered datagram, both transport
// directions included.
type GSOBurstResult struct {
	Burst int `json:"burst"`

	OffloadNsOp    float64 `json:"offload_ns_op"`
	MmsgNsOp       float64 `json:"mmsg_ns_op"`
	ImprovementPct float64 `json:"improvement_pct"`

	OffloadTxSyscallsPerDatagram float64 `json:"offload_tx_syscalls_per_datagram"`
	MmsgTxSyscallsPerDatagram    float64 `json:"mmsg_tx_syscalls_per_datagram"`
	OffloadRxSyscallsPerDatagram float64 `json:"offload_rx_syscalls_per_datagram"`
	MmsgRxSyscallsPerDatagram    float64 `json:"mmsg_rx_syscalls_per_datagram"`
	OffloadSyscallsPerDatagram   float64 `json:"offload_syscalls_per_datagram"`
	MmsgSyscallsPerDatagram      float64 `json:"mmsg_syscalls_per_datagram"`

	// TxReductionFactor is the headline acceptance number: plain-sendmmsg
	// tx syscalls per datagram over offload tx syscalls per datagram.
	TxReductionFactor    float64 `json:"tx_reduction_factor"`
	TotalReductionFactor float64 `json:"total_reduction_factor"`

	// Offload-arm engagement counters (client transport).
	GsoSends    uint64 `json:"gso_sends"`
	GsoSegments uint64 `json:"gso_segments"`
}

// GSOResult is the machine-readable output of the gso experiment — the
// BENCH_6.json acceptance artifact.
type GSOResult struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Vectorized bool   `json:"vectorized"`

	// Listen-time probe verdicts on this kernel. When GSOSupported is
	// false the offload arm degrades to plain sendmmsg and the reduction
	// factors hover around 1 — expected, not a failure.
	GSOSupported bool `json:"gso_supported"`
	GROSupported bool `json:"gro_supported"`

	Bursts []GSOBurstResult `json:"bursts"`

	// SendBatchAllocsOp is the transport-level steady state: one
	// SendBatch of a 64×512B equal-size burst with the offload engaged
	// must not allocate (pooled headers, lazily-built coalesce scratch).
	SendBatchAllocsOp float64 `json:"send_batch_allocs_op"`
}

// GSO runs the kernel-offload experiment: offload-enabled vs
// offload-disabled bursts over real UDP loopback.
func GSO(quick bool) (*GSOResult, error) {
	reps := 3
	allocRuns := 2000
	if quick {
		reps = 2
		allocRuns = 200
	}
	res := &GSOResult{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Vectorized: runtime.GOOS == "linux" &&
			(runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64"),
	}
	probe, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	res.GSOSupported, res.GROSupported = probe.Offload()
	probe.Close()

	for _, burst := range GSOBursts {
		burst := burst
		r := GSOBurstResult{Burst: burst}
		var err error
		if r.OffloadNsOp, _, err = measureBurst(func() (*burstFixture, error) {
			f, _, _, err := newGSOFixture(burst, true)
			return f, err
		}, reps); err != nil {
			return nil, err
		}
		if r.MmsgNsOp, _, err = measureBurst(func() (*burstFixture, error) {
			f, _, _, err := newGSOFixture(burst, false)
			return f, err
		}, reps); err != nil {
			return nil, err
		}
		if r.MmsgNsOp > 0 {
			r.ImprovementPct = 100 * (r.MmsgNsOp - r.OffloadNsOp) / r.MmsgNsOp
		}

		var st udp.Stats
		if r.OffloadTxSyscallsPerDatagram, r.OffloadRxSyscallsPerDatagram,
			r.OffloadSyscallsPerDatagram, st, err = gsoSyscallPass(burst, true); err != nil {
			return nil, err
		}
		r.GsoSends, r.GsoSegments = st.GsoSends, st.GsoSegments
		if r.MmsgTxSyscallsPerDatagram, r.MmsgRxSyscallsPerDatagram,
			r.MmsgSyscallsPerDatagram, _, err = gsoSyscallPass(burst, false); err != nil {
			return nil, err
		}
		if r.OffloadTxSyscallsPerDatagram > 0 {
			r.TxReductionFactor = r.MmsgTxSyscallsPerDatagram / r.OffloadTxSyscallsPerDatagram
		}
		if r.OffloadSyscallsPerDatagram > 0 {
			r.TotalReductionFactor = r.MmsgSyscallsPerDatagram / r.OffloadSyscallsPerDatagram
		}
		res.Bursts = append(res.Bursts, r)
	}

	if res.SendBatchAllocsOp, err = gsoSendBatchAllocs(allocRuns); err != nil {
		return nil, err
	}
	return res, nil
}

// gsoSendBatchAllocs measures the transport-level steady state of one
// offloaded SendBatch: a 64×512B equal-size burst (one super-datagram's
// worth) after the pools and coalesce scratch are warm.
func gsoSendBatchAllocs(runs int) (float64, error) {
	a, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	ds := make([][]byte, 64)
	for i := range ds {
		ds[i] = make([]byte, 512)
	}
	dst := b.LocalAddr()
	for i := 0; i < 32; i++ {
		if _, err := a.SendBatch(dst, ds); err != nil {
			return 0, err
		}
	}
	var sendErr error
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := a.SendBatch(dst, ds); err != nil {
			sendErr = err
		}
	})
	return allocs, sendErr
}

// GSOReport formats the result for the pabench console output.
func GSOReport(r *GSOResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Kernel-offload transport I/O (%s/%s, UDP_SEGMENT: %v, UDP_GRO: %v)\n",
		r.GOOS, r.GOARCH, r.GSOSupported, r.GROSupported)
	fmt.Fprintf(&b, "  one op = one engine Send fragmenting into <burst> datagrams of ~%d B\n", batchFragSize)
	fmt.Fprintf(&b, "  syscalls/datagram counts both transports' send+receive system calls\n")
	fmt.Fprintf(&b, "  %5s  %22s  %26s  %26s  %8s\n",
		"burst", "offload/mmsg ns", "tx sc/dgram (off/mmsg)", "total sc/dgram (off/mmsg)", "tx gain")
	for _, row := range r.Bursts {
		fmt.Fprintf(&b, "  %5d  %9.0f / %8.0f  %11.4f / %12.4f  %11.4f / %12.4f  %7.1fx\n",
			row.Burst, row.OffloadNsOp, row.MmsgNsOp,
			row.OffloadTxSyscallsPerDatagram, row.MmsgTxSyscallsPerDatagram,
			row.OffloadSyscallsPerDatagram, row.MmsgSyscallsPerDatagram,
			row.TxReductionFactor)
	}
	fmt.Fprintf(&b, "  steady-state offloaded SendBatch: %.3f allocs/op\n", r.SendBatchAllocsOp)
	return b.String()
}
