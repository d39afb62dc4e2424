// The fanout experiment: shared pre-processing group multicast
// (DESIGN.md §16). One multicast through core.Fanout performs the
// paper's send-side work — header build, send packet filter — exactly
// once, stamps each member's predicted header fields over a shared
// template, and transmits the whole group as one scattered-destination
// batch. The control arm is the same member set sent to with one full
// per-member Send pipeline each.
//
// Two fixtures measure it:
//
//   - sim: the in-memory network, for the msgs/s × members throughput
//     curve (up to 4096 members) and the steady-state allocation count;
//   - udp: real loopback sockets, for **tx syscalls/message** — the
//     acceptance metric. Per-member sends pay one sendmmsg per member;
//     the fanout batch pays one per 64 members.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"paccel/internal/core"
	"paccel/internal/netsim"
	"paccel/internal/udp"
	"paccel/internal/vclock"
)

// FanoutMembers are the measured group sizes (quick mode drops the
// last). 8 is small-group overhead; 64 fills exactly one sendmmsg chunk;
// 512 and 4096 show the flat per-member cost once the template build is
// fully amortized.
var FanoutMembers = []int{8, 64, 512, 4096}

// fanoutUDPMaxMembers caps the loopback-socket arm; the syscall ratio is
// member-count-linear and fully established by 512.
const fanoutUDPMaxMembers = 512

// fanoutSyscallOps is how many multicasts the syscall-accounting pass
// performs per group size.
const fanoutSyscallOps = 200

// fanoutPayload is the multicast payload size: a typical small group
// message, well under the fragmentation threshold so the template stays
// on the fast path.
const fanoutPayload = 128

// fanoutFixture is one sender endpoint with members connections dialed
// over tr, plus the fanout engine spanning them.
type fanoutFixture struct {
	ep      *core.Endpoint
	conns   []*core.Conn
	fan     *core.Fanout
	payload []byte
	cleanup func()
}

func newFanoutFixture(members int, tr core.Transport, dst string, cleanup func()) (*fanoutFixture, error) {
	ep, err := core.NewEndpoint(core.Config{Transport: tr, Build: LeanStack})
	if err != nil {
		cleanup()
		return nil, err
	}
	f := &fanoutFixture{ep: ep, payload: make([]byte, fanoutPayload), cleanup: func() {
		ep.Close()
		cleanup()
	}}
	for i := 0; i < members; i++ {
		conn, err := ep.Dial(core.PeerSpec{
			Addr:    dst,
			LocalID: []byte("fan"), RemoteID: []byte(fmt.Sprintf("m%04d", i)),
			LocalPort: uint16(i + 1), RemotePort: uint16(i + 1),
			Epoch: 1,
		})
		if err != nil {
			f.cleanup()
			return nil, err
		}
		f.conns = append(f.conns, conn)
	}
	if f.fan, err = core.NewFanout(ep, f.conns...); err != nil {
		f.cleanup()
		return nil, err
	}
	return f, nil
}

// newFanoutSimFixture dials members connections to a sink endpoint on an
// instantaneous in-memory network.
func newFanoutSimFixture(members int) (*fanoutFixture, error) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	sink := net.Endpoint("sink")
	sink.SetHandler(func(string, []byte) {})
	return newFanoutFixture(members, net.Endpoint("sender"), "sink", func() {})
}

// newFanoutUDPFixture dials members connections across real loopback
// sockets, returning the sender transport for syscall accounting.
func newFanoutUDPFixture(members int) (*fanoutFixture, *udp.Transport, error) {
	sender, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	sink, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		sender.Close()
		return nil, nil, err
	}
	sink.SetHandler(func(string, []byte) {})
	f, err := newFanoutFixture(members, sender, sink.LocalAddr(), func() {
		sink.Close()
	})
	if err != nil {
		return nil, nil, err
	}
	return f, sender, nil
}

// sendPerMember is the control arm: one full send pipeline per member.
func (f *fanoutFixture) sendPerMember() error {
	for _, c := range f.conns {
		if err := c.Send(f.payload); err != nil {
			return err
		}
	}
	return nil
}

// fanoutMeasure times op with the benchmark harness, best of reps.
func fanoutMeasure(op func() error, reps int) (float64, error) {
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

// FanoutMemberResult is one group size's measurements. One op is one
// whole-group multicast; syscall rates count the sender transport's
// transmit system calls per multicast.
type FanoutMemberResult struct {
	Members int `json:"members"`

	FanoutNsOp    float64 `json:"fanout_ns_op"`
	PerMemberNsOp float64 `json:"per_member_ns_op"`
	SpeedupX      float64 `json:"speedup_x"`

	FanoutMsgsPerSec    float64 `json:"fanout_msgs_per_sec"`
	PerMemberMsgsPerSec float64 `json:"per_member_msgs_per_sec"`

	// FanoutAllocsOp is the engine's steady state on the sim fixture —
	// the zero-allocation acceptance number.
	FanoutAllocsOp float64 `json:"fanout_allocs_op"`

	// UDP reports whether the loopback-socket arm ran for this size.
	UDP                       bool    `json:"udp"`
	FanoutTxSyscallsPerMsg    float64 `json:"fanout_tx_syscalls_per_msg,omitempty"`
	PerMemberTxSyscallsPerMsg float64 `json:"per_member_tx_syscalls_per_msg,omitempty"`
	// SyscallReductionFactor is the headline acceptance number:
	// per-member tx syscalls per multicast over fanout tx syscalls per
	// multicast (≈ members / ceil(members/64)).
	SyscallReductionFactor float64 `json:"syscall_reduction_factor,omitempty"`
}

// FanoutResult is the machine-readable output of the fanout experiment —
// the BENCH_9.json acceptance artifact.
type FanoutResult struct {
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	Vectorized   bool   `json:"vectorized"`
	PayloadBytes int    `json:"payload_bytes"`

	Members []FanoutMemberResult `json:"members"`
}

// Fanout runs the group-fanout experiment: template+stamp batched
// multicast vs per-member sends, across group sizes.
func Fanout(quick bool) (*FanoutResult, error) {
	reps := 3
	allocRuns := 2000
	sizes := FanoutMembers
	if quick {
		reps = 2
		allocRuns = 200
		sizes = sizes[:len(sizes)-1]
	}
	res := &FanoutResult{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Vectorized: runtime.GOOS == "linux" &&
			(runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64"),
		PayloadBytes: fanoutPayload,
	}
	for _, members := range sizes {
		r := FanoutMemberResult{Members: members}

		f, err := newFanoutSimFixture(members)
		if err != nil {
			return nil, err
		}
		if r.FanoutNsOp, err = fanoutMeasure(func() error { return f.fan.Send(f.payload) }, reps); err != nil {
			f.cleanup()
			return nil, err
		}
		for i := 0; i < 64; i++ {
			if err := f.fan.Send(f.payload); err != nil {
				f.cleanup()
				return nil, err
			}
		}
		r.FanoutAllocsOp = testing.AllocsPerRun(allocRuns, func() {
			if err := f.fan.Send(f.payload); err != nil {
				panic(err)
			}
		})
		f.cleanup()

		g, err := newFanoutSimFixture(members)
		if err != nil {
			return nil, err
		}
		if r.PerMemberNsOp, err = fanoutMeasure(g.sendPerMember, reps); err != nil {
			g.cleanup()
			return nil, err
		}
		g.cleanup()

		if r.FanoutNsOp > 0 {
			r.SpeedupX = r.PerMemberNsOp / r.FanoutNsOp
			r.FanoutMsgsPerSec = 1e9 / r.FanoutNsOp
		}
		if r.PerMemberNsOp > 0 {
			r.PerMemberMsgsPerSec = 1e9 / r.PerMemberNsOp
		}

		if members <= fanoutUDPMaxMembers {
			r.UDP = true
			if r.FanoutTxSyscallsPerMsg, err = fanoutSyscallPass(members, true); err != nil {
				return nil, err
			}
			if r.PerMemberTxSyscallsPerMsg, err = fanoutSyscallPass(members, false); err != nil {
				return nil, err
			}
			if r.FanoutTxSyscallsPerMsg > 0 {
				r.SyscallReductionFactor = r.PerMemberTxSyscallsPerMsg / r.FanoutTxSyscallsPerMsg
			}
		}
		res.Members = append(res.Members, r)
	}
	return res, nil
}

// fanoutSyscallPass counts the sender's transmit syscalls per multicast
// over real loopback sockets, for either arm.
func fanoutSyscallPass(members int, batched bool) (float64, error) {
	f, sender, err := newFanoutUDPFixture(members)
	if err != nil {
		return 0, err
	}
	defer f.cleanup()
	op := f.sendPerMember
	if batched {
		op = func() error { return f.fan.Send(f.payload) }
	}
	// Warm: prediction, pools, the transport's peer-address cache.
	for i := 0; i < 16; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	before := sender.Stats().TxSyscalls
	for i := 0; i < fanoutSyscallOps; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	delta := sender.Stats().TxSyscalls - before
	return float64(delta) / float64(fanoutSyscallOps), nil
}

// FanoutReport formats the result for the pabench console output.
func FanoutReport(r *FanoutResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Group fanout: build once, stamp per member, one batch (%s/%s, %d B payload)\n",
		r.GOOS, r.GOARCH, r.PayloadBytes)
	fmt.Fprintf(&b, "  one op = one whole-group multicast; control arm = one full Send per member\n")
	fmt.Fprintf(&b, "  %7s  %24s  %22s  %8s  %9s  %22s  %8s\n",
		"members", "fanout/per-member ns", "msgs/s (fan/per)", "speedup", "allocs/op", "tx sc/msg (fan/per)", "sc gain")
	for _, row := range r.Members {
		sys := fmt.Sprintf("%10s / %9s", "-", "-")
		gain := "-"
		if row.UDP {
			sys = fmt.Sprintf("%10.2f / %9.1f", row.FanoutTxSyscallsPerMsg, row.PerMemberTxSyscallsPerMsg)
			gain = fmt.Sprintf("%.1fx", row.SyscallReductionFactor)
		}
		fmt.Fprintf(&b, "  %7d  %10.0f / %11.0f  %9.0f / %10.0f  %7.1fx  %9.3f  %22s  %8s\n",
			row.Members, row.FanoutNsOp, row.PerMemberNsOp,
			row.FanoutMsgsPerSec, row.PerMemberMsgsPerSec,
			row.SpeedupX, row.FanoutAllocsOp, sys, gain)
	}
	return b.String()
}
