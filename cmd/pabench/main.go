// Command pabench regenerates every table and figure from the paper's
// evaluation section (§5): Table 4, Figure 4, Figure 5, the §5 layer-
// doubling experiment, the §2 header-overhead comparison, and the §1
// PA-vs-traditional-layering comparison.
//
// Each experiment prints the paper's published values next to the
// reproduced ones. "sim" rows come from the calibrated discrete-event
// model of the 1996 testbed; "real" rows are measured on the Go
// implementation over the in-memory network.
//
// Usage:
//
// The concurrency experiment (not in the paper — the reproduction's own
// multi-core scaling baseline) measures parallel receives through the
// sharded router and the fast-path allocation counts; -json writes its
// machine-readable baseline (BENCH_1.json).
//
// The faults experiment (also not in the paper, whose testbed observed no
// message loss) runs the deterministic chaos schedule: loss, duplication,
// reordering, corruption, stalled bursts, partitions and dead peers
// against the full 4-layer stack, reporting throughput and recovery
// latency per schedule; -json writes its machine-readable baseline
// (BENCH_2.json), and -seed pins the fault schedule.
//
// The recovery experiment drives the self-healing machinery through
// deterministic failover schedules — kill-and-heal partitions, NAT-style
// address flips, endpoint restarts, and an exhausted retry budget —
// checking exactly-once delivery and route migration without a new Dial;
// -json writes its baseline (BENCH_3.json), and -seed pins the schedule.
//
// The batch experiment measures vectorized transport I/O: engine-generated
// bursts over real UDP loopback with sendmmsg/recvmmsg batching versus the
// same engine restricted to one syscall per datagram, plus an in-memory
// reference run; -json writes its machine-readable baseline (BENCH_4.json).
//
// The gso experiment measures kernel-offload transport I/O: the same
// engine bursts with UDP_SEGMENT/UDP_GRO super-datagram coalescing
// enabled versus the plain sendmmsg tier, reporting ns/op and
// **syscalls/datagram** — every send and receive system call both
// transports issue divided by the datagrams delivered, the number the
// offload exists to shrink (a 256-datagram burst is 4 sendmmsg calls
// plain, 1 call of 4 super-datagrams offloaded). On kernels without
// UDP_SEGMENT the offload arm degrades to sendmmsg and the report says
// so; -json writes its machine-readable baseline (BENCH_6.json).
//
// The churn experiment measures overload robustness: the cache-packed
// routing table filled to 100k–1M learned entries (bytes/entry, loaded
// fast-path ns, incremental-GC sweep and pause bounds while draining it
// all), a seeded mass-redial storm against a small-capacity endpoint
// (admission fills to MaxConns, the storm detector trips, every refusal
// is a counted typed error, and one admitted victim connection loses
// nothing), and the same storm over real UDP loopback; -json writes its
// machine-readable baseline (BENCH_7.json), and -seed pins the schedule.
//
// The topo experiment drives the engine across the virtual internet —
// routed multi-hop topologies with finite router queues and NAT
// middleboxes — under three seeded schedules: a NAT mapping that idles
// out and rebinds mid-session, a partition-and-heal along an interior
// edge, and a bufferbloat ramp into queue overflow. Each schedule must
// end exactly-once in-order with overload surfaced as typed
// backpressure; -json writes its baseline (BENCH_8.json) plus a pcap
// trace of each schedule's interior edge next to it, and -seed pins the
// schedule.
//
// The telemetry experiment measures the observability layer's overhead:
// the round-trip fast path with the recorder disabled, enabled at the
// default 1-in-8 duration sampling, and enabled unsampled, plus the
// instrumented fast path's alloc counts and the histograms the enabled
// run recorded; -json writes its baseline (BENCH_5.json).
//
// The fanout experiment measures shared pre-processing group multicast:
// one whole-group send through the template+stamp engine (build the
// datagram and run the send filter once, stamp each member's predicted
// headers, transmit as one scattered-destination batch) versus one full
// per-member Send each, across group sizes up to 4096. It reports the
// msgs/s × members curve, steady-state allocs/op, and **tx
// syscalls/message** over real loopback sockets — per-member sends pay
// one syscall per member, the batch pays one per 64; -json writes its
// machine-readable baseline (BENCH_9.json).
//
// Usage:
//
// The secure experiment measures the AES-GCM encryption layer riding the
// fast path: one send + synchronous authenticated deliver through the
// encrypted stack versus the checksum stack, across payload sizes, plus
// the steady-state alloc count (acceptance: 0) and the cost of one
// rekey; -json writes its machine-readable baseline (BENCH_10.json).
//
// Usage:
//
//	pabench [-exp all|table4|fig4|fig5|layers|headers|baseline|concurrency|faults|recovery|batch|gso|fanout|telemetry|churn|topo|secure] [-quick] [-sim-only] [-json file] [-seed n]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"paccel/internal/experiments"
)

// experiment is one row of the table of experiments that produce a
// machine-readable result (-json). The paper's own tables and figures
// print text only and stay as explicit blocks in main.
type experiment struct {
	name          string
	needsHardware bool // a real measurement: skipped under -sim-only
	seeded        bool // -seed pins its schedule
	run           func(quick bool, seed int64) (report string, result any, err error)
}

var table = []experiment{
	{name: "concurrency", needsHardware: true, run: unseeded(experiments.Concurrency, experiments.ConcurrencyReport)},
	{name: "faults", seeded: true, run: seeded(experiments.Faults, experiments.FaultsReport)},
	{name: "recovery", seeded: true, run: seeded(experiments.Recovery, experiments.RecoveryReport)},
	{name: "batch", needsHardware: true, run: unseeded(experiments.Batch, experiments.BatchReport)},
	{name: "gso", needsHardware: true, run: unseeded(experiments.GSO, experiments.GSOReport)},
	{name: "fanout", needsHardware: true, run: unseeded(experiments.Fanout, experiments.FanoutReport)},
	{name: "telemetry", needsHardware: true, run: unseeded(experiments.Telemetry, experiments.TelemetryReport)},
	{name: "churn", needsHardware: true, seeded: true, run: seeded(experiments.Churn, experiments.ChurnReport)},
	{name: "topo", seeded: true, run: seeded(topo, experiments.TopoReport)},
	{name: "secure", needsHardware: true, run: unseeded(experiments.Secure, experiments.SecureReport)},
}

func seeded[R any](run func(bool, int64) (R, error), report func(R) string) func(bool, int64) (string, any, error) {
	return func(quick bool, seed int64) (string, any, error) {
		res, err := run(quick, seed)
		if err != nil {
			return "", nil, err
		}
		return report(res), res, nil
	}
}

func unseeded[R any](run func(bool) (R, error), report func(R) string) func(bool, int64) (string, any, error) {
	return seeded(func(quick bool, _ int64) (R, error) { return run(quick) }, report)
}

// names lists the table's experiments (all, or the seeded ones) for the
// flag help.
func names(onlySeeded bool) string {
	var ns []string
	for _, e := range table {
		if e.seeded || !onlySeeded {
			ns = append(ns, e.name)
		}
	}
	return strings.Join(ns, ", ")
}

// topoPcapDir is where topo drops each schedule's interior-edge trace
// (topo_<schedule>.pcap): next to the -json baseline; empty discards them.
var topoPcapDir string

func topo(quick bool, seed int64) (*experiments.TopoResult, error) {
	var pcapFor func(string) io.Writer
	var opened []*os.File
	if topoPcapDir != "" {
		pcapFor = func(scenario string) io.Writer {
			f, err := os.Create(filepath.Join(topoPcapDir, "topo_"+scenario+".pcap"))
			fail(err)
			opened = append(opened, f)
			return f
		}
	}
	res, err := experiments.Topo(quick, seed, pcapFor)
	for _, f := range opened {
		fail(f.Close())
	}
	return res, err
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table4, fig4, fig5, layers, headers, baseline, serverload, hiccups, "+names(false))
	quick := flag.Bool("quick", false, "use short real-measurement runs")
	simOnly := flag.Bool("sim-only", false, "skip the real-hardware measurements")
	csv := flag.Bool("csv", false, "with -exp fig5: emit plot-ready CSV instead of the table")
	jsonPath := flag.String("json", "", "with -exp "+names(false)+": also write the machine-readable baseline to this file")
	seed := flag.Int64("seed", 0, "with -exp "+names(true)+": schedule seed (0 = fixed default)")
	flag.Parse()

	run := func(name string) bool { return *exp == "all" || *exp == name }
	any := false

	if run("table4") {
		any = true
		fmt.Println(experiments.Table4Sim())
		if !*simOnly {
			out, err := experiments.Table4Real(*quick)
			fail(err)
			fmt.Println(out)
		}
	}
	if run("fig4") {
		any = true
		fmt.Println(experiments.Fig4())
	}
	if run("fig5") {
		any = true
		n := 2000
		if *quick {
			n = 400
		}
		if *csv {
			fmt.Print(experiments.Fig5CSV(n))
		} else {
			fmt.Println(experiments.Fig5(n))
		}
	}
	if run("layers") {
		any = true
		fmt.Println(experiments.LayersSim())
		if !*simOnly {
			out, err := experiments.LayersReal(*quick)
			fail(err)
			fmt.Println(out)
		}
	}
	if run("headers") {
		any = true
		out, err := experiments.Headers()
		fail(err)
		fmt.Println(out)
	}
	if run("baseline") {
		any = true
		fmt.Println(experiments.BaselineSim())
		if !*simOnly {
			out, err := experiments.BaselineReal(*quick)
			fail(err)
			fmt.Println(out)
		}
	}
	if run("serverload") {
		any = true
		fmt.Println(experiments.ServerLoad())
	}
	if run("hiccups") {
		any = true
		fmt.Println(experiments.Hiccups())
	}
	if *jsonPath != "" {
		topoPcapDir = filepath.Dir(*jsonPath)
	}
	for _, e := range table {
		if !run(e.name) {
			continue
		}
		any = true
		if e.needsHardware && *simOnly {
			fmt.Printf("%s: skipped (real-hardware measurement only)\n", e.name)
			continue
		}
		report, res, err := e.run(*quick, *seed)
		fail(err)
		fmt.Println(report)
		if *jsonPath != "" {
			out, err := experiments.JSON(res)
			fail(err)
			fail(os.WriteFile(*jsonPath, []byte(out), 0o644))
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pabench:", err)
		os.Exit(1)
	}
}
