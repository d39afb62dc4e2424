package main

import (
	"runtime"
	"syscall"

	"paccel"
)

// counts are the cumulative counters read at the module boundaries: the
// engine's public Stats()/Snapshot(), the transports' Stats(), and the
// taps. A traced run reads them before and after its counting windows and
// works on the difference.
type counts struct {
	// all sums every connection's ConnStats; client only the side that
	// originates application data (packing is counted on both sides of a
	// connection, batches only where they are built).
	all, client paccel.ConnStats
	conns       uint64 // connections the counters were read from

	learned, tableEntries, tableBytes uint64
	batchSends, batchDatagrams        uint64
	netSent, netLost                  uint64
	udpTx, udpRx                      uint64
	tapCalls, tapDatagrams, tapBytes  uint64
}

// connFields are the ConnStats counters the count metrics use.
func connFields(s *paccel.ConnStats) [14]*uint64 {
	return [...]*uint64{
		&s.Sent, &s.FastSends, &s.SlowSends, &s.Backlogged, &s.PackedBatches, &s.PackedMsgs,
		&s.Delivered, &s.FastDelivers, &s.SlowDelivers, &s.ConnIDSent, &s.PostRuns,
		&s.ControlMsgs, &s.Retransmits, &s.SendErrors,
	}
}

func addConnStats(d *paccel.ConnStats, s paccel.ConnStats) {
	for i, f := range connFields(&s) {
		*connFields(d)[i] += *f
	}
}

func subConnStats(a, b paccel.ConnStats) paccel.ConnStats {
	for i, f := range connFields(&b) {
		*connFields(&a)[i] -= *f
	}
	return a
}

func (c *counts) addConn(s paccel.ConnStats, client bool) {
	addConnStats(&c.all, s)
	if client {
		addConnStats(&c.client, s)
	}
}

func (c *counts) add(o *counts) {
	addConnStats(&c.all, o.all)
	addConnStats(&c.client, o.client)
	c.conns += o.conns
}

// since returns c − before for the counters that accumulate; the gauges
// (table size, connections) keep their current value.
func (c counts) since(before counts) counts {
	c.all = subConnStats(c.all, before.all)
	c.client = subConnStats(c.client, before.client)
	c.learned -= before.learned
	c.batchSends -= before.batchSends
	c.batchDatagrams -= before.batchDatagrams
	c.netSent -= before.netSent
	c.netLost -= before.netLost
	c.udpTx -= before.udpTx
	c.udpRx -= before.udpRx
	c.tapCalls -= before.tapCalls
	c.tapDatagrams -= before.tapDatagrams
	c.tapBytes -= before.tapBytes
	return c
}

// procStats are the process-wide counters: allocator, collector, CPU time.
type procStats struct {
	mallocs, allocBytes, gcPauseNs uint64
	userNs, sysNs                  int64
	wallNs                         int64
}

func readProc() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procStats{
		mallocs: m.Mallocs, allocBytes: m.TotalAlloc, gcPauseNs: m.PauseTotalNs,
		userNs: ru.Utime.Nano(), sysNs: ru.Stime.Nano(), wallNs: nanos(),
	}
}

var countMetricUnits = map[string]string{
	"core.fast_send_ratio":           "ratio",
	"core.fast_deliver_ratio":        "ratio",
	"core.backlogged_ratio":          "ratio",
	"core.msgs_per_packed":           "count",
	"core.control_per_msg":           "count",
	"core.post_runs_per_msg":         "count",
	"core.allocs_per_op":             "count",
	"core.alloc_bytes_per_op":        "B",
	"layers.window.retrans_per_kmsg": "count",
	"transport.datagrams_per_msg":    "count",
	"transport.tx_calls_per_msg":     "count",
	"transport.wire_bytes_per_msg":   "B",
	"core.overhead_bytes_per_msg":    "B",
	"udp.tx_syscalls_per_msg":        "count",
	"udp.rx_syscalls_per_msg":        "count",
	"core.table_entries":             "count",
	"core.table_bytes_per_entry":     "B",
	"core.conn_id_sent_per_conn":     "count",
	"core.cookies_learned":           "count",
	"netsim.lost_per_kdgram":         "count",
	"proc.cpu_user_us_per_op":        "us",
	"proc.cpu_sys_us_per_op":         "us",
	"proc.cpu_util":                  "cores",
	"proc.gc_pause_ms_per_s":         "ms/s",
	"core.batch_sends_per_msg":       "count",
	"core.datagrams_per_batch":       "count",
}

// countMetrics turns the counter differences over the counting windows
// into the per-layer count metrics. ops and msgs are what the generator
// did in the same windows; total is the cumulative reading, for the
// figures that describe a connection's whole life.
func countMetrics(d, total counts, p0, p1 procStats, ops, msgs uint64, payload int) map[string]float64 {
	o, m := float64(ops), float64(msgs)
	wall := float64(p1.wallNs - p0.wallNs)
	cpu := float64(p1.userNs-p0.userNs) + float64(p1.sysNs-p0.sysNs)
	wire := float64(d.tapBytes)
	return map[string]float64{
		"core.fast_send_ratio":           ratio(float64(d.all.FastSends), float64(d.all.Sent)),
		"core.fast_deliver_ratio":        ratio(float64(d.all.FastDelivers), float64(d.all.FastDelivers+d.all.SlowDelivers)),
		"core.backlogged_ratio":          ratio(float64(d.all.Backlogged), float64(d.all.Sent)),
		"core.msgs_per_packed":           ratio(float64(d.client.PackedMsgs), float64(d.client.PackedBatches)),
		"core.control_per_msg":           ratio(float64(d.all.ControlMsgs), m),
		"core.post_runs_per_msg":         ratio(float64(d.all.PostRuns), m),
		"core.allocs_per_op":             ratio(float64(p1.mallocs-p0.mallocs), o),
		"core.alloc_bytes_per_op":        ratio(float64(p1.allocBytes-p0.allocBytes), o),
		"layers.window.retrans_per_kmsg": ratio(1000*float64(d.all.Retransmits), m),
		"transport.datagrams_per_msg":    ratio(float64(d.tapDatagrams), m),
		"transport.tx_calls_per_msg":     ratio(float64(d.tapCalls), m),
		"transport.wire_bytes_per_msg":   ratio(wire, m),
		"core.overhead_bytes_per_msg":    ratio(wire-m*float64(payload), m),
		"udp.tx_syscalls_per_msg":        ratio(float64(d.udpTx), m),
		"udp.rx_syscalls_per_msg":        ratio(float64(d.udpRx), m),
		"core.table_entries":             float64(total.tableEntries),
		"core.table_bytes_per_entry":     ratio(float64(total.tableBytes), float64(total.tableEntries)),
		"core.conn_id_sent_per_conn":     ratio(float64(total.all.ConnIDSent), float64(total.conns)),
		"core.cookies_learned":           float64(total.learned),
		"netsim.lost_per_kdgram":         ratio(1000*float64(d.netLost), float64(d.netSent)),
		"proc.cpu_user_us_per_op":        ratio(float64(p1.userNs-p0.userNs)/1e3, o),
		"proc.cpu_sys_us_per_op":         ratio(float64(p1.sysNs-p0.sysNs)/1e3, o),
		"proc.cpu_util":                  ratio(cpu, wall),
		"proc.gc_pause_ms_per_s":         ratio(float64(p1.gcPauseNs-p0.gcPauseNs)/1e6, wall/1e9),
		"core.batch_sends_per_msg":       ratio(float64(d.batchSends), m),
		"core.datagrams_per_batch":       ratio(float64(d.batchDatagrams), float64(d.batchSends)),
	}
}
