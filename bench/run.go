package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// The run protocol (README.md has the reasons): one process, one
// load-generating goroutine. Per workload: set up several times (setup_s is
// the median), warm up, then numWindows timed windows; every reported value
// is the median of the windows' values, percentiles computed per window.
const (
	numWindows = 5
	// The warm-up is half a window, at least minWarmup.
	minWarmup = 200 * time.Millisecond
	// Set-up is repeated until setupBudget is spent, between the harness's
	// minSetups and maxSetups times.
	setupBudget = 500 * time.Millisecond
	// stallAfter is how long the run may go without a single delivery
	// before it is declared stalled.
	stallAfter = 30 * time.Second
	// latencySamples is the recorder's capacity: rt_sim_8b makes ~450k
	// samples a second for 11 s.
	latencySamples = 8 << 20
)

// metric is one reported value: the median over the windows, with the
// spread across them beside it.
type metric struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Windows []float64 `json:"windows,omitempty"`
	Samples []int     `json:"samples,omitempty"` // per window, for percentiles
}

func newMetric(unit string, vs []float64) metric {
	lo, hi := minMax(vs)
	return metric{Unit: unit, Value: median(vs), Min: lo, Max: hi, Windows: vs}
}

type e2eDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics, in the order BENCHMARK.json lists
// them. Every workload reports every one.
var e2eMetrics = []e2eDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"msgs_per_s", "1/s"},
	{"goodput_mb_s", "MB/s"},
	{"conn_mem_kb", "KB"},
}

// errNoSample fails a pass in which a window recorded no latency: its
// percentiles would read 0.
var errNoSample = errors.New("a window recorded no latency sample")

// result is what one pass over one workload produced.
type result struct {
	Attempted, Failed uint64
	Metrics           map[string]metric
	// P999us is printed, not gated: p99.9 on a shared VM is weather.
	P999us float64
}

// harness owns the buffers that are reused across workloads.
type harness struct {
	rec  *recorder
	tr   *tracer
	seed int64
	// window is the length of one timed window.
	window time.Duration
	warmup time.Duration
	// Set-up is repeated between minSetups and maxSetups times.
	minSetups, maxSetups int
	outDir               string
	// watching is what the stall watchdog watches.
	watching atomic.Pointer[recorder]
}

func newHarness(seed int64, seconds float64, samples int) *harness {
	window := time.Duration(seconds / numWindows * float64(time.Second))
	h := &harness{
		seed:      seed,
		window:    window,
		warmup:    max(window/2, minWarmup),
		minSetups: 5,
		maxSetups: 101,
		outDir:    filepath.Join("bench", "out"),
		rec:       newRecorder(samples),
	}
	go h.watchdog()
	return h
}

// watchdog exits the process when the workload under way stops delivering:
// a closed loop that lost its reply would otherwise block for ever.
func (h *harness) watchdog() {
	var last uint64
	idle := time.Duration(0)
	const tick = 500 * time.Millisecond
	for {
		time.Sleep(tick)
		r := h.watching.Load()
		if r == nil {
			idle = 0
			continue
		}
		if n := r.msgs.Load(); n != last {
			last, idle = n, 0
			continue
		}
		if idle += tick; idle >= stallAfter {
			fmt.Fprintf(os.Stderr, "bench: stalled: no message delivered for %v\n", stallAfter)
			os.Exit(3)
		}
	}
}

func (h *harness) newGen(w *workload, tr *tracer, fails *failCounts) gen {
	return w.new(base{seed: h.seed, tr: tr, pat: newPattern(h.seed, w.payload), rec: h.rec, fails: fails})
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	// One cycle is not enough: sync.Pool contents survive one in the victim
	// cache, and what finalizers and stopped timers held is only freed by
	// the cycle after they ran.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runE2E is the untraced pass: no tap, no tracer, nothing but the facade.
func (h *harness) runE2E(w *workload) (*result, error) {
	fails := &failCounts{}
	var g gen
	var setups, memKB []float64
	for spent := time.Duration(0); len(setups) < h.minSetups || (spent < setupBudget && len(setups) < h.maxSetups); {
		if g != nil {
			g.close()
		}
		h.rec.reset()
		before := heapAlloc()
		g = h.newGen(w, nil, fails)
		t0 := time.Now()
		if err := g.setup(); err != nil {
			g.close()
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		dt := time.Since(t0)
		spent += dt
		setups = append(setups, dt.Seconds())
		after := heapAlloc()
		memKB = append(memKB, float64(int64(after)-int64(before))/float64(g.pairs())/1024)
	}
	defer g.close()
	setupOps := h.rec.ops // the last set-up's own operations are attempted too

	h.watching.Store(h.rec)
	defer h.watching.Store(nil)
	g.run(nanos() + int64(h.warmup))
	marks := make([]mark, 0, numWindows+1)
	marks = append(marks, h.rec.mark())
	for i := 0; i < numWindows; i++ {
		g.run(marks[i].t + int64(h.window))
		marks = append(marks, h.rec.mark())
	}
	g.drain()

	p50, p99, p999 := make([]float64, numWindows), make([]float64, numWindows), make([]float64, numWindows)
	rate, goodput := make([]float64, numWindows), make([]float64, numWindows)
	samples := make([]int, numWindows)
	for i := 0; i < numWindows; i++ {
		a, b := marks[i], marks[i+1]
		lat := slices.Clone(h.rec.lat[a.n:b.n])
		slices.Sort(lat)
		samples[i] = len(lat)
		p50[i], p99[i], p999[i] = percentile(lat, 0.50)/1e3, percentile(lat, 0.99)/1e3, percentile(lat, 0.999)/1e3
		wall := float64(b.t-a.t) / 1e9
		rate[i] = float64(b.msgs-a.msgs) / wall
		goodput[i] = rate[i] * float64(w.payload) / 1e6
	}
	values := map[string][]float64{
		"setup_s": setups, "op_p50_us": p50, "op_p99_us": p99,
		"msgs_per_s": rate, "goodput_mb_s": goodput, "conn_mem_kb": memKB,
	}
	m := make(map[string]metric, len(e2eMetrics))
	for _, d := range e2eMetrics {
		mm := newMetric(d.unit, values[d.name])
		if d.name == "op_p50_us" || d.name == "op_p99_us" {
			mm.Samples = samples
		}
		m[d.name] = mm
	}
	res := &result{Attempted: setupOps + h.rec.ops, Failed: fails.total(), Metrics: m, P999us: median(p999)}
	if slices.Min(samples) == 0 {
		return res, fmt.Errorf("%s: %w", w.name, errNoSample)
	}
	if res.Failed > 0 {
		return res, fmt.Errorf("%s: %d of %d operations failed (lost %d, duplicated or reordered %d, corrupted %d, send errors %d, undelivered %d)",
			w.name, res.Failed, res.Attempted, fails.lost.Load(), fails.dup.Load(), fails.corrupt.Load(), fails.sendErr.Load(), fails.short.Load())
	}
	return res, nil
}

var spanMetricUnits = map[string]string{
	"core.send_self_ns":   "ns",
	"core.recv_self_ns":   "ns",
	"core.dial_self_ns":   "ns",
	"core.close_self_ns":  "ns",
	"trace.span_cost_ns":  "ns",
	"app.callback_ns":     "ns",
	"netsim.send_self_ns": "ns",
	"udp.send_ns":         "ns",
	"udp.wait_ns":         "ns",
	"gen.self_ns":         "ns",
	"ledger.residual_pct": "%",
	"trace.overhead_pct":  "%",
	"trace.sampled_ops":   "count",
	"gen.late_p99_us":     "us",
	"failed_ops_ratio":    "ratio",
}

// runTraced is the traced pass: the same generator over tapped transports,
// for half as long as the untraced pass. It gives the count metrics, the
// ledger, and what tracing cost.
func (h *harness) runTraced(w *workload) (map[string]float64, *result, error) {
	if h.tr == nil {
		h.tr = newTracer()
	}
	tr := h.tr
	tr.on = false
	tr.reset()
	cost := tr.calibrate()
	fails := &failCounts{}
	h.rec.reset()
	g := h.newGen(w, tr, fails)
	if err := g.setup(); err != nil {
		g.close()
		return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer g.close()
	h.watching.Store(h.rec)
	defer h.watching.Store(nil)
	g.run(nanos() + int64(h.warmup))

	// Half the pass in seconds, cut into slices that alternate between
	// counting only and sampling spans, so that a machine that changes
	// speed mid-run slows both kinds of slice alike. The counters run over
	// all of them: sampling does not change what they count.
	const nSlices = 10
	slice := h.window * numWindows / 2 / nSlices
	var c0, c1 counts
	g.collect(&c0)
	p0 := readProc()
	m0 := h.rec.mark()
	var marks [nSlices + 1]mark
	marks[0] = m0
	for i := 0; i < nSlices; i++ {
		tr.on = i%2 == 1
		g.run(marks[i].t + int64(slice))
		tr.cancelOp()
		marks[i+1] = h.rec.mark()
	}
	tr.on = false
	m1 := marks[nSlices]
	p1 := readProc()
	g.collect(&c1)
	g.drain()

	// Nothing above allocates between p0 and p1: the slices' samples are
	// gathered only now, by kind of slice (0 counting only, 1 sampling).
	var lat [2][]uint32
	var msgs, ns [2]float64 // delivered and elapsed
	for i := 0; i < nSlices; i++ {
		a, b := marks[i], marks[i+1]
		lat[i%2] = append(lat[i%2], h.rec.lat[a.n:b.n]...)
		msgs[i%2] += float64(b.msgs - a.msgs)
		ns[i%2] += float64(b.t - a.t)
	}
	slices.Sort(lat[0])
	slices.Sort(lat[1])
	untracedP50, tracedP50 := percentile(lat[0], 0.5), percentile(lat[1], 0.5)

	out := countMetrics(c1.since(c0), c1, p0, p1, m1.ops-m0.ops, m1.msgs-m0.msgs, w.payload)

	l := selfTimes(tr.recorded(), cost, w.causal)
	out["core.send_self_ns"] = l.self[spanCoreSend]
	out["core.recv_self_ns"] = l.self[spanCoreRecv]
	out["core.dial_self_ns"] = l.self[spanCoreDial]
	out["core.close_self_ns"] = l.self[spanCoreClose]
	out["trace.span_cost_ns"] = l.cost.total
	out["app.callback_ns"] = l.self[spanAppCallback]
	out["netsim.send_self_ns"] = l.self[spanNetsimSend]
	out["udp.send_ns"] = l.wall[spanUDPSend]
	// The operation's own self time is the generator's on netsim; on a UDP
	// round trip it is the time nothing of ours ran: kernel loopback,
	// netpoller, goroutine hand-off.
	out["gen.self_ns"], out["udp.wait_ns"] = 0, 0
	if w.causal && l.wall[spanUDPSend] > 0 {
		out["udp.wait_ns"] = l.self[spanOp]
	} else {
		out["gen.self_ns"] = l.self[spanOp]
	}
	out["trace.sampled_ops"] = float64(l.ops)
	// What tracing costs the workload: in latency where the loop is closed,
	// in throughput where it saturates.
	out["trace.overhead_pct"] = 100 * ratio(tracedP50-untracedP50, untracedP50)
	if !w.causal {
		plain, sampled := ratio(msgs[0], ns[0]), ratio(msgs[1], ns[1])
		out["trace.overhead_pct"] = 100 * ratio(plain-sampled, plain)
	}
	out["ledger.residual_pct"] = 0
	if w.causal {
		// The parts, each corrected for the cost of measuring it, against
		// the whole as the unsampled operations of the same windows saw it.
		var sum float64
		for k := range l.self {
			sum += l.self[k]
		}
		out["ledger.residual_pct"] = 100 * ratio(math.Abs(sum-tracedP50), tracedP50)
	}
	late := slices.Clone(h.rec.late[:h.rec.nl])
	slices.Sort(late)
	out["gen.late_p99_us"] = percentile(late, 0.99) / 1e3
	res := &result{Attempted: h.rec.ops, Failed: fails.total()}
	out["failed_ops_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))

	if err := l.writeTrace(filepath.Join(h.outDir, "trace_"+w.name+".json")); err != nil {
		return out, res, err
	}
	if res.Failed > 0 {
		return out, res, fmt.Errorf("%s (traced): %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return out, res, nil
}
