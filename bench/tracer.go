package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"paccel"
)

// Span kinds: one per boundary the benchmark can see from outside the
// library. The engine is spanned where the benchmark calls into it
// (Conn.Send) and where its transport calls into it (the receive
// handler); the transport where the engine calls into it.
const (
	spanOp          uint8 = iota // one generator operation, start to completion
	spanCoreSend                 // a Conn.Send call made by the benchmark
	spanCoreRecv                 // a transport receive-handler call into the engine
	spanAppCallback              // the benchmark's own deliver callback
	spanNetsimSend               // netsim Send/SendBatch/SendBatchTo
	spanUDPSend                  // udp Send/SendBatch/SendBatchTo
	spanCoreDial                 // an Endpoint.Dial call made by the benchmark
	spanCoreClose                // a Conn.Close call made by the benchmark
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"op", "core.send", "core.recv", "app.callback", "netsim.send", "udp.send", "core.dial", "core.close"}

// span is one recorded interval. Parents are not tracked while recording
// (there is no goroutine identity to hang a stack on): nesting is rebuilt
// afterwards from containment, which is exact for a synchronous call tree.
type span struct {
	start, end int64
	op         int32
	kind       uint8
	// bare marks an operation span recorded with every other span kind
	// switched off (the control group, see traceEvery).
	bare bool
}

// traceEvery is the sampling stride: operations whose index has
// (index/traceBurst)%traceEvery == 0 are spanned, so one operation in
// sixteen pays the clock reads, in bursts of traceBurst consecutive
// operations (a burst keeps the sampling flag up long enough for receive
// handlers on other goroutines to be caught on the streaming workloads).
//
// Every other burst records only the operation's own span. Those
// operations are not part of the ledger; they are its control group: the
// same operations without the inner spans, so the difference between the
// two groups' durations, divided by the spans per operation, is what a
// span costs where it is actually used — a clock read serializes the
// pipeline, and how much that hurts depends on the code around it, which a
// calibration loop cannot know (here: ~85 ns in place against ~68 ns in a
// tight loop).
const (
	bareBit = 1 << 62

	traceEvery = 16
	traceBurst = 16
	maxSpans   = 1 << 20
	// maxSpansWritten bounds the trace file; the analysis uses every span.
	maxSpansWritten = 50000
)

// tracer records spans into a pre-allocated buffer. A nil *tracer is valid
// and records nothing, so the untraced pass runs the same generator code
// with two predictable branches per operation.
type tracer struct {
	spans []span
	n     atomic.Int64
	// cur is the operation being spanned, or -1. Receive goroutines read
	// it, hence atomic.
	cur atomic.Int64
	// on gates sampling: the counting windows of a traced run keep the taps
	// installed but record no spans.
	on bool
}

func newTracer() *tracer {
	t := &tracer{spans: make([]span, maxSpans)}
	for i := 0; i < len(t.spans); i += 128 {
		t.spans[i].op = 0 // touch the pages before anything is timed
	}
	t.cur.Store(-1)
	return t
}

// startOp marks the beginning of generator operation i.
func (t *tracer) startOp(i uint64) {
	if t == nil || !t.on {
		return
	}
	if b := i / traceBurst; b%traceEvery == 0 && t.n.Load() < maxSpans-64 {
		t.cur.Store(int64(i&(1<<31-1)) | int64(b/traceEvery%2)*bareBit)
	}
}

// endOp records the operation's own span from the generator's timestamps.
func (t *tracer) endOp(start, end int64) {
	if t == nil {
		return
	}
	op := t.cur.Load()
	if op < 0 {
		return
	}
	if i := t.n.Add(1) - 1; i < maxSpans {
		t.spans[i] = span{start: start, end: end, op: int32(op), kind: spanOp, bare: op&bareBit != 0}
	}
	t.cur.Store(-1)
}

// sampling reports whether the current operation is being spanned.
func (t *tracer) sampling() bool { return t != nil && t.cur.Load() >= 0 }

// cancelOp abandons the current operation without recording its span.
func (t *tracer) cancelOp() {
	if t != nil {
		t.cur.Store(-1)
	}
}

// begin opens a span of the given kind if an operation is being sampled;
// the returned index goes to end.
func (t *tracer) begin(kind uint8) int64 {
	if t == nil {
		return -1
	}
	op := t.cur.Load()
	if op < 0 || op&bareBit != 0 {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= maxSpans {
		return -1
	}
	t.spans[i] = span{op: int32(op), kind: kind, start: nanos()}
	return i
}

func (t *tracer) end(i int64) {
	if i >= 0 {
		t.spans[i].end = nanos()
	}
}

func (t *tracer) reset() {
	t.n.Store(0)
	t.cur.Store(-1)
}

// recorded returns the completed spans.
func (t *tracer) recorded() []span {
	n := min(t.n.Load(), maxSpans)
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.end >= s.start && s.end != 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanCost is the price of one span: total is what a begin/end pair adds
// to the enclosing operation, inside the part of it that falls within the
// span's own recorded duration. calibrate measures both in a tight loop;
// selfTimes replaces total by the in-place estimate from the control group
// when the trace has one.
type spanCost struct{ total, inside float64 }

func (t *tracer) calibrate() spanCost {
	const batches, n = 15, 4000
	on := t.on
	t.on = true
	totals, durs := make([]float64, 0, batches), make([]float64, 0, batches*n)
	for b := 0; b < batches; b++ {
		t.reset()
		t.cur.Store(0)
		t0 := nanos()
		for i := 0; i < n; i++ {
			t.end(t.begin(spanCoreSend))
		}
		totals = append(totals, float64(nanos()-t0)/n)
		for _, s := range t.spans[:n] {
			durs = append(durs, float64(s.end-s.start))
		}
	}
	t.reset()
	t.on = on
	return spanCost{total: median(totals), inside: median(durs)}
}

// ledger is the traced pass boiled down: per span kind, the self time per
// operation, in nanoseconds.
type ledger struct {
	self    [numSpanKinds]float64
	wall    [numSpanKinds]float64 // uncorrected span duration per operation
	ops     int                   // sampled operations
	parents []int32               // parent index per span, for the trace file
	sorted  []span
	cost    spanCost // as used: total priced in place when possible
}

// selfTimes rebuilds the nesting and computes each span's self time: its
// duration minus the part its direct children cover, minus the cost of the
// instrumentation itself (its own clock reads, and the part of each
// child's that falls outside the child's recorded interval).
//
// With causal set (closed-loop workloads: everything an operation causes
// happens inside it) the per-kind value is the median over sampled
// operations of the operation's summed self time; otherwise (streams) it
// is the total over all spans divided by the sampled operations. Only
// fully instrumented operations enter the ledger; the bare ones price the
// spans.
func selfTimes(spans []span, cost spanCost, causal bool) *ledger {
	slices.SortFunc(spans, func(a, b span) int {
		if a.start != b.start {
			if a.start < b.start {
				return -1
			}
			return 1
		}
		if a.end != b.end { // the longer span first: it is the parent
			if a.end > b.end {
				return -1
			}
			return 1
		}
		return int(a.kind) - int(b.kind) // the op span outermost
	})
	l := &ledger{sorted: spans, parents: make([]int32, len(spans)), cost: cost}
	self := make([]float64, len(spans))
	kids := make([]int, len(spans))
	root := make([]int32, len(spans)) // the op span a span descends from, or -1
	var stack []int32
	for i, s := range spans {
		self[i] = float64(s.end - s.start)
		// Drop finished spans; then the nearest open span that contains
		// this one is its parent. A span that only overlaps (another
		// goroutine's) stays open but is skipped.
		keep := stack[:0]
		for _, j := range stack {
			if spans[j].end > s.start {
				keep = append(keep, j)
			}
		}
		stack = keep
		l.parents[i], root[i] = -1, -1
		if s.kind == spanOp {
			root[i] = int32(i)
		}
		for k := len(stack) - 1; k >= 0; k-- {
			if j := stack[k]; spans[j].end >= s.end {
				l.parents[i], root[i] = j, root[j]
				self[j] -= float64(s.end - s.start)
				kids[j]++
				break
			}
		}
		stack = append(stack, int32(i))
	}

	// Price a span in place: operations of the two groups differ only in
	// how many spans they carry.
	under := make([]float64, len(spans)) // spans under each op span
	for i := range spans {
		if r := root[i]; r >= 0 && int(r) != i {
			under[r]++
		}
	}
	var durFull, durBare, nFull []float64
	for i, s := range spans {
		if s.kind != spanOp {
			continue
		}
		if s.bare {
			durBare = append(durBare, float64(s.end-s.start))
		} else {
			durFull, nFull = append(durFull, float64(s.end-s.start)), append(nFull, under[i])
		}
	}
	avg := median
	if !causal {
		avg = mean
	}
	if n := avg(nFull); len(durBare) >= 100 && n >= 1 {
		// An estimate far from the tight-loop figure is noise (too few
		// spans per operation to tell), not a price.
		if c := (avg(durFull) - avg(durBare)) / n; c > cost.total/2 && c < cost.total*3 {
			l.cost.total = c
		}
	}
	cost = l.cost
	for i, s := range spans {
		if s.kind != spanOp {
			self[i] -= cost.inside
		}
		self[i] -= float64(kids[i]) * (cost.total - cost.inside)
	}

	full := func(i int) bool { r := root[i]; return r < 0 || !spans[r].bare }
	perOp := map[int32]*[numSpanKinds][2]float64{}
	var total [numSpanKinds][2]float64
	for i, s := range spans {
		if !full(i) {
			continue
		}
		if s.kind == spanOp {
			l.ops++
		}
		total[s.kind][0] += self[i]
		total[s.kind][1] += float64(s.end - s.start)
		if causal {
			po := perOp[s.op]
			if po == nil {
				po = new([numSpanKinds][2]float64)
				perOp[s.op] = po
			}
			po[s.kind][0] += self[i]
			po[s.kind][1] += float64(s.end - s.start)
		}
	}
	if l.ops == 0 {
		return l
	}
	for k := 0; k < int(numSpanKinds); k++ {
		if !causal {
			l.self[k] = total[k][0] / float64(l.ops)
			l.wall[k] = total[k][1] / float64(l.ops)
			continue
		}
		vs := make([]float64, 0, len(perOp))
		ws := make([]float64, 0, len(perOp))
		for _, po := range perOp {
			vs = append(vs, po[k][0])
			ws = append(ws, po[k][1])
		}
		l.self[k], l.wall[k] = median(vs), median(ws)
	}
	return l
}

// writeTrace writes the spans (name, start, end, parent, op) as JSON.
func (l *ledger) writeTrace(path string) error {
	type row struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Op     int32  `json:"op"`
	}
	n := min(len(l.sorted), maxSpansWritten)
	rows := make([]row, n)
	for i, s := range l.sorted[:n] {
		p := l.parents[i]
		if int(p) >= n {
			p = -1
		}
		rows[i] = row{spanNames[s.kind], s.start, s.end, p, s.op}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans      int   `json:"spans_recorded"`
		Written    int   `json:"spans_written"`
		SampledOps int   `json:"sampled_ops"`
		Rows       []row `json:"spans"`
	}{len(l.sorted), n, l.ops, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tap decorates a transport: it counts what crosses the boundary and, while
// an operation is being sampled, spans each send and each receive-handler
// call. It must expose exactly the optional interfaces of the transport it
// wraps — the engine discovers batching, scattered batching, coalescing and
// receive-batch stats by type assertion, and a tap that hid one would make
// the traced pass measure a different program. Hence one concrete type per
// capability set, chosen by wrapTransport.
type tap struct {
	inner    paccel.Transport
	tr       *tracer
	sendKind uint8

	calls, datagrams, bytes atomic.Uint64
}

func (t *tap) count(datagrams [][]byte, sent int) {
	t.calls.Add(1)
	t.datagrams.Add(uint64(sent))
	var b int
	for _, d := range datagrams[:sent] {
		b += len(d)
	}
	t.bytes.Add(uint64(b))
}

func (t *tap) Send(dst string, datagram []byte) error {
	t.calls.Add(1)
	t.datagrams.Add(1)
	t.bytes.Add(uint64(len(datagram)))
	s := t.tr.begin(t.sendKind)
	err := t.inner.Send(dst, datagram)
	t.tr.end(s)
	return err
}

func (t *tap) SetHandler(h func(src string, datagram []byte)) {
	t.inner.SetHandler(func(src string, datagram []byte) {
		s := t.tr.begin(spanCoreRecv)
		h(src, datagram)
		t.tr.end(s)
	})
}

func (t *tap) LocalAddr() string { return t.inner.LocalAddr() }
func (t *tap) Close() error      { return t.inner.Close() }

// batchTap adds the two batch sends (netsim's capability set).
type batchTap struct {
	tap
	batch   paccel.BatchTransport
	batchTo paccel.BatchToTransport
}

func (t *batchTap) SendBatch(dst string, datagrams [][]byte) (int, error) {
	s := t.tr.begin(t.sendKind)
	sent, err := t.batch.SendBatch(dst, datagrams)
	t.tr.end(s)
	t.count(datagrams, sent)
	return sent, err
}

func (t *batchTap) SendBatchTo(dsts []string, datagrams [][]byte) (int, error) {
	s := t.tr.begin(t.sendKind)
	sent, err := t.batchTo.SendBatchTo(dsts, datagrams)
	t.tr.end(s)
	t.count(datagrams, sent)
	return sent, err
}

// The two capabilities only the UDP transport adds, declared here with the
// methods the engine calls.
type (
	coalescer   interface{ Coalescible() bool }
	recvBatcher interface {
		RecvBatchStats() (batches, datagrams uint64)
	}
	multiQueue interface{ NumQueues() int }
)

// offloadTap adds coalescing and receive-batch stats (udp's capability set).
type offloadTap struct {
	batchTap
	co coalescer
	rb recvBatcher
}

func (t *offloadTap) Coalescible() bool { return t.co.Coalescible() }
func (t *offloadTap) RecvBatchStats() (batches, datagrams uint64) {
	return t.rb.RecvBatchStats()
}

// wrapTransport returns inner decorated with a tap of inner's exact
// capability set, and the tap's counters. An unknown set is an error, not
// a silent downgrade.
func wrapTransport(inner paccel.Transport, tr *tracer, sendKind uint8) (paccel.Transport, *tap, error) {
	batch, hasBatch := inner.(paccel.BatchTransport)
	batchTo, hasBatchTo := inner.(paccel.BatchToTransport)
	co, hasCo := inner.(coalescer)
	rb, hasRb := inner.(recvBatcher)
	_, hasMq := inner.(multiQueue)
	switch {
	case hasBatch && hasBatchTo && !hasCo && !hasRb && !hasMq:
		t := &batchTap{batch: batch, batchTo: batchTo}
		t.inner, t.tr, t.sendKind = inner, tr, sendKind
		return t, &t.tap, nil
	case hasBatch && hasBatchTo && hasCo && hasRb && !hasMq:
		t := &offloadTap{co: co, rb: rb}
		t.inner, t.tr, t.sendKind = inner, tr, sendKind
		t.batch, t.batchTo = batch, batchTo
		return t, &t.tap, nil
	}
	return nil, nil, fmt.Errorf("bench: no tap for %T's capability set (batch=%v batchTo=%v coalesce=%v recvBatch=%v multiQueue=%v)",
		inner, hasBatch, hasBatchTo, hasCo, hasRb, hasMq)
}
