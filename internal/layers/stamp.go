package layers

import (
	"time"

	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/stack"
	"paccel/internal/telemetry"
)

// Stamp is a latency-measurement micro-layer. It registers a 32-bit
// message-specific timestamp — the paper's own example of
// message-specific information (§2.1) — filled in by the send packet
// filter's PushTime customized instruction on every frame (the filter is
// the only code that writes it), and records one-way latency samples on
// delivery.
//
// Timestamps are microseconds on the connection's clock, truncated to 32
// bits; samples are only meaningful when both endpoints share a clock
// (same process, or the simulated network), which is exactly how the
// Table 4 one-way latency measurement uses it.
type Stamp struct {
	// OnSample receives each one-way latency observation.
	OnSample func(d time.Duration)

	ts header.Handle

	samples uint64
	total   time.Duration

	// Telemetry sink; nil disables. One-way samples cost no extra clock
	// read — the duration comes from the wire timestamp.
	tel      *telemetry.Recorder
	telShard uint32
}

// NewStamp returns a latency meter.
func NewStamp() *Stamp { return &Stamp{} }

// Name implements stack.Layer.
func (s *Stamp) Name() string { return "stamp" }

// SetTelemetry installs the engine's telemetry recorder: every one-way
// latency observation is recorded into the OpOneWay histogram.
func (s *Stamp) SetTelemetry(rec *telemetry.Recorder, _ uint64, shard uint32) {
	s.tel = rec
	s.telShard = shard
}

// Init registers the timestamp field and the send-filter code that fills
// it. The receive side has no filter check — a timestamp is informational.
func (s *Stamp) Init(ic *stack.InitContext) error {
	var err error
	if s.ts, err = ic.Schema.AddField(header.MsgSpec, s.Name(), "ts", 32, header.DontCare); err != nil {
		return err
	}
	ic.SendFilter.PushTime()
	ic.SendFilter.PopField(s.ts)
	return nil
}

// Prime implements stack.Layer; message-specific fields are not predicted.
func (s *Stamp) Prime(*stack.Context) {}

// PreSend implements stack.Layer; the send filter fills the timestamp.
func (s *Stamp) PreSend(*stack.Context, *message.Msg) stack.Verdict { return stack.Continue }

// PostSend implements stack.Layer.
func (s *Stamp) PostSend(*stack.Context, *message.Msg) {}

// PreDeliver implements stack.Layer; sampling is a post-phase effect.
func (s *Stamp) PreDeliver(ctx *stack.Context, m *message.Msg) stack.Verdict {
	return stack.Continue
}

// PostDeliver records the one-way latency sample.
func (s *Stamp) PostDeliver(ctx *stack.Context, m *message.Msg) {
	sent := uint32(s.ts.Read(ctx.Env.Hdr[header.MsgSpec], ctx.Env.Order))
	now := uint32(ctx.Env.Time)
	d := time.Duration(now-sent) * time.Microsecond
	s.samples++
	s.total += d
	s.tel.Record(telemetry.OpOneWay, s.telShard, d)
	if s.OnSample != nil {
		s.OnSample(d)
	}
}

// Mean returns the mean observed one-way latency and the sample count.
func (s *Stamp) Mean() (time.Duration, uint64) {
	if s.samples == 0 {
		return 0, 0
	}
	return s.total / time.Duration(s.samples), s.samples
}
