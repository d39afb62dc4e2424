// The telemetry experiment: what always-on observability costs
// (DESIGN.md §12). It measures the engine's round-trip fast path with
// telemetry disabled (the nil-recorder branch), enabled at the default
// 1-in-8 duration sampling, and enabled with every operation timed —
// quantifying both the shipping configuration's overhead and the
// worst-case cost sampling protects against. The enabled run's histogram
// snapshot and alloc counts ride along, so the BENCH_5.json baseline
// also proves the instrumented fast paths stay allocation-free.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"paccel/internal/telemetry"
)

// telemetryPingPong measures the round-trip fast path of a fresh Pair
// built with opt, min of reps runs (shared machines are noisy upward,
// never downward). One op is a full A→B→A round trip.
func telemetryPingPong(opt PairOptions, reps int) (float64, error) {
	best := 0.0
	for r := 0; r < reps; r++ {
		p, err := NewPair(opt)
		if err != nil {
			return 0, err
		}
		p.B.OnDeliver(func(data []byte) {
			if err := p.B.Send(data); err != nil {
				panic(err)
			}
		})
		done := make(chan struct{}, 1)
		p.A.OnDeliver(func([]byte) { done <- struct{}{} })
		payload := make([]byte, 8)
		var sendErr error
		out := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < 64; i++ { // warm pools, prime prediction
				if err := p.A.Send(payload); err != nil {
					sendErr = err
					return
				}
				<-done
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.A.Send(payload); err != nil {
					sendErr = err
					return
				}
				<-done
			}
		})
		p.Close()
		if sendErr != nil {
			return 0, sendErr
		}
		ns := float64(out.NsPerOp())
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// telemetrySendAllocs is SendAllocsPerOp with a recorder installed:
// the lean-stack send fast path, sampled every operation so the
// instrumentation itself — counter bump, clock reads, histogram record —
// is inside the measured window.
func telemetrySendAllocs(runs int, rec *telemetry.Recorder) (float64, error) {
	p, err := NewPair(PairOptions{
		Build: LeanStack, Telemetry: rec, TelemetrySampleEvery: 1,
	})
	if err != nil {
		return 0, err
	}
	defer p.Close()
	p.B.OnDeliver(func([]byte) {})
	payload := make([]byte, 32)
	for i := 0; i < 256; i++ {
		if err := p.A.Send(payload); err != nil {
			return 0, err
		}
	}
	var sendErr error
	allocs := testing.AllocsPerRun(runs, func() {
		if err := p.A.Send(payload); err != nil {
			sendErr = err
		}
	})
	return allocs, sendErr
}

// TelemetryHist is one operation's histogram summary in the baseline
// (HistogramSnapshot minus the bucket array).
type TelemetryHist struct {
	Op     string  `json:"op"`
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P90Ns  int64   `json:"p90_ns"`
	P99Ns  int64   `json:"p99_ns"`
	MaxNs  int64   `json:"max_ns"`
}

// TelemetryResult is the machine-readable output of the telemetry
// experiment — the BENCH_5.json baseline future PRs gate against.
type TelemetryResult struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`

	// SampleEvery is the duration-sampling period of the "enabled" arm
	// (the engine default).
	SampleEvery int `json:"sample_every"`

	DisabledNsOp float64 `json:"disabled_ns_op"`
	EnabledNsOp  float64 `json:"enabled_ns_op"`
	// OverheadPct is the acceptance number: enabled vs disabled round
	// trip, default sampling. Negative means within noise.
	OverheadPct float64 `json:"overhead_pct"`

	// Unsampled arm: every duration span timed (TelemetrySampleEvery=1),
	// the worst case sampling exists to avoid.
	UnsampledNsOp        float64 `json:"unsampled_ns_op"`
	UnsampledOverheadPct float64 `json:"unsampled_overhead_pct"`

	// Send fast-path allocations, telemetry off and on (sampled every
	// op): both must stay 0.
	DisabledAllocsOp float64 `json:"disabled_allocs_op"`
	EnabledAllocsOp  float64 `json:"enabled_allocs_op"`

	// Hists summarizes what the enabled benchmark run recorded.
	Hists []TelemetryHist `json:"hists"`
	// EventsTotal counts events appended during the enabled run
	// (state transitions; a clean run has no faults).
	EventsTotal uint64 `json:"events_total"`
}

// Telemetry runs the observability-overhead experiment.
func Telemetry(quick bool) (*TelemetryResult, error) {
	reps := 3
	allocRuns := 2000
	if quick {
		reps = 2
		allocRuns = 200
	}
	res := &TelemetryResult{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		SampleEvery: 8,
	}

	var err error
	if res.DisabledNsOp, err = telemetryPingPong(PairOptions{}, reps); err != nil {
		return nil, err
	}

	rec := telemetry.New(telemetry.Options{})
	if res.EnabledNsOp, err = telemetryPingPong(PairOptions{
		Telemetry: rec, TelemetrySampleEvery: res.SampleEvery,
	}, reps); err != nil {
		return nil, err
	}
	snap := rec.Snapshot(false)
	for _, h := range snap.Ops {
		if h.Count == 0 {
			continue
		}
		res.Hists = append(res.Hists, TelemetryHist{
			Op: h.Op, Count: h.Count, MeanNs: h.MeanNs,
			P50Ns: h.P50Ns, P90Ns: h.P90Ns, P99Ns: h.P99Ns, MaxNs: h.MaxNs,
		})
	}
	res.EventsTotal = snap.EventsTotal

	if res.UnsampledNsOp, err = telemetryPingPong(PairOptions{
		Telemetry: telemetry.New(telemetry.Options{}), TelemetrySampleEvery: 1,
	}, reps); err != nil {
		return nil, err
	}

	if res.DisabledNsOp > 0 {
		res.OverheadPct = 100 * (res.EnabledNsOp - res.DisabledNsOp) / res.DisabledNsOp
		res.UnsampledOverheadPct = 100 * (res.UnsampledNsOp - res.DisabledNsOp) / res.DisabledNsOp
	}

	if res.DisabledAllocsOp, err = SendAllocsPerOp(allocRuns); err != nil {
		return nil, err
	}
	if res.EnabledAllocsOp, err = telemetrySendAllocs(allocRuns, telemetry.New(telemetry.Options{})); err != nil {
		return nil, err
	}
	return res, nil
}

// TelemetryReport formats the result for the pabench console output.
func TelemetryReport(r *TelemetryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Telemetry overhead (%s/%s, round trip over the instantaneous network)\n", r.GOOS, r.GOARCH)
	fmt.Fprintf(&b, "  disabled:              %8.0f ns/rt\n", r.DisabledNsOp)
	fmt.Fprintf(&b, "  enabled (1-in-%d):      %8.0f ns/rt  (%+.1f%%)\n", r.SampleEvery, r.EnabledNsOp, r.OverheadPct)
	fmt.Fprintf(&b, "  enabled (unsampled):   %8.0f ns/rt  (%+.1f%%)\n", r.UnsampledNsOp, r.UnsampledOverheadPct)
	fmt.Fprintf(&b, "  send fast path: %.3f allocs/op off, %.3f allocs/op on\n",
		r.DisabledAllocsOp, r.EnabledAllocsOp)
	if len(r.Hists) > 0 {
		fmt.Fprintf(&b, "  %-9s %10s %10s %10s %10s %10s\n", "op", "count", "mean-ns", "p50-ns", "p99-ns", "max-ns")
		for _, h := range r.Hists {
			fmt.Fprintf(&b, "  %-9s %10d %10.0f %10d %10d %10d\n",
				h.Op, h.Count, h.MeanNs, h.P50Ns, h.P99Ns, h.MaxNs)
		}
	}
	fmt.Fprintf(&b, "  events recorded: %d\n", r.EventsTotal)
	return b.String()
}
