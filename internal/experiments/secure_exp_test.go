package experiments

import (
	"strings"
	"testing"
)

// TestSecureFixture pins what the benchmarks stand on: the encrypted
// pair delivers synchronously, and the bare-layer rekey fixture works.
func TestSecureFixture(t *testing.T) {
	p, err := newSecurePair(SecureLeanStack)
	if err != nil {
		t.Fatal(err)
	}
	defer p.cleanup()
	got := 0
	p.b.OnDeliver(func([]byte) { got++ })
	payload := make([]byte, 64)
	for i := 0; i < 50; i++ {
		if err := p.a.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	if got != 50 {
		t.Fatalf("delivered %d of 50 — the sealed path is not synchronous", got)
	}
}

// TestSecureReportShape checks the report and JSON render without
// running the (slow) measured experiment.
func TestSecureReportShape(t *testing.T) {
	r := &SecureResult{
		GOOS: "linux", GOARCH: "amd64", RekeyNs: 1234,
		Payloads: []SecurePayloadResult{{
			PayloadBytes: 32, PlainNsOp: 500, SecureNsOp: 600,
			OverheadPct: 20, SecureMsgsPerSec: 1.6e6, SecureMBPerSec: 53,
		}},
	}
	rep := SecureReport(r)
	if !strings.Contains(rep, "AES-GCM") || !strings.Contains(rep, "20.0%") {
		t.Fatalf("report:\n%s", rep)
	}
	out, err := JSON(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"overhead_pct": 20`) || !strings.Contains(out, `"rekey_ns": 1234`) {
		t.Fatalf("json:\n%s", out)
	}
}
