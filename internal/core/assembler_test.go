package core_test

import (
	"strings"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/layers"
)

// TestBuildStackShapes pins every stack the repository runs to the layers
// BuildStack returns for it: the order, the fragmentation threshold, every
// window's settings and the heartbeat's timing, in a slice holding exactly
// its layers.
func TestBuildStackShapes(t *testing.T) {
	type window struct {
		size           int
		rto            time.Duration
		naks, adaptive bool
	}
	type heartbeat struct{ interval, jitter time.Duration }
	key := &core.SecureConfig{Key: []byte("shape key")}
	const rto = 20 * time.Millisecond
	topology := core.StackOptions{
		FragThreshold: 1200, RetransTimeout: rto, Naks: true,
		Heartbeat: 100 * time.Millisecond, HeartbeatJitter: 25 * time.Millisecond,
	}
	secureTopology := topology
	secureTopology.Secure = key
	for _, tc := range []struct {
		name   string
		build  core.StackBuilder
		layers string
		frag   int
		window window
		hb     heartbeat
	}{
		{"DefaultStack", core.DefaultStack,
			"chksum frag window ident", layers.DefaultFragThreshold, window{}, heartbeat{}},
		{"LeanStack", core.BuildStack(core.StackOptions{NoWindow: true}),
			"chksum frag ident", layers.DefaultFragThreshold, window{}, heartbeat{}},
		{"SecureLeanStack", core.BuildStack(core.StackOptions{NoWindow: true, Secure: key}),
			"frag secure ident", layers.DefaultFragThreshold, window{}, heartbeat{}},
		{"DoubledWindowStack", core.BuildStack(core.StackOptions{DoubleWindow: true}),
			"chksum frag window window ident", layers.DefaultFragThreshold, window{}, heartbeat{}},
		{"DoubleWindow+AdaptiveRTO", core.BuildStack(core.StackOptions{
			DoubleWindow: true, AdaptiveRTO: true, WindowSize: 4, RetransTimeout: rto, Naks: true}),
			"chksum frag window window ident", layers.DefaultFragThreshold, window{4, rto, true, true}, heartbeat{}},
		{"FaultStack", core.BuildStack(core.StackOptions{RetransTimeout: rto, Naks: true}),
			"chksum frag window ident", layers.DefaultFragThreshold, window{rto: rto, naks: true}, heartbeat{}},
		{"RecoveryStack", core.BuildStack(core.StackOptions{
			RetransTimeout: rto, Naks: true,
			Heartbeat: 100 * time.Millisecond, HeartbeatJitter: 25 * time.Millisecond}),
			"chksum frag window heartbeat ident", layers.DefaultFragThreshold,
			window{rto: rto, naks: true}, heartbeat{100 * time.Millisecond, 25 * time.Millisecond}},
		{"topology", core.BuildStack(topology),
			"chksum frag window heartbeat ident", 1200,
			window{rto: rto, naks: true}, heartbeat{100 * time.Millisecond, 25 * time.Millisecond}},
		{"secure topology", core.BuildStack(secureTopology),
			"frag secure window heartbeat ident", 1200,
			window{rto: rto, naks: true}, heartbeat{100 * time.Millisecond, 25 * time.Millisecond}},
		{"Secure+Heartbeat", core.BuildStack(core.StackOptions{Secure: key, Heartbeat: 30 * time.Millisecond}),
			"frag secure window heartbeat ident", layers.DefaultFragThreshold, window{}, heartbeat{interval: 30 * time.Millisecond}},
		{"Stamp+Heartbeat", core.BuildStack(core.StackOptions{
			Stamp: func(time.Duration) {}, Heartbeat: 10 * time.Millisecond,
			OnSilence: func([]byte, time.Duration) {}}),
			"stamp chksum frag window heartbeat ident", layers.DefaultFragThreshold, window{}, heartbeat{interval: 10 * time.Millisecond}},
		{"Naks", core.BuildStack(core.StackOptions{Naks: true}),
			"chksum frag window ident", layers.DefaultFragThreshold, window{naks: true}, heartbeat{}},
		{"FragThreshold", core.BuildStack(core.StackOptions{FragThreshold: 100}),
			"chksum frag window ident", 100, window{}, heartbeat{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := core.PeerSpec{
				LocalID: []byte("local"), RemoteID: []byte("remote"),
				LocalPort: 1, RemotePort: 2, Epoch: 3,
			}
			ls, err := tc.build(spec, bits.LittleEndian)
			if err != nil {
				t.Fatal(err)
			}
			if len(ls) != cap(ls) {
				t.Errorf("len %d, cap %d: the slice must hold exactly its layers", len(ls), cap(ls))
			}
			names := make([]string, len(ls))
			for i, l := range ls {
				names[i] = l.Name()
				switch l := l.(type) {
				case *layers.Frag:
					if l.Threshold != tc.frag {
						t.Errorf("frag threshold %d, want %d", l.Threshold, tc.frag)
					}
				case *layers.Window:
					if got := (window{l.Size, l.RetransTimeout, l.Naks, l.AdaptiveRTO}); got != tc.window {
						t.Errorf("window %d: %+v, want %+v", i, got, tc.window)
					}
				case *layers.Heartbeat:
					if got := (heartbeat{l.Interval, l.Jitter}); got != tc.hb {
						t.Errorf("heartbeat %+v, want %+v", got, tc.hb)
					}
				case *layers.Ident:
					if string(l.Remote) != "remote" || l.Epoch != 3 || l.Order != bits.LittleEndian {
						t.Errorf("ident %+v does not follow the spec", l)
					}
				}
			}
			if got := strings.Join(names, " "); got != tc.layers {
				t.Errorf("layers %q, want %q", got, tc.layers)
			}
		})
	}
}
