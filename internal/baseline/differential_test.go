package baseline

import (
	"bytes"
	"testing"
	"time"

	"paccel/internal/core"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

// TestDifferentialAgainstCore runs one StackOptions value on the
// accelerated engine and on this one, over the same seeded network that
// loses, duplicates and reorders 2 % of datagrams each, with payloads
// from 1 byte to three fragments. Both must deliver exactly the sent
// messages, once each and in order: the traditional path is the
// reference the accelerated one answers to.
func TestDifferentialAgainstCore(t *testing.T) {
	opts := core.StackOptions{FragThreshold: 256, RetransTimeout: 20 * time.Millisecond, Naks: true}
	netCfg := netsim.Config{
		Latency: time.Millisecond, Jitter: time.Millisecond,
		LossRate: 0.02, DupRate: 0.02, ReorderRate: 0.02, Seed: 1996,
	}
	const n = 240
	sent := make([][]byte, n)
	for i := range sent {
		sent[i] = make([]byte, 1+i*(3*opts.FragThreshold-1)/(n-1))
		for j := range sent[i] {
			sent[i][j] = byte(i + j)
		}
	}
	type conn interface {
		Send([]byte) error
		OnDeliver(func([]byte))
	}
	for _, engine := range []struct {
		name string
		dial func(*testing.T) (*vclock.Manual, *netsim.Network, conn, conn)
	}{
		{"core", func(t *testing.T) (*vclock.Manual, *netsim.Network, conn, conn) {
			clk := vclock.NewManual(t0)
			net := netsim.New(clk, netCfg)
			dial := func(local string, spec core.PeerSpec) *core.Conn {
				ep, err := core.NewEndpoint(core.Config{
					Transport: net.Endpoint(local), Clock: clk, Build: core.BuildStack(opts),
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ep.Close() })
				c, err := ep.Dial(spec)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			a := dial("A", core.PeerSpec{Addr: "B", LocalID: []byte("alice"), RemoteID: []byte("bob"), LocalPort: 1, RemotePort: 2, Epoch: 3})
			b := dial("B", core.PeerSpec{Addr: "A", LocalID: []byte("bob"), RemoteID: []byte("alice"), LocalPort: 2, RemotePort: 1, Epoch: 3})
			return clk, net, a, b
		}},
		{"baseline", func(t *testing.T) (*vclock.Manual, *netsim.Network, conn, conn) {
			r := newRigWith(t, netCfg, core.BuildStack(opts))
			return r.clk, r.net, r.a, r.b
		}},
	} {
		t.Run(engine.name, func(t *testing.T) {
			clk, net, a, b := engine.dial(t)
			var got [][]byte
			b.OnDeliver(func(p []byte) { got = append(got, append([]byte(nil), p...)) })
			for i, m := range sent {
				if err := a.Send(m); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				if i%8 == 7 {
					clk.Advance(time.Millisecond)
				}
			}
			for i := 0; i < 12000 && len(got) < n; i++ {
				clk.Advance(5 * time.Millisecond)
			}
			if st := net.Stats(); st.Lost == 0 || st.Duplicated == 0 || st.Reordered == 0 {
				t.Fatalf("the network lost, duplicated or reordered nothing: %+v", st)
			}
			if len(got) != n {
				t.Fatalf("delivered %d of %d messages", len(got), n)
			}
			for i := range sent {
				if !bytes.Equal(got[i], sent[i]) {
					t.Fatalf("message %d: delivered %d bytes that differ from the %d sent", i, len(got[i]), len(sent[i]))
				}
			}
		})
	}
}
