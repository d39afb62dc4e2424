package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

// smallFragThreshold is shape B's fragmentation threshold: a frame limit
// the default shape does not declare.
const smallFragThreshold = 64

// twoShapeBuild returns the default stack for even epochs and, for odd
// ones, a stack that differs from it in the declared frame limit (the Frag
// threshold) and in a layer (stamp: one more field, two more send-filter
// instructions). Both peers of a connection see the same epoch.
func twoShapeBuild(spec PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
	if spec.Epoch%2 == 0 {
		return DefaultStack(spec, order)
	}
	return shapeB(spec, order)
}

var shapeB = BuildStack(StackOptions{FragThreshold: smallFragThreshold, Stamp: func(time.Duration) {}})

// An endpoint whose Build returns different shapes gets a correct
// connection for each — its own schema, its own programs — and shares the
// plan between consecutive dials of one shape.
func TestPlanFollowsTheShape(t *testing.T) {
	clk := vclock.NewManual(t0) // never advanced: no delayed ack, every control frame is a fragment
	net := netsim.New(clk, netsim.Config{})
	var eps [2]*Endpoint
	for i, addr := range []string{"A", "B"} {
		ep, err := NewEndpoint(Config{Transport: net.Endpoint(addr), Clock: clk, Build: twoShapeBuild})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	dialPair := func(epoch uint32) (a, b *Conn) {
		t.Helper()
		sa, sb := specAB()
		sa.Epoch, sb.Epoch = epoch, epoch
		sa.LocalPort, sb.RemotePort = uint16(100+epoch), uint16(100+epoch)
		a, err := eps[0].Dial(sa)
		if err != nil {
			t.Fatal(err)
		}
		if b, err = eps[1].Dial(sb); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	exchange := func(a, b *Conn, size int) {
		t.Helper()
		for _, dir := range [][2]*Conn{{a, b}, {b, a}} {
			var got []byte
			dir[1].OnDeliver(func(p []byte) { got = append([]byte(nil), p...) })
			want := bytes.Repeat([]byte{byte(size)}, size)
			if err := dir[0].Send(want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("sent %d bytes, delivered %d", len(want), len(got))
			}
		}
	}

	// Default stack: seq 32 + type 2 + isfrag 1 + last 1 bits = 5 bytes,
	// len 16 + ck 16 = 4, ack 32 = 4. Stamp adds a 32-bit timestamp.
	const sizeA, sizeB = 13, 17
	var prev *Conn
	for epoch := uint32(2); epoch < 8; epoch++ { // A B A B A B
		a, b := dialPair(epoch)
		wantSize, wantLimit, shapeB := sizeA, layers.DefaultFragThreshold, epoch%2 == 1
		if shapeB {
			wantSize, wantLimit = sizeB, smallFragThreshold
		}
		for _, c := range []*Conn{a, b} {
			if got := c.Schema().TotalSize(); got != wantSize {
				t.Fatalf("epoch %d: headers are %d bytes, want %d", epoch, got, wantSize)
			}
			if c.plan.maxPayload != wantLimit {
				t.Fatalf("epoch %d: frame limit %d, want the shape's frag threshold %d", epoch, c.plan.maxPayload, wantLimit)
			}
			if c.plan.usesTime != shapeB {
				t.Fatalf("epoch %d: usesTime = %t", epoch, c.plan.usesTime)
			}
		}
		if prev != nil && prev.Schema() == a.Schema() {
			t.Fatalf("epoch %d: shares the schema of the other shape", epoch)
		}
		prev = a
		exchange(a, b, 8)
		exchange(a, b, 3*smallFragThreshold) // fragmented on shape B only
		if frags := a.Stats().ControlMsgs; (frags > 0) != shapeB {
			t.Fatalf("epoch %d: %d fragments sent", epoch, frags)
		}
	}

	// Same shape twice in a row: the second dial replays the first's plan.
	a1, _ := dialPair(10)
	a2, _ := dialPair(12)
	if a1.plan != a2.plan {
		t.Fatal("consecutive dials of one shape compiled separate plans")
	}
	if a1.plan != eps[0].plan.Load() {
		t.Fatal("the shared plan is not the endpoint's")
	}
}

// Build may run twice for one dial (once to replay, once more to compile
// when the shape turned out different); an error from either call is the
// dial's error.
func TestDialSurfacesBuildError(t *testing.T) {
	errBuild := errors.New("build refused")
	for _, tc := range []struct {
		name   string
		failAt int    // the Build call that fails, counting NewEndpoint's as 1
		epoch  uint32 // odd: a shape the endpoint's plan was not compiled from
	}{
		{"replay build", 2, 0},
		{"compile build after a shape change", 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			net := netsim.New(vclock.Real{}, netsim.Config{})
			ep, err := NewEndpoint(Config{
				Transport: net.Endpoint("A"),
				Build: func(spec PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
					if calls++; calls == tc.failAt {
						return nil, errBuild
					}
					return twoShapeBuild(spec, order)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			spec, _ := specAB()
			spec.Epoch = tc.epoch
			if _, err := ep.Dial(spec); !errors.Is(err, errBuild) {
				t.Fatalf("Dial = %v after %d Build calls, want the Build error", err, calls)
			}
			if calls != tc.failAt {
				t.Fatalf("Build ran %d times, want %d", calls, tc.failAt)
			}
			if _, err := ep.Dial(spec); err != nil {
				t.Fatalf("the next dial: %v", err)
			}
		})
	}
}

// Many goroutines dial and close on one endpoint: they replay one shared
// plan concurrently (run under -race), and now and then one of them
// replaces it.
func TestConcurrentDialClose(t *testing.T) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	ep, err := NewEndpoint(Config{Transport: net.Endpoint("A"), Build: twoShapeBuild})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	const workers, rounds = 64, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spec, _ := specAB()
			spec.LocalPort = uint16(1000 + w)
			spec.Epoch = 0
			wantSize := 13
			if w%16 == 0 {
				spec.Epoch, wantSize = 1, 17 // the other shape
			}
			for i := 0; i < rounds; i++ {
				c, err := ep.Dial(spec)
				if err != nil {
					t.Error(err)
					return
				}
				if got := c.Schema().TotalSize(); got != wantSize {
					t.Errorf("worker %d: headers are %d bytes, want %d", w, got, wantSize)
				}
				if err := c.Send([]byte("into the void")); err != nil {
					t.Error(err)
				}
				c.Close()
			}
		}(w)
	}
	wg.Wait()
	if n := ep.Snapshot().Conns; n != 0 {
		t.Fatalf("%d connections left", n)
	}
	if n := len(ep.byIdent); n != 0 {
		t.Fatalf("%d identification routes left", n)
	}
}

// Closing a connection removes its two identification routes and no one
// else's, without walking the table; the same identification dialled again
// routes to the new connection.
func TestCloseRemovesOwnIdentRoutes(t *testing.T) {
	net := netsim.New(vclock.Real{}, netsim.Config{})
	ep, err := NewEndpoint(Config{Transport: net.Endpoint("A")})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	const n = 8
	specs := make([]PeerSpec, n)
	conns := make([]*Conn, n)
	for i := range conns {
		specs[i], _ = specAB()
		specs[i].RemotePort = uint16(10 + i)
		if conns[i], err = ep.Dial(specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	routes := func(c *Conn) (keys []string) {
		for _, o := range []bits.ByteOrder{bits.BigEndian, bits.LittleEndian} {
			keys = append(keys, string(c.ident.ExpectedIncoming(ep.identSize, o)))
		}
		return keys
	}
	if len(ep.byIdent) != 2*n {
		t.Fatalf("%d routes for %d connections", len(ep.byIdent), n)
	}
	victim := conns[3]
	victim.Close()
	for _, k := range routes(victim) {
		if ep.byIdent[k] != nil {
			t.Fatal("a closed connection's route is still in the table")
		}
	}
	if len(ep.byIdent) != 2*(n-1) {
		t.Fatalf("%d routes left, want %d", len(ep.byIdent), 2*(n-1))
	}
	for i, c := range conns {
		for _, k := range routes(c) {
			if c != victim && ep.byIdent[k] != c {
				t.Fatalf("connection %d lost a route", i)
			}
		}
	}

	redial, err := ep.Dial(specs[3])
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range routes(victim) {
		if ep.byIdent[k] != redial {
			t.Fatal("the re-dialled identification does not route to the new connection")
		}
	}
	// A second connection with the victim's identification took the
	// routes over; closing the first again must not take them down.
	ep.removeConn(victim)
	if got := ep.byIdent[routes(redial)[0]]; got != redial {
		t.Fatal("removing the old connection deleted the new connection's route")
	}
	pre := Preamble{ConnIDPresent: true, Order: bits.BigEndian}
	if got := ep.lookupIdent([]byte(routes(redial)[0]), pre, "B"); got != redial {
		t.Fatalf("an identified datagram routes to %p, want the re-dialled %p", got, redial)
	}
}
