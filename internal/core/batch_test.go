package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paccel/internal/faultinject"
	"paccel/internal/netsim"
	"paccel/internal/udp"
	"paccel/internal/vclock"
)

// TestFlushTxBatchesBurst drives a deterministic burst through flushTx
// and checks it leaves as one SendBatch: sends are backlogged behind a
// disabled gate, then released with maxPack 1 so each becomes its own
// wire image, and one Flush drains all of them through the batch path.
func TestFlushTxBatchesBurst(t *testing.T) {
	const burst = 8
	r := newRig(t, netsim.Config{}, nil)
	r.epA.maxPack = 1 // one wire image per message: the burst is a tx-queue burst, not a packed message

	r.a.mu.Lock()
	r.a.DisableSend()
	r.a.mu.Unlock()
	for i := 0; i < burst; i++ {
		if err := r.a.Send([]byte(fmt.Sprintf("burst-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.fromA.count(); got != 0 {
		t.Fatalf("delivered %d messages while sending was disabled", got)
	}
	r.a.mu.Lock()
	r.a.EnableSend()
	r.a.mu.Unlock()
	r.a.Flush()

	if got := r.fromA.count(); got != burst {
		t.Fatalf("delivered %d messages, want %d", got, burst)
	}
	for i := 0; i < burst; i++ {
		if want := fmt.Sprintf("burst-%d", i); string(r.fromA.get(i)) != want {
			t.Fatalf("message %d = %q, want %q", i, r.fromA.get(i), want)
		}
	}
	st := r.epA.Snapshot()
	if st.BatchSends != 1 {
		t.Fatalf("BatchSends = %d, want 1 (one flushTx drain for the whole burst)", st.BatchSends)
	}
	if st.BatchDatagrams != burst {
		t.Fatalf("BatchDatagrams = %d, want %d", st.BatchDatagrams, burst)
	}
	if st.DatagramsPerBatch != burst {
		t.Fatalf("DatagramsPerBatch = %v, want %v", st.DatagramsPerBatch, float64(burst))
	}
	if st.TxErrors != 0 {
		t.Fatalf("TxErrors = %d, want 0", st.TxErrors)
	}
	if ns := r.net.Stats(); ns.BatchSends < 1 || ns.BatchDatagrams < burst {
		t.Fatalf("netsim saw BatchSends=%d BatchDatagrams=%d, want >=1/>=%d",
			ns.BatchSends, ns.BatchDatagrams, burst)
	}
}

// flakyBatchTransport wraps a transport with a SendBatch that fails its
// first batch at a chosen index, transmitting only the datagrams before
// it — the shape of a mid-batch sendmmsg failure.
type flakyBatchTransport struct {
	Transport
	failAt int
	failed bool
}

func (f *flakyBatchTransport) SendBatch(dst string, datagrams [][]byte) (int, error) {
	if !f.failed && f.failAt < len(datagrams) {
		f.failed = true
		for i := 0; i < f.failAt; i++ {
			if err := f.Transport.Send(dst, datagrams[i]); err != nil {
				return i, err
			}
		}
		return f.failAt, errors.New("flaky: datagram rejected")
	}
	for i, d := range datagrams {
		if err := f.Transport.Send(dst, d); err != nil {
			return i, err
		}
	}
	return len(datagrams), nil
}

// TestBatchSendErrorSkipsFailedDatagram checks the flushTx contract
// around a mid-batch failure: exactly the failed datagram is charged to
// TxErrors and skipped, and the rest of the burst still goes out —
// batched, not demoted to a per-datagram loop.
func TestBatchSendErrorSkipsFailedDatagram(t *testing.T) {
	const burst, failAt = 8, 2
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	ft := &flakyBatchTransport{Transport: net.Endpoint("A"), failAt: failAt}
	epA, err := NewEndpoint(Config{Transport: ft, Clock: clk, Build: leanBuild})
	if err != nil {
		t.Fatal(err)
	}
	epA.maxPack = 1
	defer epA.Close()
	epB, err := NewEndpoint(Config{Transport: net.Endpoint("B"), Clock: clk, Build: leanBuild})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	sa, sb := specAB()
	a, err := epA.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(sb)
	if err != nil {
		t.Fatal(err)
	}
	delivered := &sink{}
	b.OnDeliver(delivered.add)

	a.mu.Lock()
	a.DisableSend()
	a.mu.Unlock()
	for i := 0; i < burst; i++ {
		if err := a.Send([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	a.mu.Lock()
	a.EnableSend()
	a.mu.Unlock()
	a.Flush()

	st := epA.Snapshot()
	if st.TxErrors != 1 {
		t.Fatalf("TxErrors = %d, want 1", st.TxErrors)
	}
	if st.BatchSends != 2 {
		t.Fatalf("BatchSends = %d, want 2 (failed batch + resumed remainder)", st.BatchSends)
	}
	if want := uint64(burst - 1); st.BatchDatagrams != want {
		t.Fatalf("BatchDatagrams = %d, want %d", st.BatchDatagrams, want)
	}
	if got := a.Stats().SendErrors; got != 1 {
		t.Fatalf("conn SendErrors = %d, want 1", got)
	}
	// Without a window layer nothing retransmits: exactly the rejected
	// datagram is missing, and everything after it was still delivered.
	if got := delivered.count(); got != burst-1 {
		t.Fatalf("delivered %d messages, want %d", got, burst-1)
	}
	for i, want := 0, 0; want < burst; want++ {
		if want == failAt {
			continue
		}
		if exp := fmt.Sprintf("msg-%d", want); string(delivered.get(i)) != exp {
			t.Fatalf("message %d = %q, want %q", i, delivered.get(i), exp)
		}
		i++
	}
}

// errTransport is a plain (non-batching) transport whose every Send
// fails; it exercises the unbatched error-counting path.
type errTransport struct{ sends int }

func (e *errTransport) Send(dst string, datagram []byte) error {
	e.sends++
	return errors.New("errTransport: down")
}
func (e *errTransport) SetHandler(func(src string, datagram []byte)) {}
func (e *errTransport) LocalAddr() string                            { return "err" }
func (e *errTransport) Close() error                                 { return nil }

// TestUnbatchedSendErrorsCounted checks that per-datagram Send failures
// on a transport without SendBatch land in EndpointStats.TxErrors.
func TestUnbatchedSendErrorsCounted(t *testing.T) {
	tr := &errTransport{}
	ep, err := NewEndpoint(Config{Transport: tr, Clock: vclock.NewManual(t0), Build: leanBuild})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	sa, _ := specAB()
	conn, err := ep.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := conn.Send([]byte("doomed")); err != nil {
			t.Fatal(err) // transport errors surface in stats, not from Send
		}
	}
	if got := ep.Snapshot().TxErrors; got != 3 {
		t.Fatalf("TxErrors = %d, want 3", got)
	}
	if got := conn.Stats().SendErrors; got != 3 {
		t.Fatalf("conn SendErrors = %d, want 3", got)
	}
	if tr.sends != 3 {
		t.Fatalf("transport saw %d sends, want 3", tr.sends)
	}
}

// TestBatchFaultDropEndToEnd runs a burst through the whole engine over
// a fault injector that drops one datagram mid-batch: exactly that
// message is missing at the far side and its neighbours are intact.
func TestBatchFaultDropEndToEnd(t *testing.T) {
	const burst, dropNth = 8, 3
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	ft := faultinject.New(net.Endpoint("A"), clk, 0,
		faultinject.Rule{Kind: faultinject.Drop, Direction: faultinject.Send, Nth: dropNth})
	epA, err := NewEndpoint(Config{Transport: ft, Clock: clk, Build: leanBuild})
	if err != nil {
		t.Fatal(err)
	}
	epA.maxPack = 1
	defer epA.Close()
	epB, err := NewEndpoint(Config{Transport: net.Endpoint("B"), Clock: clk, Build: leanBuild})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	sa, sb := specAB()
	a, err := epA.Dial(sa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(sb)
	if err != nil {
		t.Fatal(err)
	}
	delivered := &sink{}
	b.OnDeliver(delivered.add)

	a.mu.Lock()
	a.DisableSend()
	a.mu.Unlock()
	for i := 0; i < burst; i++ {
		if err := a.Send([]byte(fmt.Sprintf("e2e-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	a.mu.Lock()
	a.EnableSend()
	a.mu.Unlock()
	a.Flush()

	if got := delivered.count(); got != burst-1 {
		t.Fatalf("delivered %d messages, want %d", got, burst-1)
	}
	for i, want := 0, 0; want < burst; want++ {
		if want == dropNth-1 {
			continue
		}
		if exp := fmt.Sprintf("e2e-%d", want); string(delivered.get(i)) != exp {
			t.Fatalf("message %d = %q, want %q", i, delivered.get(i), exp)
		}
		i++
	}
	// An injected drop is loss, not a transport failure.
	if got := epA.Snapshot().TxErrors; got != 0 {
		t.Fatalf("TxErrors = %d, want 0 (injected loss is not an error)", got)
	}
	if st := epA.Snapshot(); st.BatchSends != 1 || st.BatchDatagrams != burst {
		t.Fatalf("BatchSends=%d BatchDatagrams=%d, want 1/%d", st.BatchSends, st.BatchDatagrams, burst)
	}
}

// batchStress is the PR-1 stress shape with bursty senders: two
// goroutines per connection push blocking sends at one echo server, so
// wire images pile into the tx queue while flushTx holds txBusy and the
// drain leaves through SendBatch. Run under -race.
func batchStress(t *testing.T, nConns, msgs int, clientTransport func(i int) Transport, serverTransport Transport, serverAddr string) {
	t.Helper()
	errCh := make(chan error, nConns*4)
	reportErr := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	server, err := NewEndpoint(echoServerConfig(serverTransport, reportErr))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	var wg sync.WaitGroup
	clients := make([]*Endpoint, 0, nConns)
	for i := 0; i < nConns; i++ {
		ep, err := NewEndpoint(Config{Transport: clientTransport(i), BlockOnBackpressure: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		clients = append(clients, ep)
		conn, err := ep.Dial(PeerSpec{
			Addr:    serverAddr,
			LocalID: []byte(fmt.Sprintf("bat%02d", i)), RemoteID: []byte("srv"),
			LocalPort: uint16(300 + i), RemotePort: 1, Epoch: 1,
		})
		if err != nil {
			t.Fatal(err)
		}

		var echoes atomic.Int64
		done := make(chan struct{})
		conn.OnDeliver(func([]byte) {
			if echoes.Add(1) == int64(msgs) {
				close(done)
			}
		})
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(i, g int) {
				defer wg.Done()
				payload := []byte(fmt.Sprintf("batch-%02d-payload", i))
				for j := 0; j < msgs/2; j++ {
					if err := conn.Send(payload); err != nil {
						reportErr(fmt.Errorf("conn %d sender %d: %w", i, g, err))
						return
					}
				}
			}(i, g)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				reportErr(fmt.Errorf("conn %d: timeout with %d/%d echoes", i, echoes.Load(), msgs))
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := server.Snapshot()
	t.Logf("server: BatchSends=%d BatchDatagrams=%d (%.2f/batch) BatchRecvs=%d RecvDatagrams=%d",
		st.BatchSends, st.BatchDatagrams, st.DatagramsPerBatch, st.BatchRecvs, st.RecvDatagrams)
	var cli EndpointStats
	for _, ep := range clients {
		cs := ep.Snapshot()
		cli.BatchSends += cs.BatchSends
		cli.BatchDatagrams += cs.BatchDatagrams
		cli.TxErrors += cs.TxErrors
	}
	t.Logf("clients: BatchSends=%d BatchDatagrams=%d TxErrors=%d",
		cli.BatchSends, cli.BatchDatagrams, cli.TxErrors)
	if cli.TxErrors != 0 {
		t.Fatalf("clients recorded %d TxErrors over a healthy transport", cli.TxErrors)
	}
}

// TestBatchStressNetsim hammers the batched flush over the in-memory
// network: deliveries run on the senders' goroutines, so SendBatch,
// the router, and the echo path race for 8 connections.
func TestBatchStressNetsim(t *testing.T) {
	msgs := 400
	if testing.Short() {
		msgs = 50
	}
	net := netsim.New(vclock.Real{}, netsim.Config{})
	batchStress(t, 8, msgs,
		func(i int) Transport { return net.Endpoint(fmt.Sprintf("bc%d", i)) },
		net.Endpoint("bsrv"), "bsrv")
}

// TestBatchStressUDP is the same hammer over real UDP loopback: on Linux
// the bursts leave through sendmmsg and arrive through the recvmmsg ring.
func TestBatchStressUDP(t *testing.T) {
	msgs := 100
	if testing.Short() {
		msgs = 20
	}
	serverT, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	batchStress(t, 8, msgs,
		func(i int) Transport {
			tr, err := udp.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
		serverT, serverT.LocalAddr())
}
