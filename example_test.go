package paccel_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"paccel"
)

// Example shows the basic accelerated exchange: dial both ends over an
// in-memory network, send, and reply from the delivery callback. The
// perfect network delivers inside Send, so each reply has arrived by the
// time Send returns. The 76-byte connection identification crosses the
// wire once; every later message carries an 8-byte cookie instead.
func Example() {
	net := paccel.NewSimNetwork(paccel.SimConfig{})
	alice, _ := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("A")})
	defer alice.Close()
	bob, _ := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("B")})
	defer bob.Close()

	// Both sides dial with mirrored identifications. The default stack is
	// the paper's: checksum, fragmentation, 16-entry sliding window,
	// identification.
	a, _ := alice.Dial(paccel.PeerSpec{
		Addr: "B", LocalID: []byte("alice"), RemoteID: []byte("bob"),
		LocalPort: 1, RemotePort: 2,
	})
	b, _ := bob.Dial(paccel.PeerSpec{
		Addr: "A", LocalID: []byte("bob"), RemoteID: []byte("alice"),
		LocalPort: 2, RemotePort: 1,
	})

	b.OnDeliver(func(p []byte) {
		fmt.Printf("bob got %q\n", p)
		b.Send(append([]byte("re: "), p...))
	})
	a.OnDeliver(func(p []byte) { fmt.Printf("alice got %q\n", p) })
	for _, msg := range []string{"hello", "protocol", "accelerator"} {
		a.Send([]byte(msg))
	}

	st := a.Stats()
	fmt.Printf("%d sends, %d on the fast path, identification sent %d time(s)\n",
		st.Sent, st.FastSends, st.ConnIDSent)
	fmt.Printf("normal message overhead: %d bytes of headers + 8-byte preamble\n",
		a.Schema().TotalSize()+1)
	// Output:
	// bob got "hello"
	// alice got "re: hello"
	// bob got "protocol"
	// alice got "re: protocol"
	// bob got "accelerator"
	// alice got "re: accelerator"
	// 3 sends, 3 on the fast path, identification sent 1 time(s)
	// normal message overhead: 14 bytes of headers + 8-byte preamble
}

// Example_acceptHook serves a key-value store to several clients through
// the endpoint's Accept hook: the server dials nothing in advance, it
// mirrors each identification it receives into a connection and answers
// from the delivery callback.
func Example_acceptHook() {
	net := paccel.NewSimNetwork(paccel.SimConfig{})
	var mu sync.Mutex
	store := make(map[string]string)
	handle := func(req []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		switch parts := strings.SplitN(string(req), " ", 3); {
		case len(parts) == 3 && parts[0] == "PUT":
			store[parts[1]] = parts[2]
			return []byte("OK")
		case len(parts) == 2 && parts[0] == "GET":
			if v, ok := store[parts[1]]; ok {
				return []byte(v)
			}
			return []byte("NOT FOUND")
		}
		return []byte("BAD REQUEST")
	}
	server, _ := paccel.NewEndpoint(paccel.Config{
		Transport: net.Endpoint("server"),
		Accept: func(remote paccel.IdentInfo, netSrc string) (paccel.PeerSpec, bool) {
			return paccel.PeerSpec{
				Addr:      netSrc,
				LocalID:   bytes.TrimRight(remote.Dst, "\x00"),
				RemoteID:  bytes.TrimRight(remote.Src, "\x00"),
				LocalPort: remote.DstPort, RemotePort: remote.SrcPort,
				Epoch: remote.Epoch,
			}, true
		},
		OnConn: func(c *paccel.Conn) {
			c.OnDeliver(func(req []byte) { c.Send(handle(req)) })
		},
	})
	defer server.Close()

	for id := 0; id < 3; id++ {
		host := fmt.Sprintf("client-%d", id)
		ep, _ := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint(host)})
		conn, _ := ep.Dial(paccel.PeerSpec{
			Addr: "server", LocalID: []byte(host), RemoteID: []byte("kv-server"),
			LocalPort: uint16(100 + id), RemotePort: 7, Epoch: 1,
		})
		reply := make(chan string, 1)
		conn.OnDeliver(func(p []byte) { reply <- string(p) })
		call := func(req string) string {
			conn.Send([]byte(req))
			return <-reply
		}
		key := fmt.Sprintf("greeting-%d", id)
		fmt.Printf("client %d: PUT → %s\n", id, call(fmt.Sprintf("PUT %s hello-from-%d", key, id)))
		fmt.Printf("client %d: GET → %s\n", id, call("GET "+key))
		ep.Close()
	}
	fmt.Printf("server accepted %d connections\n", server.Snapshot().Accepted)
	// Output:
	// client 0: PUT → OK
	// client 0: GET → hello-from-0
	// client 1: PUT → OK
	// client 1: GET → hello-from-1
	// client 2: PUT → OK
	// client 2: GET → hello-from-2
	// server accepted 3 connections
}

// ExampleNewRPCClient demonstrates correlated request/response calls.
func ExampleNewRPCClient() {
	net := paccel.NewSimNetwork(paccel.SimConfig{})
	cliEP, _ := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("C")})
	defer cliEP.Close()
	srvEP, _ := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("S")})
	defer srvEP.Close()
	cli, _ := cliEP.Dial(paccel.PeerSpec{Addr: "S", LocalID: []byte("c"), RemoteID: []byte("s"), LocalPort: 1, RemotePort: 2})
	srv, _ := srvEP.Dial(paccel.PeerSpec{Addr: "C", LocalID: []byte("s"), RemoteID: []byte("c"), LocalPort: 2, RemotePort: 1})

	paccel.ServeRPC(srv, func(req []byte) []byte {
		return append([]byte("echo "), req...)
	})
	client := paccel.NewRPCClient(cli)
	defer client.Close()
	resp, _ := client.Call([]byte("42"))
	fmt.Printf("%s\n", resp)
	// Output: echo 42
}

// ExampleUseSecure runs the secure channel: StackOptions.Secure replaces
// the checksum layer with AES-GCM keyed from a pre-shared master key, and
// ConnSecureStats reads the layer's counters once the connection is
// quiescent (here, closed).
func ExampleUseSecure() {
	key := []byte("pre-shared master key") // both sides must agree
	build := paccel.BuildStack(paccel.StackOptions{Secure: paccel.UseSecure(key)})

	net := paccel.NewSimNetwork(paccel.SimConfig{})
	alice, _ := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("A"), Build: build})
	bob, _ := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("B"), Build: build})
	a, _ := alice.Dial(paccel.PeerSpec{Addr: "B", LocalID: []byte("alice"), RemoteID: []byte("bob"), LocalPort: 1, RemotePort: 2})
	b, _ := bob.Dial(paccel.PeerSpec{Addr: "A", LocalID: []byte("bob"), RemoteID: []byte("alice"), LocalPort: 2, RemotePort: 1})

	b.OnDeliver(func(p []byte) { fmt.Printf("bob got %q\n", p) })
	a.Send([]byte("sealed on the wire"))
	alice.Close()
	bob.Close()

	stats, ok := paccel.ConnSecureStats(b)
	fmt.Printf("secure layer: %v, auth failures: %d\n", ok, stats.AuthFails)
	// Output:
	// bob got "sealed on the wire"
	// secure layer: true, auth failures: 0
}

// ExampleNewGroupMesh demonstrates totally-ordered multicast.
func ExampleNewGroupMesh() {
	mesh, _ := paccel.NewGroupMesh([]string{"a", "b"}, paccel.SimConfig{}, paccel.GroupTotal, "a")
	defer mesh.Close()
	done := make(chan struct{})
	mesh.Groups["b"].OnDeliver(func(origin string, p []byte) {
		fmt.Printf("%s said %q\n", origin, p)
		close(done)
	})
	mesh.Groups["a"].Send([]byte("ordered"))
	<-done
	// Output: a said "ordered"
}

// ExampleNewGroupMesh_replicated replicates a counter service across three
// members. The members send their commands concurrently, the sequencer
// imposes one global order, and so every replica applies the same log and
// holds the same state, with no locks between them.
func ExampleNewGroupMesh_replicated() {
	members := []string{"r1", "r2", "r3"}
	mesh, _ := paccel.NewGroupMesh(members, paccel.SimConfig{}, paccel.GroupTotal, "r1")
	defer mesh.Close()

	const perMember = 20
	type replica struct {
		log      []string
		counters map[string]int
	}
	replicas := make(map[string]*replica)
	var mu sync.Mutex
	var delivered sync.WaitGroup
	delivered.Add(perMember * len(members) * len(members))
	for _, name := range members {
		r := &replica{counters: make(map[string]int)}
		replicas[name] = r
		mesh.Groups[name].OnDeliver(func(origin string, cmd []byte) {
			mu.Lock()
			r.log = append(r.log, origin+": "+string(cmd))
			switch f := strings.Fields(string(cmd)); f[0] {
			case "INC":
				r.counters[f[1]]++
			case "ADD":
				n, _ := strconv.Atoi(f[2])
				r.counters[f[1]] += n
			}
			mu.Unlock()
			delivered.Done()
		})
	}

	var senders sync.WaitGroup
	for _, name := range members {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < perMember; i++ {
				cmd := "INC a"
				if i%3 == 0 {
					cmd = "ADD b 5"
				}
				mesh.Groups[name].Send([]byte(cmd))
			}
		}()
	}
	senders.Wait()
	delivered.Wait()

	identical := true
	for _, name := range members {
		r := replicas[name]
		fmt.Printf("%s: a=%d b=%d applied=%d\n", name, r.counters["a"], r.counters["b"], len(r.log))
		identical = identical && strings.Join(r.log, "\n") == strings.Join(replicas["r1"].log, "\n")
	}
	fmt.Println("identical:", identical)
	fmt.Printf("sequencer ordered %d commands\n", mesh.Groups["r1"].Stats().Sequenced)
	// Output:
	// r1: a=39 b=105 applied=60
	// r2: a=39 b=105 applied=60
	// r3: a=39 b=105 applied=60
	// identical: true
	// sequencer ordered 60 commands
}

// ExampleNewFaultTransport runs a connection over a deterministic fault
// plan: the injector drops alice's second datagram, the sliding window
// retransmits it when its timeout fires, and bob still gets every
// message exactly once, in order.
func ExampleNewFaultTransport() {
	net := paccel.NewSimNetwork(paccel.SimConfig{})
	tr := paccel.NewFaultTransport(net.Endpoint("A"), 42,
		paccel.FaultRule{Kind: paccel.FaultDrop, Direction: paccel.FaultDirSend, Nth: 2})
	alice, _ := paccel.NewEndpoint(paccel.Config{Transport: tr})
	defer alice.Close()
	bob, _ := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("B")})
	defer bob.Close()
	a, _ := alice.Dial(paccel.PeerSpec{Addr: "B", LocalID: []byte("alice"), RemoteID: []byte("bob"), LocalPort: 1, RemotePort: 2})
	b, _ := bob.Dial(paccel.PeerSpec{Addr: "A", LocalID: []byte("bob"), RemoteID: []byte("alice"), LocalPort: 2, RemotePort: 1})

	done := make(chan struct{})
	b.OnDeliver(func(p []byte) {
		fmt.Printf("bob got %q\n", p)
		if string(p) == "three" {
			close(done)
		}
	})
	for _, msg := range []string{"one", "two", "three"} {
		a.Send([]byte(msg))
	}
	<-done
	fmt.Printf("datagrams dropped by the plan: %d\n", tr.Stats().Dropped)
	// Output:
	// bob got "one"
	// bob got "two"
	// bob got "three"
	// datagrams dropped by the plan: 1
}

// ExampleNewFanout multicasts to three members with one call: the hub
// builds the datagram and runs the send filter once, stamps each member's
// predicted headers, and hands the whole group to the transport as one
// batch, while each member keeps its own sliding window.
func ExampleNewFanout() {
	net := paccel.NewSimNetwork(paccel.SimConfig{})
	hub, _ := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("hub")})
	defer hub.Close()

	var conns []*paccel.Conn
	for i, m := range []string{"m1", "m2", "m3"} {
		ep, _ := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint(m)})
		defer ep.Close()
		c, _ := hub.Dial(paccel.PeerSpec{Addr: m, LocalID: []byte("hub"), RemoteID: []byte(m), LocalPort: 1, RemotePort: uint16(i + 2)})
		mc, _ := ep.Dial(paccel.PeerSpec{Addr: "hub", LocalID: []byte(m), RemoteID: []byte("hub"), LocalPort: uint16(i + 2), RemotePort: 1})
		mc.OnDeliver(func(p []byte) { fmt.Printf("%s got %q\n", m, p) })
		conns = append(conns, c)
	}

	fan, _ := paccel.NewFanout(hub, conns...)
	fan.Send([]byte("one build, three stamps"))
	st := hub.Snapshot()
	fmt.Printf("%d batch, %d datagrams\n", st.BatchSends, st.BatchDatagrams)
	// Output:
	// m1 got "one build, three stamps"
	// m2 got "one build, three stamps"
	// m3 got "one build, three stamps"
	// 1 batch, 3 datagrams
}

// ExampleListenShardedUDP serves a client over real UDP from two
// SO_REUSEPORT sockets on one port (one socket where the platform lacks
// SO_REUSEPORT). Each socket's read loop feeds the endpoint's router, and
// the per-queue receive counts add up to every datagram the endpoint
// heard.
func ExampleListenShardedUDP() {
	srvT, err := paccel.ListenShardedUDP("127.0.0.1:0", 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	server, _ := paccel.NewEndpoint(paccel.Config{Transport: srvT})
	cliT, err := paccel.ListenUDP("127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	client, _ := paccel.NewEndpoint(paccel.Config{Transport: cliT})

	s, _ := server.Dial(paccel.PeerSpec{Addr: cliT.LocalAddr(), LocalID: []byte("server"), RemoteID: []byte("client"), LocalPort: 2, RemotePort: 1})
	c, _ := client.Dial(paccel.PeerSpec{Addr: srvT.LocalAddr(), LocalID: []byte("client"), RemoteID: []byte("server"), LocalPort: 1, RemotePort: 2})
	s.OnDeliver(func(p []byte) { s.Send(append([]byte("re: "), p...)) })
	got := make(chan string, 1)
	c.OnDeliver(func(p []byte) { got <- string(p) })
	c.Send([]byte("ping"))
	fmt.Println(<-got)

	// Closing stops the read loops, so the counters hold still.
	client.Close()
	server.Close()
	st := server.Snapshot()
	var sum uint64
	for _, n := range st.QueueRecvDatagrams {
		sum += n
	}
	fmt.Println("per-queue receive counts add up:", sum > 0 && sum == st.RecvDatagrams)
	// Output:
	// re: ping
	// per-queue receive counts add up: true
}
