package core

import (
	"fmt"
	"testing"
	"time"

	"paccel/internal/faultinject"
	"paccel/internal/udp"
	"paccel/internal/vclock"
)

// TestFanoutOverUDP multicasts from one UDP loopback endpoint to three
// others, the path Fanout.Send takes over a real socket (one SendBatchTo
// per multicast). Every member receives every multicast, in order, and
// each multicast is one batch. Through a fault injector that drops
// everything bound for one member, the other two still receive every
// multicast, the drops are counted, and a dropped datagram counts as
// sent, so each multicast is still one batch with no transport error.
func TestFanoutOverUDP(t *testing.T) {
	for _, dropMember := range []int{-1, 1} {
		t.Run(fmt.Sprintf("drop=%d", dropMember), func(t *testing.T) {
			testFanoutOverUDP(t, dropMember)
		})
	}
}

func testFanoutOverUDP(t *testing.T, dropMember int) {
	const members, multicasts = 3, 8
	listen := func() *udp.Transport {
		tr, err := udp.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	hubT := listen()
	var memberT []*udp.Transport
	for i := 0; i < members; i++ {
		memberT = append(memberT, listen())
	}
	var hubTr Transport = hubT
	var ft *faultinject.Transport
	if dropMember >= 0 {
		ft = faultinject.New(hubT, vclock.Real{}, 0, faultinject.Rule{
			Kind: faultinject.Drop, Direction: faultinject.Send, Peer: memberT[dropMember].LocalAddr(),
		})
		hubTr = ft
	}
	// A retransmission timeout longer than the test keeps the dropped
	// member's go-back-N out of the batch count.
	hub, err := NewEndpoint(Config{Transport: hubTr, Build: BuildStack(StackOptions{RetransTimeout: time.Minute})})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	var conns []*Conn
	var sinks []*sink
	for i, tr := range memberT {
		ep, err := NewEndpoint(Config{Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		name := memberName(i)
		hc, err := hub.Dial(PeerSpec{
			Addr: tr.LocalAddr(), LocalID: []byte("hub"), RemoteID: []byte(name),
			LocalPort: 1, RemotePort: uint16(i + 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		mc, err := ep.Dial(PeerSpec{
			Addr: hubT.LocalAddr(), LocalID: []byte(name), RemoteID: []byte("hub"),
			LocalPort: uint16(i + 2), RemotePort: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		sk := &sink{}
		mc.OnDeliver(sk.add)
		conns = append(conns, hc)
		sinks = append(sinks, sk)
	}
	fan, err := NewFanout(hub, conns...)
	if err != nil {
		t.Fatal(err)
	}

	for k := 0; k < multicasts; k++ {
		before := hub.Snapshot().BatchSends
		if err := fan.Send([]byte(fmt.Sprintf("multicast-%d", k))); err != nil {
			t.Fatalf("multicast %d: %v", k, err)
		}
		if got := hub.Snapshot().BatchSends - before; got != 1 {
			t.Fatalf("multicast %d took %d batches, want 1", k, got)
		}
		deadline := time.Now().Add(5 * time.Second)
		for i, sk := range sinks {
			for i != dropMember && sk.count() < k+1 {
				if time.Now().After(deadline) {
					t.Fatalf("member %d has %d of %d multicasts", i, sk.count(), k+1)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	for i, sk := range sinks {
		want := multicasts
		if i == dropMember {
			want = 0
		}
		if sk.count() != want {
			t.Fatalf("member %d received %d multicasts, want %d", i, sk.count(), want)
		}
		for k := 0; k < want; k++ {
			if got, w := string(sk.get(k)), fmt.Sprintf("multicast-%d", k); got != w {
				t.Fatalf("member %d message %d = %q, want %q", i, k, got, w)
			}
		}
	}
	if st := hub.Snapshot(); st.TxErrors != 0 || st.BatchDatagrams != members*multicasts {
		t.Fatalf("hub stats: TxErrors %d, BatchDatagrams %d; want 0, %d", st.TxErrors, st.BatchDatagrams, members*multicasts)
	}
	if ft != nil {
		if st := ft.Stats(); st.Dropped != multicasts || st.Sent != members*multicasts {
			t.Fatalf("fault stats %+v, want Dropped=%d of Sent=%d", st, multicasts, members*multicasts)
		}
	}
}
