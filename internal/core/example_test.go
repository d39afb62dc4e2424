package core_test

import (
	"fmt"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/stack"
)

// ExampleDefaultStack prints the two packet filters (§3.3, Table 2) that
// the paper's four layers program at initialization: the send filter
// fills in the message-specific fields, and the receive filter checks
// them and decides whether a delivery can take the fast path. A change to
// any layer's filter program shows up here.
func ExampleDefaultStack() {
	ls, err := core.DefaultStack(core.PeerSpec{
		LocalID: []byte("local"), RemoteID: []byte("remote"),
	}, bits.BigEndian)
	if err != nil {
		panic(err)
	}
	st, err := stack.NewStack(ls...)
	if err != nil {
		panic(err)
	}
	schema := header.New()
	sb, rb := filter.NewBuilder(), filter.NewBuilder()
	if err := st.Init(&stack.InitContext{Schema: schema, SendFilter: sb, RecvFilter: rb}); err != nil {
		panic(err)
	}
	if err := schema.Compile(); err != nil {
		panic(err)
	}
	for _, f := range []struct {
		name string
		b    *filter.Builder
	}{{"send", sb}, {"receive", rb}} {
		prog, err := f.b.Build()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s filter (max stack %d):\n%s", f.name, prog.MaxStack(), prog.Disassemble())
	}
	// Output:
	// send filter (max stack 1):
	//   0  push.size
	//   1  pop.field len
	//   2  digest inet16
	//   3  pop.field ck
	// receive filter (max stack 2):
	//   0  push.field len
	//   1  push.size
	//   2  ne
	//   3  abort -1
	//   4  push.field ck
	//   5  digest inet16
	//   6  ne
	//   7  abort -1
}
