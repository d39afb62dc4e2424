// Command pafilter assembles, validates, and executes packet-filter
// programs (paper §3.3, Table 2) against the default four-layer stack's
// compiled header schema.
//
//	pafilter -show                   # print the stack's own two filters
//	pafilter -fields                 # list the field names available
//	echo 'push.size
//	pop.field len' | pafilter        # assemble + validate from stdin
//	pafilter -run -payload 48656c6c6f < prog.pf   # run against a payload
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/stack"
)

func main() {
	show := flag.Bool("show", false, "disassemble the default stack's send and receive filters")
	fields := flag.Bool("fields", false, "list assembler-visible header fields")
	run := flag.Bool("run", false, "run the assembled program against a message")
	bench := flag.Bool("bench", false, "time the assembled program")
	payloadHex := flag.String("payload", "", "hex payload for -run/-bench")
	flag.Parse()

	schema, sendProg, recvProg, err := defaultFilters()
	fail(err)

	switch {
	case *show:
		fmt.Println("send filter:")
		fmt.Print(sendProg.Disassemble())
		fmt.Printf("  (max stack %d)\n\n", sendProg.MaxStack())
		fmt.Println("receive filter:")
		fmt.Print(recvProg.Disassemble())
		fmt.Printf("  (max stack %d)\n", recvProg.MaxStack())
	case *fields:
		fmt.Printf("%-12s %-10s %-26s %6s %7s\n", "layer", "name", "class", "bits", "offset")
		for _, h := range schema.Fields() {
			fmt.Printf("%-12s %-10s %-26s %6d %7d\n",
				h.Layer(), h.Name(), h.Class().String(), h.SizeBits(), h.Offset())
		}
	default:
		src, err := io.ReadAll(os.Stdin)
		fail(err)
		prog, err := filter.Assemble(string(src), filter.SchemaResolver(schema))
		fail(err)
		fmt.Printf("valid program: %d instructions, max stack %d\n", prog.Len(), prog.MaxStack())
		fmt.Print(prog.Disassemble())
		if *bench {
			payload, err := hex.DecodeString(*payloadHex)
			fail(err)
			benchProgram(schema, prog, payload)
		}
		if *run {
			payload, err := hex.DecodeString(*payloadHex)
			fail(err)
			env := &filter.Env{Payload: payload, Order: bits.BigEndian}
			for c := header.Class(0); c < header.NumClasses; c++ {
				env.Hdr[c] = make([]byte, schema.Size(c))
			}
			status := prog.Run(env)
			fmt.Printf("status: %d (%s)\n", status, statusName(status))
			for c := header.Class(0); c < header.NumClasses; c++ {
				if schema.Size(c) > 0 && c != header.ConnID {
					fmt.Printf("  %-26s %x\n", c.String(), env.Hdr[c])
				}
			}
		}
	}
}

// benchProgram times the interpreter on prog.
func benchProgram(schema *header.Schema, prog *filter.Program, payload []byte) {
	env := &filter.Env{Payload: payload, Order: bits.BigEndian}
	for c := header.Class(0); c < header.NumClasses; c++ {
		env.Hdr[c] = make([]byte, schema.Size(c))
	}
	const rounds = 1 << 20
	start := time.Now()
	for i := 0; i < rounds; i++ {
		prog.Run(env)
	}
	fmt.Printf("timing (1M runs): %v per run\n", time.Since(start)/rounds)
}

func statusName(s int) string {
	switch s {
	case filter.StatusOK:
		return "ok: fast path"
	case filter.StatusDrop:
		return "drop"
	case filter.StatusFault:
		return "runtime fault"
	default:
		return "fall back to the protocol stack"
	}
}

// defaultFilters initializes the paper's four-layer stack and returns its
// schema and the two packet filters the layers programmed.
func defaultFilters() (*header.Schema, *filter.Program, *filter.Program, error) {
	ls, err := core.DefaultStack(core.PeerSpec{
		LocalID: []byte("local"), RemoteID: []byte("remote"),
	}, bits.BigEndian)
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := stack.NewStack(ls...)
	if err != nil {
		return nil, nil, nil, err
	}
	schema := header.New()
	sb, rb := filter.NewBuilder(), filter.NewBuilder()
	if err := st.Init(&stack.InitContext{Schema: schema, SendFilter: sb, RecvFilter: rb}); err != nil {
		return nil, nil, nil, err
	}
	if err := schema.Compile(); err != nil {
		return nil, nil, nil, err
	}
	send, err := sb.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	recv, err := rb.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	return schema, send, recv, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pafilter:", err)
		os.Exit(1)
	}
}
