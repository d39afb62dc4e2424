// Command pastream measures one-way streaming throughput — the Table 4
// "message throughput" and "bandwidth" rows — on the Go implementation
// over the in-memory network, showing the §3.4 message-packing statistics
// that make the numbers possible.
//
//	pastream [-n 200000] [-size 8] [-latency 35us]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"paccel/internal/experiments"
	"paccel/internal/netsim"
)

func main() {
	n := flag.Int("n", 200000, "messages to stream")
	size := flag.Int("size", 8, "payload bytes per message")
	latency := flag.Duration("latency", 0, "simulated one-way network latency (try 35us)")
	flag.Parse()

	pair, err := experiments.NewPair(experiments.PairOptions{
		NetConfig: netsim.Config{Latency: *latency, MTU: 64 << 10},
	})
	fail(err)
	defer pair.Close()

	start := time.Now()
	msgs, bytesPs, err := pair.StreamOneWay(*n, make([]byte, *size))
	fail(err)
	el := time.Since(start)

	fmt.Printf("streamed %d × %d-byte messages in %v\n", *n, *size, el.Round(time.Millisecond))
	fmt.Printf("  throughput: %.0f msgs/s, %.2f Mbytes/s\n", msgs, bytesPs/1e6)
	st := pair.A.Stats()
	fmt.Printf("  sender:   fast sends %d, backlogged %d, packed batches %d (%.1f msgs/batch avg)\n",
		st.FastSends, st.Backlogged, st.PackedBatches, avg(st.PackedMsgs, st.PackedBatches))
	rb := pair.B.Stats()
	fmt.Printf("  receiver: fast delivers %d, slow %d, unpacked %d messages\n",
		rb.FastDelivers, rb.SlowDelivers, rb.PackedMsgs)
}

func avg(total, batches uint64) float64 {
	if batches == 0 {
		return 0
	}
	return float64(total) / float64(batches)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastream:", err)
		os.Exit(1)
	}
}
