package baseline

import (
	"fmt"

	"paccel/internal/core"
	"paccel/internal/header"
	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

// The §2 header comparison: the same four-layer stack laid out by the
// Protocol Accelerator (compact, cross-layer packed, identification sent
// once) and by this traditional endpoint (one padded block per layer,
// identification on every message).
func ExampleEndpoint_Schema() {
	net := netsim.New(vclock.NewManual(t0), netsim.Config{})
	pa, err := core.NewEndpoint(core.Config{Transport: net.Endpoint("A")})
	if err != nil {
		panic(err)
	}
	defer pa.Close()
	conn, err := pa.Dial(core.PeerSpec{
		Addr: "B", LocalID: []byte("client"), RemoteID: []byte("server"),
		LocalPort: 1, RemotePort: 2, Epoch: 1,
	})
	if err != nil {
		panic(err)
	}
	bl, err := NewEndpoint(Config{Transport: net.Endpoint("C")})
	if err != nil {
		panic(err)
	}
	defer bl.Close()

	paSchema, blSchema := conn.Schema(), bl.Schema()
	fmt.Print(paSchema.Report())
	fmt.Println()
	fmt.Print(blSchema.Report())
	paNormal := core.PreambleSize + paSchema.TotalSize() + 1
	fmt.Printf("normal PA message overhead: %d bytes (preamble %d + headers %d + packing 1)\n",
		paNormal, core.PreambleSize, paSchema.TotalSize())
	fmt.Printf("first PA message adds the %d-byte identification\n", paSchema.Size(header.ConnID))
	fmt.Printf("traditional overhead on every message: %d bytes\n", blSchema.TotalSize())
	fmt.Printf("PA saves %d bytes per normal message (%.1fx smaller; fits the 40-byte U-Net fast frame: %v)\n",
		blSchema.TotalSize()-paNormal, float64(blSchema.TotalSize())/float64(paNormal), paNormal <= 40)
	// Output:
	// compact layout (PA):
	//   connection-identification     76 bytes (0 padding bits)
	//     bit    0  ident        src        256 bits
	//     bit  256  ident        dst        256 bits
	//     bit  512  ident        epoch      32 bits
	//     bit  544  ident        sport      16 bits
	//     bit  560  ident        dport      16 bits
	//     bit  576  ident        version    16 bits
	//     bit  592  ident        flags      8 bits
	//     bit  600  ident        order      8 bits
	//   protocol-specific              5 bytes (4 padding bits)
	//     bit    0  window       seq        32 bits
	//     bit   32  window       type       2 bits
	//     bit   34  frag         isfrag     1 bits
	//     bit   35  frag         last       1 bits
	//   message-specific               4 bytes (0 padding bits)
	//     bit    0  chksum       len        16 bits
	//     bit   16  chksum       ck         16 bits
	//   gossip                         4 bytes (0 padding bits)
	//     bit    0  window       ack        32 bits
	//   normal message headers: 13 bytes (+8-byte preamble)
	//
	// layered layout (baseline): 96 bytes total, 60 padding bits
	//   layer chksum         4 bytes
	//   layer frag           4 bytes
	//   layer window        12 bytes
	//   layer ident         76 bytes
	// normal PA message overhead: 22 bytes (preamble 8 + headers 13 + packing 1)
	// first PA message adds the 76-byte identification
	// traditional overhead on every message: 96 bytes
	// PA saves 74 bytes per normal message (4.4x smaller; fits the 40-byte U-Net fast frame: true)
}
