// Command transport demonstrates the configurable transport protocol
// (internal/ctp) — this repository's second protocol system, in the
// Cactus/CTP tradition the paper builds on: a byte-message transport
// composed from Segment, Order, ARQ and Checksum microprotocols, each an
// ordinary SAMOA microprotocol scheduled under the isolated construct.
//
// It sends the same workload over a hostile link (20% loss, 10%
// corruption, reordering delays) with two compositions: the full stack,
// and raw datagrams. The full stack delivers every byte intact and in
// order; raw datagrams show why the layers exist.
package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/ctp"
	"repro/internal/simnet"
	"repro/internal/transport/faultnet"
)

const msgs = 40

func run(name string, reliable, ordered, checksummed bool) {
	net := faultnet.New(faultnet.Config{
		Inner: simnet.New(simnet.Config{Nodes: 2}),
		Seed:  2026,
		Rates: faultnet.Rates{
			Drop: 0.20, Corrupt: 0.10,
			Delay: 1, DelayMin: 100 * time.Microsecond, DelayMax: 3 * time.Millisecond, // heavy reordering
		},
	})
	defer net.Close()

	var mu sync.Mutex
	var got [][]byte
	mk := func(id, peer simnet.NodeID, deliver func([]byte)) *ctp.Endpoint {
		e, err := ctp.NewEndpoint(ctp.Config{
			Net: net, ID: id, Peer: peer,
			Reliable: reliable, Ordered: ordered, Checksummed: checksummed,
			RTO: 10 * time.Millisecond, MSS: 128,
			Deliver: deliver,
		})
		if err != nil {
			panic(err)
		}
		e.Start()
		return e
	}
	a := mk(0, 1, nil)
	b := mk(1, 0, func(m []byte) {
		mu.Lock()
		got = append(got, append([]byte(nil), m...))
		mu.Unlock()
	})
	defer a.Stop()
	defer b.Stop()

	want := make([][]byte, msgs)
	for i := range want {
		want[i] = []byte(fmt.Sprintf("message %02d — %s", i, string(bytes.Repeat([]byte{'a' + byte(i%26)}, 300))))
		if err := a.Send(want[i]); err != nil {
			panic(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= msgs || (!reliable && time.Now().After(deadline.Add(-9500*time.Millisecond))) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	intact, inOrder := 0, true
	for i, m := range got {
		if i < len(want) && bytes.Equal(m, want[i]) {
			intact++
		} else {
			inOrder = false
		}
	}
	fmt.Printf("— %s —\n", name)
	fmt.Printf("  delivered %d/%d, intact-and-in-order: %v\n", len(got), msgs, inOrder && len(got) == msgs)
	fmt.Printf("  retransmits: %d, checksum rejections: %d\n", a.Retransmits(), a.BadFrames()+b.BadFrames())
	st := net.Stats()
	fmt.Printf("  link: %d sent, %d lost, %d corrupted\n\n", st.Sent, st.DroppedLoss, st.Corrupted)
	_ = intact
}

func main() {
	fmt.Printf("hostile link: 20%% loss, 10%% corruption, up to 3ms reordering; %d messages of ~320B\n\n", msgs)
	run("full stack (segment+order+arq+checksum)", true, true, true)
	run("raw datagrams (segment only)", false, false, false)
	fmt.Println("Same framework, same microprotocols — composition is configuration")
	fmt.Println("(the Cactus/CTP heritage, scheduled by SAMOA's isolated construct).")
}
