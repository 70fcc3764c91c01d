package ctp_test

import (
	"fmt"
	"time"

	"repro/internal/ctp"
	"repro/internal/simnet"
)

// A reliable, ordered, checksummed transport connection between two
// simulated nodes.
func ExampleEndpoint() {
	net := simnet.New(simnet.Config{Nodes: 2})
	defer net.Close()

	delivered := make(chan string, 1)
	mk := func(id, peer simnet.NodeID, deliver func([]byte)) *ctp.Endpoint {
		e, err := ctp.NewEndpoint(ctp.Config{
			Net: net, ID: id, Peer: peer,
			Reliable: true, Ordered: true, Checksummed: true,
			Deliver: deliver,
		})
		if err != nil {
			panic(err)
		}
		e.Start()
		return e
	}
	a := mk(0, 1, nil)
	b := mk(1, 0, func(msg []byte) {
		select { // Deliver runs on the receive pump: never block it
		case delivered <- string(msg):
		default:
		}
	})
	defer a.Stop()
	defer b.Stop()

	if err := a.Send([]byte("over the wire")); err != nil {
		fmt.Println(err)
		return
	}
	select {
	case msg := <-delivered:
		fmt.Println(msg)
	case <-time.After(5 * time.Second):
		fmt.Println("timeout")
	}
	// Output: over the wire
}
