package gc_test

import (
	"fmt"
	"time"

	"repro/internal/gc"
	"repro/internal/simnet"
)

// A single-member group still runs the full machinery — RelCast
// dissemination, consensus, total-order delivery — over the loopback.
func ExampleSite() {
	net := simnet.New(simnet.Config{Nodes: 1})
	defer net.Close()

	delivered := make(chan string, 1)
	site := gc.NewSite(gc.Config{
		Net:         net,
		ID:          0,
		InitialView: gc.NewView(0),
		FDInterval:  -1,
		Deliver: func(from simnet.NodeID, data []byte) {
			select { // Deliver runs inside a computation: never block it
			case delivered <- string(data):
			default:
			}
		},
	})
	site.Start()
	defer site.Stop()

	if err := site.ABcast([]byte("hello group")); err != nil {
		fmt.Println(err)
		return
	}
	select {
	case msg := <-delivered:
		fmt.Println(msg)
	case <-time.After(5 * time.Second):
		fmt.Println("timeout")
	}
	// Output: hello group
}
