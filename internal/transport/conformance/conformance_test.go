package conformance_test

import (
	"net"
	"testing"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/conformance"
	"repro/internal/transport/faultnet"
	"repro/internal/transport/udpnet"
)

// requireLoopbackUDP skips socket tests in environments without a
// usable loopback UDP stack (some sandboxes forbid it).
func requireLoopbackUDP(t *testing.T) {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	c.Close()
}

// TestSimnetConformance holds the deterministic simulator to the
// transport contract. simnet is the reference backend: it must pass the
// battery unmodified.
func TestSimnetConformance(t *testing.T) {
	conformance.Run(t, conformance.Backend{
		New: func(t *testing.T, opt conformance.Options) transport.Transport {
			return simnet.New(simnet.Config{Nodes: opt.Nodes})
		},
	})
}

// TestUDPNetConformance holds the real-socket backend to the same
// contract, every node bound to a kernel-assigned loopback port.
func TestUDPNetConformance(t *testing.T) {
	requireLoopbackUDP(t)
	conformance.Run(t, conformance.Backend{
		New: func(t *testing.T, opt conformance.Options) transport.Transport {
			addrs := make([]string, opt.Nodes)
			for i := range addrs {
				addrs[i] = "127.0.0.1:0"
			}
			n, err := udpnet.New(udpnet.Config{Addrs: addrs})
			if err != nil {
				t.Fatalf("udpnet.New: %v", err)
			}
			return n
		},
	})
}

// TestFaultnetSimnetConformance holds the fault-injecting wrapper to the
// same contract over the simulator: with zero rates it must be
// behaviorally invisible.
func TestFaultnetSimnetConformance(t *testing.T) {
	conformance.Run(t, conformance.Backend{
		New: func(t *testing.T, opt conformance.Options) transport.Transport {
			return faultnet.New(faultnet.Config{
				Inner: simnet.New(simnet.Config{Nodes: opt.Nodes}),
				Seed:  42,
			})
		},
	})
}

// TestFaultnetUDPNetConformance runs the battery against real sockets
// wrapped in faultnet — the composition the distributed chaos harness
// ships, with zero rates as behaviorally invisible as over simnet.
func TestFaultnetUDPNetConformance(t *testing.T) {
	requireLoopbackUDP(t)
	conformance.Run(t, conformance.Backend{
		New: func(t *testing.T, opt conformance.Options) transport.Transport {
			addrs := make([]string, opt.Nodes)
			for i := range addrs {
				addrs[i] = "127.0.0.1:0"
			}
			n, err := udpnet.New(udpnet.Config{Addrs: addrs})
			if err != nil {
				t.Fatalf("udpnet.New: %v", err)
			}
			return faultnet.New(faultnet.Config{Inner: n, Seed: 42})
		},
	})
}
