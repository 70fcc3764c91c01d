// Package ctp is a configurable transport protocol composed from SAMOA
// microprotocols — the second protocol system in this repository, built
// in the image of Cactus's CTP ("a configurable and extensible transport
// protocol", the paper's reference [24]), which is the tradition the
// paper positions itself in.
//
// A transport Endpoint stacks four optional layers over any transport,
// each an ordinary microprotocol whose handlers communicate only through
// events:
//
//	application
//	   │ Send                      ▲ Deliver
//	Segment    — splits messages into MSS-sized fragments, reassembles
//	Order      — per-connection sequence numbers, in-order release
//	ARQ        — one arq.Link (gc's ARQ too): acks, retransmission, window
//	Checksum   — FNV-32a over the frame, drops corrupted datagrams
//	   │                           ▲
//	 wire (one transport.Endpoint)
//
// The composition is chosen per Endpoint (Reliable, Ordered, Checksummed);
// disabled layers simply drop out of the event chain — the configurability
// the protocol-framework literature is about, here with the SAMOA twist
// that every external event (application send, datagram arrival,
// retransmission tick) runs as an isolated computation, so the layers'
// unlocked state is protected by the concurrency controller.
//
// The layer interplay under adversity is real: a corrupted datagram is
// dropped by Checksum, so ARQ never acknowledges it and the sender's
// retransmission repairs the stream; Order holds back out-of-order
// fragments until ARQ has filled the gaps; Segment reassembles only
// complete messages.
package ctp
