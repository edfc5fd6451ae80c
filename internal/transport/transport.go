// Package transport provides the messaging substrate of FlexLog's
// deployment (§4 network model): reliable FIFO point-to-point links and a
// broadcast primitive.
//
// Two interchangeable implementations are provided:
//
//   - an in-process network with a configurable delay model, partitions and
//     crash-style fault injection, used by the cluster harness, the tests
//     and the benchmarks (the paper's 10 Gbps RTT is injected here);
//   - a TCP transport for real multi-process deployments via
//     cmd/flexlog-server: length-prefixed binary frames (package proto's
//     codec) behind a per-connection preamble.
//
// A node attaches to either through its Lanes, the dispatcher that decides
// which inbound messages run on the node's worker pools and which inline.
//
// Per the paper, links are reliable and FIFO (TCP in practice); message
// loss only occurs under injected partitions or node crashes, which the
// recovery protocols (§6.3) are responsible for masking.
package transport

import (
	"errors"

	"flexlog/internal/types"
)

// Message is any protocol payload. On TCP only the types package proto
// frames can travel; sending any other type fails with
// proto.ErrUnknownMessage.
type Message any

// Handler processes one inbound message. An endpoint may invoke it from
// several goroutines at once: the in-process network runs what no lane
// takes sequentially in delivery order, but lane workers run beside that
// loop, and the TCP transport delivers each connection on its own
// goroutine. Per-sender FIFO holds for inline messages; a keyed lane keeps
// each key's protocol messages, and each key's client requests of one
// tenant, in FIFO order (LaneConfig). Long work should be handed off.
type Handler func(from types.NodeID, msg Message)

// Endpoint is one node's attachment to the network.
type Endpoint interface {
	// ID returns the node id this endpoint speaks as.
	ID() types.NodeID
	// Send delivers msg to the given node, FIFO with respect to other
	// Sends from this endpoint to the same destination.
	Send(to types.NodeID, msg Message) error
	// Broadcast sends msg to every listed node (§4 broadcast primitive:
	// realized as reliable FIFO unicasts; the recovery protocols supply
	// the all-or-nothing completion guarantee under failures).
	Broadcast(tos []types.NodeID, msg Message) error
	// Close detaches the endpoint; pending messages to it are dropped.
	Close() error
}

// ErrClosed is returned when sending from or to a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknownNode is returned when the destination was never registered.
var ErrUnknownNode = errors.New("transport: unknown node")

// ErrPartitioned is returned when fault injection has cut the link.
// Protocol code generally treats this the same as a message that was sent
// and lost to a crash: it relies on timeouts, not on the error.
var ErrPartitioned = errors.New("transport: link partitioned")
