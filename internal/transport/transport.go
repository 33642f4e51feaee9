// Package transport defines the sending surfaces the protocol logic is
// written against, decoupling the query-processing state machines in
// internal/core and internal/baseline from the medium that carries their
// messages.
//
// Two media implement these interfaces:
//
//   - internal/simnet: the metered in-memory network the experiments run
//     on, with configurable latency and loss;
//   - internal/nettcp: a real length-prefixed TCP transport for
//     deployments.
//
// Send methods do not return errors: the protocol state machines are
// designed to tolerate message loss (that is the point of the epoch and
// fallback machinery), so delivery failure is a metered event of the
// medium, not a control-flow branch of the protocol.
package transport

import (
	"sync/atomic"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// ServerSide is the sending surface available to a query server.
type ServerSide interface {
	// Downlink sends one unicast message to a specific client.
	Downlink(to model.ObjectID, m protocol.Message)
	// Broadcast sends a message to every client inside the grid cells
	// intersecting the region.
	Broadcast(region geo.Circle, m protocol.Message)
}

// BroadcastItem and BatchServerSide are the former broadcast-batch
// surface. No medium implements BatchServerSide any more and no server
// calls it: every broadcast goes through ServerSide.Broadcast. They stay
// declared only because the repository's benchmark harness (bench/) still
// names them; they go when it is next revised.
type BroadcastItem struct {
	Region geo.Circle
	Msg    protocol.Message
}

// BatchServerSide: see BroadcastItem.
type BatchServerSide interface {
	BroadcastBatch(items []BroadcastItem)
}

// ClientSide is the sending surface available to one mobile client.
type ClientSide interface {
	// Uplink sends one unicast message to the server.
	Uplink(m protocol.Message)
}

// SharingSide is optionally implemented by a ClientSide whose medium
// delivers each broadcast to its whole audience in this process, one
// recipient after another. Shared returns the one slot all clients of
// that medium reach: client logic may publish there an immutable value it
// derived from the broadcast being delivered, so the rest of the audience
// reuses it instead of deriving its own. The slot holds one type, the
// client logic's; loading and storing it are safe for concurrent use.
// The sockets, which deliver to each client on its own connection, do not
// implement it.
type SharingSide interface {
	Shared() *atomic.Value
}

// ServerHandler consumes uplinks at the server.
type ServerHandler interface {
	HandleUplink(from model.ObjectID, m protocol.Message)
}

// DisconnectHandler is optionally implemented by a ServerHandler on
// connection-oriented media: the transport reports that a client is gone
// (connection closed or replaced) so the server can purge its state —
// e.g. drop the object from answers, or tear down the queries of a
// vanished focal client. Wireless-style media never call it.
type DisconnectHandler interface {
	HandleClientGone(id model.ObjectID)
}

// AttachHandler is optionally implemented by a ServerHandler on
// connection-oriented media: the transport reports that a client has
// completed its handshake, so the server can greet it — e.g. push the
// current partition map to a client whose routing belief may be stale
// from before it (re)connected. Wireless-style media never call it.
type AttachHandler interface {
	HandleClientAttached(id model.ObjectID)
}

// ClientHandler consumes downlinks and broadcasts at one client.
type ClientHandler interface {
	HandleServerMessage(m protocol.Message)
}

// ServerHandlerFunc adapts a function to ServerHandler.
type ServerHandlerFunc func(from model.ObjectID, m protocol.Message)

// HandleUplink implements ServerHandler.
func (f ServerHandlerFunc) HandleUplink(from model.ObjectID, m protocol.Message) { f(from, m) }

// ClientHandlerFunc adapts a function to ClientHandler.
type ClientHandlerFunc func(m protocol.Message)

// HandleServerMessage implements ClientHandler.
func (f ClientHandlerFunc) HandleServerMessage(m protocol.Message) { f(m) }
