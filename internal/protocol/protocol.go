// Package protocol defines the message taxonomy exchanged between the
// server and the moving clients, together with a compact binary codec.
//
// The same message set serves both the metered in-memory network used by
// the experiments (internal/simnet) and the real TCP transport
// (internal/nettcp): experiments count and size exactly the messages a
// deployment would send.
//
// Directions:
//
//   - uplink: client → server unicast (the scarce wireless resource all
//     methods are compared on);
//   - downlink: server → one client unicast;
//   - broadcast: server → all clients inside a set of grid cells
//     (cell-granular wireless broadcast).
//
// Wire format: one kind byte followed by little-endian fields; a list is
// a u16 or u32 count plus that many fixed-size records. Each kind's
// layout is written once (codec.message), and Encode, EncodedSize and
// Decode all walk it. Encode never fails; Decode validates length and kind.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dmknn/internal/geo"
	"dmknn/internal/model"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. The zero value is invalid so that a zeroed buffer never
// decodes successfully.
const (
	// KindLocationReport is a periodic or threshold-triggered position
	// report from an object (centralized baselines). Uplink.
	KindLocationReport Kind = iota + 1
	// KindProbeRequest asks every object inside a circle to reply with its
	// position (distributed bootstrap/fallback). Broadcast.
	KindProbeRequest
	// KindProbeReply answers a probe with the object's position. Uplink.
	KindProbeReply
	// KindMonitorInstall installs or refreshes a query monitor on all
	// objects inside the monitoring region. Broadcast.
	KindMonitorInstall
	// KindMonitorCancel removes a query monitor. Broadcast.
	KindMonitorCancel
	// KindEnterReport tells the server an aware object moved inside the
	// advertised answer radius. Uplink.
	KindEnterReport
	// KindExitReport tells the server a range query's member moved
	// outside the query's range. Uplink.
	KindExitReport
	// KindLeaveReport is reserved: an aware object's report that it left
	// the monitoring region, from before the server placed every kNN
	// member's track report itself. No message has it and Decode rejects
	// it (ErrUnknownKind); the number stays taken so that no later kind
	// reuses it.
	KindLeaveReport
	// KindMoveReport refreshes the position of an object inside the
	// advertised answer circle after it drifted more than the in-circle
	// threshold from its last report. Uplink.
	KindMoveReport
	// KindQueryRegister registers a continuous kNN query. Uplink (from the
	// query's focal client).
	KindQueryRegister
	// KindQueryMove reports that the query focal point deviated from its
	// advertised track. Uplink.
	KindQueryMove
	// KindQueryDeregister removes a continuous query. Uplink.
	KindQueryDeregister
	// KindAnswerUpdate delivers a changed kNN answer to the query client.
	// Downlink.
	KindAnswerUpdate
	// KindAnswerDelta delivers an incremental answer change (positive and
	// negative updates) instead of the full answer. Downlink.
	KindAnswerDelta
	// KindAnswerResync asks the server for a full re-baselining
	// AnswerUpdate after the focal client detected a gap in the answer
	// sequence (a lost or reordered AnswerDelta). Uplink.
	KindAnswerResync

	// The remaining kinds travel on the inter-node link of a spatially
	// partitioned federation (internal/cluster), never over the radio.

	// KindNodeForward carries a broadcast (probe, install, cancel) from a
	// query's home node to a neighbor node whose region intersects the
	// broadcast region; the neighbor rebroadcasts it in its own cells.
	KindNodeForward
	// KindNodeRelay carries a client uplink from the node that received
	// it to the node that owns the addressed query.
	KindNodeRelay
	// KindNodeDeliver carries a downlink (answer) from a query's home
	// node to the node currently serving the focal client's region.
	KindNodeDeliver
	// KindObjectHandoff transfers an object that crossed a partition
	// boundary: the per-query awareness map used to purge remote monitor
	// state on disconnect.
	KindObjectHandoff
	// KindQueryHandoff migrates a whole query monitor (candidate set,
	// inside set, epoch, answer sequence) to a new home node after the
	// focal client crossed a partition boundary.
	KindQueryHandoff
	// KindQueryHandoffAck confirms a QueryHandoff was applied, letting
	// the old home node drop its retry copy.
	KindQueryHandoffAck
	// KindNodeClientGone tells a node that relayed reports for a now
	// disconnected client to purge the client from its monitor state.
	KindNodeClientGone

	// The remaining kinds are the peer wire of a multi-process
	// federation: control frames exchanged on the node-to-node TCP
	// connections (and one downlink steering clients between nodes).

	// KindPeerHello opens a peer connection: it carries the sender's
	// peer-wire version, node id and view of the cluster size, so a peer
	// of another build or configuration is rejected at handshake time
	// instead of corrupting routing later.
	KindPeerHello
	// KindPeerHeartbeat keeps an idle peer connection verifiably alive.
	// Each side sends one per cadence interval; missing several in a row
	// marks the peer down and tears the connection for a reconnect.
	KindPeerHeartbeat
	// KindNodeRedirect tells a client to reconnect to the node owning its
	// position (carried as that node's client listen address). Downlink.
	KindNodeRedirect

	// The remaining kinds belong to the adaptive partitioning plane
	// (internal/balance): load telemetry and partition map distribution.

	// KindNodeLoad reports one node's load sample (the cumulative count
	// of uplinks its server handled) to the balance coordinator. Peer
	// wire.
	KindNodeLoad
	// KindPartitionUpdate distributes a new partition map (version plus
	// the per-column owner array). It travels on the peer wire from the
	// coordinator to every node, and as a broadcast from a node to its
	// attached clients so they re-aim their supervise loops. Peer wire
	// and broadcast.
	KindPartitionUpdate
	// KindPartitionAck confirms a node applied a PartitionUpdate, letting
	// the coordinator stop retrying and unblock the next rebalance
	// decision. Peer wire.
	KindPartitionAck

	// KindInfluenceInstall is reserved: a MonitorInstall extended with
	// an influence-set frontier, from a removed server mode that let
	// objects suppress MoveReports. No server sends it and agents ignore
	// it; the codec still round-trips it. Broadcast.
	KindInfluenceInstall

	kindEnd // sentinel: all valid kinds are below this
)

var kindNames = map[Kind]string{
	KindLocationReport:   "location-report",
	KindProbeRequest:     "probe-request",
	KindProbeReply:       "probe-reply",
	KindMonitorInstall:   "monitor-install",
	KindMonitorCancel:    "monitor-cancel",
	KindEnterReport:      "enter-report",
	KindExitReport:       "exit-report",
	KindLeaveReport:      "leave-report",
	KindMoveReport:       "move-report",
	KindQueryRegister:    "query-register",
	KindQueryMove:        "query-move",
	KindQueryDeregister:  "query-deregister",
	KindAnswerUpdate:     "answer-update",
	KindAnswerDelta:      "answer-delta",
	KindAnswerResync:     "answer-resync",
	KindNodeForward:      "node-forward",
	KindNodeRelay:        "node-relay",
	KindNodeDeliver:      "node-deliver",
	KindObjectHandoff:    "object-handoff",
	KindQueryHandoff:     "query-handoff",
	KindQueryHandoffAck:  "query-handoff-ack",
	KindNodeClientGone:   "node-client-gone",
	KindPeerHello:        "peer-hello",
	KindPeerHeartbeat:    "peer-heartbeat",
	KindNodeRedirect:     "node-redirect",
	KindNodeLoad:         "node-load",
	KindPartitionUpdate:  "partition-update",
	KindPartitionAck:     "partition-ack",
	KindInfluenceInstall: "influence-install",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds returns every kind a message has, in ascending order, for metric
// tables.
func Kinds() []Kind {
	out := make([]Kind, 0, int(kindEnd)-2)
	for k := KindLocationReport; k < kindEnd; k++ {
		if k != KindLeaveReport {
			out = append(out, k)
		}
	}
	return out
}

// Message is implemented by every protocol message.
type Message interface {
	Kind() Kind
}

// LocationReport carries one object position sample.
type LocationReport struct {
	Object model.ObjectID
	Pos    geo.Point
	Vel    geo.Vector
	At     model.Tick
}

// Kind implements Message.
func (LocationReport) Kind() Kind { return KindLocationReport }

// ProbeRequest asks objects inside Region to reply with their positions.
// Seq distinguishes probe rounds of the same query.
type ProbeRequest struct {
	Query  model.QueryID
	Seq    uint32
	Region geo.Circle
}

// Kind implements Message.
func (ProbeRequest) Kind() Kind { return KindProbeRequest }

// ProbeReply answers a ProbeRequest.
type ProbeReply struct {
	Query  model.QueryID
	Seq    uint32
	Object model.ObjectID
	Pos    geo.Point
}

// Kind implements Message.
func (ProbeReply) Kind() Kind { return KindProbeReply }

// MonitorInstall advertises a query to all objects inside the monitoring
// region. Epoch increases on every reinstall so stale state is discarded.
//
// Refresh distinguishes the two install flavors: after a full probe the
// server rebuilt its candidate state from replies, so objects baseline
// silently; on a refresh (no probe) each object must report any change of
// its inside/outside side relative to its previous monitor state, which
// keeps the server's membership knowledge exact without mass replies.
//
// RangeMode marks a fixed-radius range-monitoring query: membership
// *is* the answer, so in-boundary objects skip MoveReports entirely
// (their exact positions do not affect the result).
type MonitorInstall struct {
	Query        model.QueryID
	Epoch        uint32
	Refresh      bool
	RangeMode    bool
	QueryPos     geo.Point
	QueryVel     geo.Vector
	AnswerRadius float64 // advertised r_k (or the fixed range)
	Radius       float64 // monitoring region radius R >= r_k
	At           model.Tick
}

// Kind implements Message.
func (MonitorInstall) Kind() Kind { return KindMonitorInstall }

// Region returns the monitoring region the install covers.
func (m MonitorInstall) Region() geo.Circle {
	return geo.Circle{Center: m.QueryPos, R: m.Radius}
}

// InfluenceInstall is the reserved KindInfluenceInstall layout: a
// MonitorInstall followed by a frontier distance F from the query point
// and the half-width Band of the gap around it. No server sends it.
//
// Both fields must be finite and non-negative on the wire; Decode
// rejects NaN/Inf the way the server rejects non-finite register
// kinematics, so a corrupt threshold can never disable reporting.
type InfluenceInstall struct {
	Install  MonitorInstall
	Frontier float64
	Band     float64
}

// Kind implements Message.
func (InfluenceInstall) Kind() Kind { return KindInfluenceInstall }

// Region returns the monitoring region the install covers.
func (m InfluenceInstall) Region() geo.Circle { return m.Install.Region() }

// MonitorCancel tells objects to stop monitoring a query.
type MonitorCancel struct {
	Query model.QueryID
	Epoch uint32
}

// Kind implements Message.
func (MonitorCancel) Kind() Kind { return KindMonitorCancel }

// MemberReport is the shared layout of the three member reports.
type MemberReport struct {
	Query  model.QueryID
	Epoch  uint32
	Object model.ObjectID
	Pos    geo.Point
	At     model.Tick
}

// EnterReport: the object crossed inside the advertised answer radius.
// Vel is the velocity of the track the object now keeps: the server
// dead-reckons the member along it until the next report.
type EnterReport struct {
	MemberReport
	Vel geo.Vector
}

// Kind implements Message.
func (EnterReport) Kind() Kind { return KindEnterReport }

// ExitReport: a range query's member crossed outside the range. A kNN
// member reports its track instead (EnterReport, MoveReport), and the
// server places it on its side of the answer circle.
type ExitReport struct{ MemberReport }

// Kind implements Message.
func (ExitReport) Kind() Kind { return KindExitReport }

// MoveReport: an object inside the answer circle left the track it last
// reported; Pos and Vel are its new track.
type MoveReport struct {
	MemberReport
	Vel geo.Vector
}

// Kind implements Message.
func (MoveReport) Kind() Kind { return KindMoveReport }

// QueryRegister registers a continuous query at the server: a kNN query
// when Range is zero, otherwise a fixed-radius range-monitoring query
// (report all objects within Range meters of the moving focal point).
type QueryRegister struct {
	Query model.QueryID
	K     uint32
	Range float64
	Pos   geo.Point
	Vel   geo.Vector
	At    model.Tick
}

// Kind implements Message.
func (QueryRegister) Kind() Kind { return KindQueryRegister }

// QueryMove reports the query focal point's corrected position and
// velocity.
type QueryMove struct {
	Query model.QueryID
	Pos   geo.Point
	Vel   geo.Vector
	At    model.Tick
}

// Kind implements Message.
func (QueryMove) Kind() Kind { return KindQueryMove }

// QueryDeregister removes a continuous query.
type QueryDeregister struct {
	Query model.QueryID
}

// Kind implements Message.
func (QueryDeregister) Kind() Kind { return KindQueryDeregister }

// AnswerUpdate carries a complete current answer to the query client.
//
// Seq is the per-query answer sequence number: the server increments it
// on every answer message (full or delta) it downlinks for the query, so
// the focal client can detect lost, duplicated, and reordered answer
// messages. A full update is self-contained — the client accepts any Seq
// newer than the last one it applied and re-baselines from it.
//
// QPos echoes the server's dead-reckoned estimate of the query position
// at tick At. The focal client compares it against its own advertised
// track: a deviation beyond the tracking threshold proves the server
// missed a QueryMove (lost uplink), and the client re-advertises its
// track. When no uplink was lost the two estimates agree exactly, so the
// echo costs no extra traffic on a clean channel.
type AnswerUpdate struct {
	Query     model.QueryID
	Seq       uint32
	At        model.Tick
	QPos      geo.Point
	Neighbors []model.Neighbor
}

// Kind implements Message.
func (AnswerUpdate) Kind() Kind { return KindAnswerUpdate }

// AnswerDelta carries an incremental answer change: objects added to the
// answer (with distances) and objects removed. The client applies it to
// its last known answer; a full AnswerUpdate re-baselines.
//
// Seq shares the query's answer sequence with AnswerUpdate. A delta is
// only applicable when Seq is exactly one past the client's last applied
// sequence; any other value means the stream lost or reordered a message
// and the client must request a resync instead of applying it.
type AnswerDelta struct {
	Query   model.QueryID
	Seq     uint32
	At      model.Tick
	Added   []model.Neighbor
	Removed []model.ObjectID
}

// Kind implements Message.
func (AnswerDelta) Kind() Kind { return KindAnswerDelta }

// AnswerResync asks the server to re-baseline the query client with a
// full AnswerUpdate. The focal client sends it when the answer stream
// shows a sequence gap (a lost AnswerDelta) or when it restarts without
// state.
type AnswerResync struct {
	Query model.QueryID
}

// Kind implements Message.
func (AnswerResync) Kind() Kind { return KindAnswerResync }

// ---------------------------------------------------------------------------
// Inter-node messages (internal/cluster link)

// NodeForward wraps a broadcast for a neighbor node, which rebroadcasts
// it in its own cells; the link's sender is the query's home node, where
// the receiver relays the reports the rebroadcast provokes. Region is the
// broadcast region as known at the home node — MonitorCancel does not
// carry one on the radio, so the envelope is authoritative for all three
// inner kinds. Inner must be a ProbeRequest, MonitorInstall, or
// MonitorCancel.
type NodeForward struct {
	Region geo.Circle
	Inner  Message
}

// Kind implements Message.
func (NodeForward) Kind() Kind { return KindNodeForward }

// NodeRelay wraps a client uplink being forwarded between nodes. Origin
// is the client that sent it; Hops bounds forwarding chains so routing
// bugs cannot loop a message forever. Inner must be an uplink kind (probe
// reply, membership report, or query lifecycle message).
type NodeRelay struct {
	Origin model.ObjectID
	Hops   uint8
	Inner  Message
}

// Kind implements Message.
func (NodeRelay) Kind() Kind { return KindNodeRelay }

// NodeDeliver wraps a downlink for a client whose region belongs to
// another node. Inner must be an AnswerUpdate or AnswerDelta.
type NodeDeliver struct {
	To    model.ObjectID
	Inner Message
}

// Kind implements Message.
func (NodeDeliver) Kind() Kind { return KindNodeDeliver }

// AwareEntry records one query an object carries monitor state for,
// together with the node the object's reports for it were relayed to.
type AwareEntry struct {
	Query model.QueryID
	Home  uint16
}

// ObjectHandoff transfers ownership of an object that crossed a
// partition boundary. Aware is the per-query awareness state the old
// node accumulated, which the new node needs to purge remote monitors
// when the client later disconnects.
type ObjectHandoff struct {
	Object model.ObjectID
	Aware  []AwareEntry
}

// Kind implements Message.
func (ObjectHandoff) Kind() Kind { return KindObjectHandoff }

// CandidateRecord is one candidate of a migrating monitor: the object's
// reported track, position Pos at tick At moving at Vel. An annulus
// candidate carries no track: zero Vel and At.
type CandidateRecord struct {
	ID  model.ObjectID
	Pos geo.Point
	Vel geo.Vector
	At  model.Tick
}

// QueryHandoff migrates a query monitor to a new home node: the complete
// server-side state machine, exactly as core.Server.ExportMonitorsWhere
// snapshots it and ImportMonitor takes it back, plus Spread, the set of
// nodes the old home ever forwarded the query's broadcasts to, so the new
// home can reach them all on teardown.
type QueryHandoff struct {
	Query        model.QueryID
	K            uint32
	Range        float64
	Addr         model.ObjectID
	QPos         geo.Point
	QVel         geo.Vector
	QAt          model.Tick
	Epoch        uint32
	Installed    bool
	AnswerRadius float64
	Radius       float64
	InstalledAt  model.Tick
	AdvPos       geo.Point  // position the last install advertised, at InstalledAt
	AdvVel       geo.Vector // velocity the last install advertised
	AnswerSeq    uint32
	LastProbeAt  model.Tick
	Candidates   []CandidateRecord
	Inside       []model.ObjectID
	Sent         []model.ObjectID
	Spread       []uint16
}

// Kind implements Message.
func (QueryHandoff) Kind() Kind { return KindQueryHandoff }

// QueryHandoffAck confirms a QueryHandoff was installed at the new home.
type QueryHandoffAck struct {
	Query model.QueryID
}

// Kind implements Message.
func (QueryHandoffAck) Kind() Kind { return KindQueryHandoffAck }

// NodeClientGone asks a node to purge all monitor state involving a
// disconnected client.
type NodeClientGone struct {
	Object model.ObjectID
}

// Kind implements Message.
func (NodeClientGone) Kind() Kind { return KindNodeClientGone }

// ---------------------------------------------------------------------------
// Peer wire (multi-process federation)

// PeerWireVersion numbers the peer wire's layouts (PROTOCOL.md lists
// them). Both ends of a peer connection refuse a PeerHello of another, so
// mixed builds fail at the handshake instead of on their first envelope.
const PeerWireVersion = 3

// PeerHello is the first frame on a node-to-node TCP connection, sent by
// the dialing side after the raw transport handshake. Wire is the
// sender's PeerWireVersion. Node identifies the sender; Nodes is its
// configured cluster size, which the acceptor checks against its own so
// two differently-partitioned deployments cannot be cross-wired. Version
// is the sender's partition map version — the map-version handshake: a
// peer that reconnects with an older version is healed with a
// PartitionUpdate by the newer side.
type PeerHello struct {
	Wire    uint8
	Node    uint16
	Nodes   uint16
	Version uint64
}

// Kind implements Message.
func (PeerHello) Kind() Kind { return KindPeerHello }

// PeerHeartbeat proves a peer connection alive between data frames: the
// kind byte alone, since the connection names its sender.
type PeerHeartbeat struct{}

// Kind implements Message.
func (PeerHeartbeat) Kind() Kind { return KindPeerHeartbeat }

// NodeRedirect steers a client to the federation node owning its
// position: Node is the owner's id and Addr its client listen address.
// The client dials Addr with the same client id (the reconnect replaces
// its old session) and the protocol state machines continue unchanged —
// any frame lost in the switchover is healed like ordinary loss.
type NodeRedirect struct {
	Node uint16
	Addr string
}

// Kind implements Message.
func (NodeRedirect) Kind() Kind { return KindNodeRedirect }

// ---------------------------------------------------------------------------
// Adaptive partitioning plane (internal/balance)

// NodeLoad is one node's load sample, sent to the balance coordinator
// each tick while adaptive partitioning is enabled. Uplinks is the
// cumulative count of client uplinks the node's server has handled since
// start, which the coordinator differences between decisions to get the
// window's count. Version is the sender's partition map version, so the
// coordinator only decides on samples that reflect the current map.
type NodeLoad struct {
	Node    uint16
	Version uint64
	Uplinks uint64
}

// Kind implements Message.
func (NodeLoad) Kind() Kind { return KindNodeLoad }

// PartitionUpdate distributes a partition map: Version is the map's
// monotonically increasing version and Owners the per-column owner node
// ids (index = column). A receiver applies the map iff Version exceeds
// its current one, and always acknowledges, so retries are idempotent.
type PartitionUpdate struct {
	Version uint64
	Owners  []uint16
}

// Kind implements Message.
func (PartitionUpdate) Kind() Kind { return KindPartitionUpdate }

// PartitionAck confirms Node applied (or already had) the partition map
// with the given version.
type PartitionAck struct {
	Node    uint16
	Version uint64
}

// Kind implements Message.
func (PartitionAck) Kind() Kind { return KindPartitionAck }

// validForwardInner reports whether k may ride inside a NodeForward.
func validForwardInner(k Kind) bool {
	switch k {
	case KindProbeRequest, KindMonitorInstall, KindMonitorCancel,
		KindInfluenceInstall:
		return true
	}
	return false
}

// Relayable reports whether k may ride inside a NodeRelay: the client
// uplinks of the query protocol, each of which names its query.
func Relayable(k Kind) bool {
	switch k {
	case KindProbeReply, KindEnterReport, KindExitReport, KindMoveReport, KindQueryRegister, KindQueryMove,
		KindQueryDeregister, KindAnswerResync:
		return true
	}
	return false
}

// validDeliverInner reports whether k may ride inside a NodeDeliver.
func validDeliverInner(k Kind) bool {
	return k == KindAnswerUpdate || k == KindAnswerDelta
}

// ---------------------------------------------------------------------------
// Codec

// ErrTruncated is returned by Decode when the buffer is shorter than the
// fixed layout of its kind requires.
var ErrTruncated = errors.New("protocol: truncated message")

// ErrUnknownKind is returned by Decode for an unrecognized kind byte.
var ErrUnknownKind = errors.New("protocol: unknown message kind")

// ErrBadThreshold is returned by Decode when an InfluenceInstall's
// frontier or band field is NaN, infinite, or negative. A non-finite
// threshold would silently disable (or permanently force) reporting on
// every object that applied it, so the codec rejects it outright — the
// same defense the server applies to non-finite register kinematics.
var ErrBadThreshold = errors.New("protocol: non-finite or negative threshold")

// Encode serializes m, appending to dst (which may be nil) and returning
// the extended buffer.
func Encode(dst []byte, m Message) []byte {
	c := codec{mode: encoding, buf: append(dst, byte(m.Kind()))}
	c.message(m.Kind(), m)
	return c.buf
}

// EncodedSize returns the wire size of m in bytes.
func EncodedSize(m Message) int {
	c := codec{mode: sizing, n: 1}
	c.message(m.Kind(), m)
	return c.n
}

// Decode parses one message from buf. The entire buffer must be consumed;
// trailing bytes are an error, which catches framing bugs early. A list
// count is bounded by the bytes left before anything is allocated for it,
// and a message is boxed only once it decoded whole, so a short frame
// claiming a long list costs no allocation at all.
func Decode(buf []byte) (Message, error) {
	if len(buf) < 1 {
		return nil, ErrTruncated
	}
	k := Kind(buf[0])
	c := codec{mode: decoding, buf: buf[1:]}
	m := c.message(k, nil)
	if c.err != nil {
		return nil, c.err
	}
	if ii, ok := m.(InfluenceInstall); ok && !(validThreshold(ii.Frontier) && validThreshold(ii.Band)) {
		return nil, ErrBadThreshold
	}
	if len(c.buf) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after %v", len(c.buf), k)
	}
	return m, nil
}

// validThreshold reports whether v is usable as an influence frontier or
// band: finite and non-negative.
func validThreshold(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// A codec walks one message's fields in wire order, in one of three
// modes: encoding appends each field to buf, decoding consumes it from
// buf into the field, and sizing adds its width to n. Each kind's layout
// is stated once, in message, so the bytes simnet meters are the bytes a
// deployment sends. Encoding and sizing only read the fields: one message
// may be encoded on several goroutines at once.
type codec struct {
	mode mode
	buf  []byte
	n    int
	err  error // decoding: the first failure; every later field reads zero
}

type mode uint8

const (
	encoding mode = iota
	decoding
	sizing
)

// message walks the fields of kind k after its kind byte: those of m when
// encoding or sizing, those of a new message it returns when decoding.
func (c *codec) message(k Kind, m Message) Message {
	switch k {
	case KindLocationReport:
		v := as[LocationReport](m)
		u32(c, &v.Object)
		point(c, &v.Pos)
		vec(c, &v.Vel)
		u64(c, &v.At)
		return decoded(c, v)
	case KindProbeRequest:
		v := as[ProbeRequest](m)
		u32(c, &v.Query)
		u32(c, &v.Seq)
		circle(c, &v.Region)
		return decoded(c, v)
	case KindProbeReply:
		v := as[ProbeReply](m)
		u32(c, &v.Query)
		u32(c, &v.Seq)
		u32(c, &v.Object)
		point(c, &v.Pos)
		return decoded(c, v)
	case KindMonitorInstall:
		v := as[MonitorInstall](m)
		monitorInstall(c, &v)
		return decoded(c, v)
	case KindInfluenceInstall:
		v := as[InfluenceInstall](m)
		monitorInstall(c, &v.Install)
		f64(c, &v.Frontier)
		f64(c, &v.Band)
		return decoded(c, v)
	case KindMonitorCancel:
		v := as[MonitorCancel](m)
		u32(c, &v.Query)
		u32(c, &v.Epoch)
		return decoded(c, v)
	case KindEnterReport:
		v := as[EnterReport](m)
		memberReport(c, &v.MemberReport)
		vec(c, &v.Vel)
		return decoded(c, v)
	case KindExitReport:
		v := as[ExitReport](m)
		memberReport(c, &v.MemberReport)
		return decoded(c, v)
	case KindMoveReport:
		v := as[MoveReport](m)
		memberReport(c, &v.MemberReport)
		vec(c, &v.Vel)
		return decoded(c, v)
	case KindQueryRegister:
		v := as[QueryRegister](m)
		u32(c, &v.Query)
		u32(c, &v.K)
		f64(c, &v.Range)
		point(c, &v.Pos)
		vec(c, &v.Vel)
		u64(c, &v.At)
		return decoded(c, v)
	case KindQueryMove:
		v := as[QueryMove](m)
		u32(c, &v.Query)
		point(c, &v.Pos)
		vec(c, &v.Vel)
		u64(c, &v.At)
		return decoded(c, v)
	case KindQueryDeregister:
		v := as[QueryDeregister](m)
		u32(c, &v.Query)
		return decoded(c, v)
	case KindAnswerUpdate:
		v := as[AnswerUpdate](m)
		u32(c, &v.Query)
		u32(c, &v.Seq)
		u64(c, &v.At)
		point(c, &v.QPos)
		list[uint16](c, &v.Neighbors)
		return decoded(c, v)
	case KindAnswerDelta:
		v := as[AnswerDelta](m)
		u32(c, &v.Query)
		u32(c, &v.Seq)
		u64(c, &v.At)
		list[uint16](c, &v.Added)
		list[uint16](c, &v.Removed)
		return decoded(c, v)
	case KindAnswerResync:
		v := as[AnswerResync](m)
		u32(c, &v.Query)
		return decoded(c, v)
	case KindNodeForward:
		v := as[NodeForward](m)
		circle(c, &v.Region)
		nested(c, &v.Inner, validForwardInner)
		return decoded(c, v)
	case KindNodeRelay:
		v := as[NodeRelay](m)
		u32(c, &v.Origin)
		u8(c, &v.Hops)
		nested(c, &v.Inner, Relayable)
		return decoded(c, v)
	case KindNodeDeliver:
		v := as[NodeDeliver](m)
		u32(c, &v.To)
		nested(c, &v.Inner, validDeliverInner)
		return decoded(c, v)
	case KindObjectHandoff:
		v := as[ObjectHandoff](m)
		u32(c, &v.Object)
		list[uint16](c, &v.Aware)
		return decoded(c, v)
	case KindQueryHandoff:
		v := as[QueryHandoff](m)
		u32(c, &v.Query)
		u32(c, &v.K)
		f64(c, &v.Range)
		u32(c, &v.Addr)
		point(c, &v.QPos)
		vec(c, &v.QVel)
		u64(c, &v.QAt)
		u32(c, &v.Epoch)
		boolean(c, &v.Installed)
		f64(c, &v.AnswerRadius)
		f64(c, &v.Radius)
		u64(c, &v.InstalledAt)
		point(c, &v.AdvPos)
		vec(c, &v.AdvVel)
		u32(c, &v.AnswerSeq)
		u64(c, &v.LastProbeAt)
		list[uint32](c, &v.Candidates)
		list[uint32](c, &v.Inside)
		list[uint32](c, &v.Sent)
		list[uint16](c, &v.Spread)
		return decoded(c, v)
	case KindQueryHandoffAck:
		v := as[QueryHandoffAck](m)
		u32(c, &v.Query)
		return decoded(c, v)
	case KindNodeClientGone:
		v := as[NodeClientGone](m)
		u32(c, &v.Object)
		return decoded(c, v)
	case KindPeerHello:
		v := as[PeerHello](m)
		u8(c, &v.Wire)
		u16(c, &v.Node)
		u16(c, &v.Nodes)
		u64(c, &v.Version)
		return decoded(c, v)
	case KindPeerHeartbeat:
		return decoded(c, as[PeerHeartbeat](m))
	case KindNodeRedirect:
		v := as[NodeRedirect](m)
		u16(c, &v.Node)
		str(c, &v.Addr)
		return decoded(c, v)
	case KindNodeLoad:
		v := as[NodeLoad](m)
		u16(c, &v.Node)
		u64(c, &v.Version)
		u64(c, &v.Uplinks)
		return decoded(c, v)
	case KindPartitionUpdate:
		v := as[PartitionUpdate](m)
		u64(c, &v.Version)
		list[uint16](c, &v.Owners)
		return decoded(c, v)
	case KindPartitionAck:
		v := as[PartitionAck](m)
		u16(c, &v.Node)
		u64(c, &v.Version)
		return decoded(c, v)
	}
	if c.mode != decoding {
		panic(fmt.Sprintf("protocol: no wire layout for %T", m))
	}
	c.fail(fmt.Errorf("%w: %d", ErrUnknownKind, uint8(k)))
	return nil
}

func monitorInstall(c *codec, v *MonitorInstall) {
	u32(c, &v.Query)
	u32(c, &v.Epoch)
	boolean(c, &v.Refresh)
	boolean(c, &v.RangeMode)
	point(c, &v.QueryPos)
	vec(c, &v.QueryVel)
	f64(c, &v.AnswerRadius)
	f64(c, &v.Radius)
	u64(c, &v.At)
}

func memberReport(c *codec, v *MemberReport) {
	u32(c, &v.Query)
	u32(c, &v.Epoch)
	u32(c, &v.Object)
	point(c, &v.Pos)
	u64(c, &v.At)
}

// record walks one list record, or a list's count: its type states its
// layout.
func record[T any](c *codec, r *T) {
	switch r := any(r).(type) {
	case *uint16:
		u16(c, r)
	case *uint32:
		u32(c, r)
	case *model.ObjectID:
		u32(c, r)
	case *model.Neighbor:
		u32(c, &r.ID)
		f64(c, &r.Dist)
	case *AwareEntry:
		u32(c, &r.Query)
		u16(c, &r.Home)
	case *CandidateRecord:
		u32(c, &r.ID)
		point(c, &r.Pos)
		vec(c, &r.Vel)
		u64(c, &r.At)
	default:
		panic("protocol: list of a type with no record layout")
	}
}

// as returns the message to walk: m itself when encoding or sizing, a
// zero T to fill when decoding (m is nil then).
func as[T Message](m Message) T {
	if m == nil {
		var zero T
		return zero
	}
	return m.(T)
}

// decoded boxes v once it decoded whole; encoding and sizing return nil.
func decoded[T Message](c *codec, v T) Message {
	if c.mode != decoding || c.err != nil {
		return nil
	}
	return v
}

// fail records the decode's first failure and drops the unread bytes,
// so that every later field fails to fit.
func (c *codec) fail(err error) {
	if c.err == nil {
		c.err, c.buf = err, nil
	}
}

// take consumes the next n bytes, or fails the decode as truncated.
func (c *codec) take(n int) []byte {
	if len(c.buf) < n {
		c.fail(ErrTruncated)
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

func u8(c *codec, v *uint8) {
	switch c.mode {
	case encoding:
		c.buf = append(c.buf, *v)
	case decoding:
		if b := c.take(1); b != nil {
			*v = b[0]
		}
	default:
		c.n++
	}
}

func u16(c *codec, v *uint16) {
	switch c.mode {
	case encoding:
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
	case decoding:
		if b := c.take(2); b != nil {
			*v = binary.LittleEndian.Uint16(b)
		}
	default:
		c.n += 2
	}
}

func u32[T ~uint32](c *codec, v *T) {
	switch c.mode {
	case encoding:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	case decoding:
		if b := c.take(4); b != nil {
			*v = T(binary.LittleEndian.Uint32(b))
		}
	default:
		c.n += 4
	}
}

// u64 walks an 8-byte integer: a version, a counter, or a tick.
func u64[T ~uint64 | ~int64](c *codec, v *T) {
	switch c.mode {
	case encoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	case decoding:
		if b := c.take(8); b != nil {
			*v = T(binary.LittleEndian.Uint64(b))
		}
	default:
		c.n += 8
	}
}

func f64(c *codec, v *float64) {
	switch c.mode {
	case encoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
	case decoding:
		if b := c.take(8); b != nil {
			*v = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
	default:
		c.n += 8
	}
}

// boolean is strict: only 0 and 1 decode, so every accepted message has
// exactly one byte representation.
func boolean(c *codec, v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	u8(c, &b)
	if b > 1 {
		c.fail(ErrTruncated)
	}
	if c.mode == decoding {
		*v = b == 1
	}
}

// str walks a string as a u16 length and that many bytes.
func str(c *codec, s *string) {
	n := uint16(len(*s))
	u16(c, &n)
	switch c.mode {
	case encoding:
		c.buf = append(c.buf, *s...)
	case decoding:
		if b := c.take(int(n)); b != nil {
			*s = string(b)
		}
	default:
		c.n += len(*s)
	}
}

func point(c *codec, p *geo.Point) {
	f64(c, &p.X)
	f64(c, &p.Y)
}

// vec walks a vector in a point's layout.
func vec(c *codec, v *geo.Vector) { point(c, (*geo.Point)(v)) }

func circle(c *codec, r *geo.Circle) {
	point(c, &r.Center)
	f64(c, &r.R)
}

// list walks a slice as its record count, an N, and then its records.
// Decoding bounds the count by the bytes left before it allocates, so a
// corrupt count fails as truncated instead of driving a huge
// allocation; an empty list decodes as nil.
func list[N uint16 | uint32, T any](c *codec, s *[]T) {
	n := N(len(*s))
	record(c, &n)
	var zero T
	one := codec{mode: sizing}
	record(&one, &zero)
	switch c.mode {
	case sizing:
		c.n += len(*s) * one.n
		return
	case decoding:
		if n == 0 {
			return
		}
		if int(n)*one.n > len(c.buf) {
			c.fail(ErrTruncated)
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		record(c, &(*s)[i])
	}
}

// nested walks the message that fills the rest of an envelope. Decoding
// validates the inner kind *before* recursing, and every valid inner
// kind is a leaf, so decoding depth is bounded at two. The recursive
// Decode enforces full consumption, which keeps nested framing
// canonical: the envelope ends exactly where the inner message does.
func nested(c *codec, inner *Message, valid func(Kind) bool) {
	switch c.mode {
	case encoding:
		c.buf = Encode(c.buf, *inner)
	case sizing:
		c.n += EncodedSize(*inner)
	default:
		if len(c.buf) == 0 || !valid(Kind(c.buf[0])) {
			c.fail(ErrTruncated)
			return
		}
		m, err := Decode(c.buf)
		c.buf, *inner = nil, m
		if err != nil {
			c.fail(err)
		}
	}
}
