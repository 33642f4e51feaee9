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
// Wire format: one kind byte followed by fixed-layout little-endian
// fields; AnswerUpdate carries a 16-bit count plus that many neighbor
// records. Encode never fails; Decode validates length and kind.
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
	// KindExitReport tells the server an answer object moved outside the
	// advertised answer radius. Uplink.
	KindExitReport
	// KindLeaveReport tells the server an aware object left the monitoring
	// region and stopped monitoring. Uplink.
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
	// boundary: its last reported kinematic state plus the per-query
	// awareness map used to purge remote monitor state on disconnect.
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

	// KindPeerHello opens a peer connection: it carries the sender's node
	// id and its view of the cluster size, so a misconfigured peer is
	// rejected at handshake time instead of corrupting routing later.
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

// Kinds returns every valid kind in ascending order, for metric tables.
func Kinds() []Kind {
	out := make([]Kind, 0, int(kindEnd)-1)
	for k := KindLocationReport; k < kindEnd; k++ {
		out = append(out, k)
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
	At     model.Tick
}

// Kind implements Message.
func (ProbeRequest) Kind() Kind { return KindProbeRequest }

// ProbeReply answers a ProbeRequest.
type ProbeReply struct {
	Query  model.QueryID
	Seq    uint32
	Object model.ObjectID
	Pos    geo.Point
	At     model.Tick
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

// MemberReport is the shared layout of the four member reports.
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

// ExitReport: an answer object crossed outside the advertised radius.
type ExitReport struct{ MemberReport }

// Kind implements Message.
func (ExitReport) Kind() Kind { return KindExitReport }

// LeaveReport: an aware object left the monitoring region entirely.
type LeaveReport struct{ MemberReport }

// Kind implements Message.
func (LeaveReport) Kind() Kind { return KindLeaveReport }

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
// state; LastSeq is the last sequence it applied (0 if none), which the
// server may use for diagnostics.
type AnswerResync struct {
	Query   model.QueryID
	LastSeq uint32
	At      model.Tick
}

// Kind implements Message.
func (AnswerResync) Kind() Kind { return KindAnswerResync }

// ---------------------------------------------------------------------------
// Inter-node messages (internal/cluster link)

// NodeForward wraps a broadcast for a neighbor node. Home identifies the
// sending node (the query's answer authority) so the receiver knows where
// to relay the reports the rebroadcast provokes. Region is the broadcast
// region as known at the home node — MonitorCancel does not carry one on
// the radio, so the envelope is authoritative for all three inner kinds.
// Version is the sender's partition map version at routing time; a
// receiver on a newer map treats the envelope as a stale-route hint
// rather than a routing error. Inner must be a ProbeRequest,
// MonitorInstall, or MonitorCancel.
type NodeForward struct {
	Home    uint16
	Version uint64
	Region  geo.Circle
	Inner   Message
}

// Kind implements Message.
func (NodeForward) Kind() Kind { return KindNodeForward }

// NodeRelay wraps a client uplink being forwarded between nodes. Origin
// is the client that sent it; Hops bounds forwarding chains so routing
// bugs cannot loop a message forever. Version is the sender's partition
// map version at routing time. Inner must be an uplink kind (probe
// reply, membership report, or query lifecycle message).
type NodeRelay struct {
	Origin  model.ObjectID
	Hops    uint8
	Version uint64
	Inner   Message
}

// Kind implements Message.
func (NodeRelay) Kind() Kind { return KindNodeRelay }

// NodeDeliver wraps a downlink for a client whose region belongs to
// another node. Version is the sender's partition map version at routing
// time. Inner must be an AnswerUpdate or AnswerDelta.
type NodeDeliver struct {
	To      model.ObjectID
	Version uint64
	Inner   Message
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
// partition boundary. Pos/Vel/At are the object's last reported
// kinematics; Aware is the per-query awareness state the old node
// accumulated, which the new node needs to purge remote monitors when
// the client later disconnects.
type ObjectHandoff struct {
	Object model.ObjectID
	Pos    geo.Point
	Vel    geo.Vector
	At     model.Tick
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
// server-side state machine, exactly as core.Server.ExportMonitor
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

// PeerHello is the first frame on a node-to-node TCP connection, sent by
// the dialing side after the raw transport handshake. Node identifies the
// sender; Nodes is its configured cluster size, which the acceptor checks
// against its own so two differently-partitioned deployments cannot be
// cross-wired. Version is the sender's partition map version — the
// map-version handshake: a peer that reconnects with an older version is
// healed with a PartitionUpdate by the newer side. At is the sender's
// current tick, a coarse clock-skew sanity signal.
type PeerHello struct {
	Node    uint16
	Nodes   uint16
	Version uint64
	At      model.Tick
}

// Kind implements Message.
func (PeerHello) Kind() Kind { return KindPeerHello }

// PeerHeartbeat proves a peer connection alive between data frames. At is
// the sender's current tick.
type PeerHeartbeat struct {
	Node uint16
	At   model.Tick
}

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
	At      model.Tick
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

// validRelayInner reports whether k may ride inside a NodeRelay.
func validRelayInner(k Kind) bool {
	switch k {
	case KindProbeReply, KindEnterReport, KindExitReport, KindLeaveReport,
		KindMoveReport, KindQueryRegister, KindQueryMove,
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
	dst = append(dst, byte(m.Kind()))
	switch v := m.(type) {
	case LocationReport:
		dst = appendU32(dst, uint32(v.Object))
		dst = appendPoint(dst, v.Pos)
		dst = appendVec(dst, v.Vel)
		dst = appendTick(dst, v.At)
	case ProbeRequest:
		dst = appendU32(dst, uint32(v.Query))
		dst = appendU32(dst, v.Seq)
		dst = appendPoint(dst, v.Region.Center)
		dst = appendF64(dst, v.Region.R)
		dst = appendTick(dst, v.At)
	case ProbeReply:
		dst = appendU32(dst, uint32(v.Query))
		dst = appendU32(dst, v.Seq)
		dst = appendU32(dst, uint32(v.Object))
		dst = appendPoint(dst, v.Pos)
		dst = appendTick(dst, v.At)
	case MonitorInstall:
		dst = appendU32(dst, uint32(v.Query))
		dst = appendU32(dst, v.Epoch)
		dst = appendBool(dst, v.Refresh)
		dst = appendBool(dst, v.RangeMode)
		dst = appendPoint(dst, v.QueryPos)
		dst = appendVec(dst, v.QueryVel)
		dst = appendF64(dst, v.AnswerRadius)
		dst = appendF64(dst, v.Radius)
		dst = appendTick(dst, v.At)
	case InfluenceInstall:
		dst = appendU32(dst, uint32(v.Install.Query))
		dst = appendU32(dst, v.Install.Epoch)
		dst = appendBool(dst, v.Install.Refresh)
		dst = appendBool(dst, v.Install.RangeMode)
		dst = appendPoint(dst, v.Install.QueryPos)
		dst = appendVec(dst, v.Install.QueryVel)
		dst = appendF64(dst, v.Install.AnswerRadius)
		dst = appendF64(dst, v.Install.Radius)
		dst = appendTick(dst, v.Install.At)
		dst = appendF64(dst, v.Frontier)
		dst = appendF64(dst, v.Band)
	case MonitorCancel:
		dst = appendU32(dst, uint32(v.Query))
		dst = appendU32(dst, v.Epoch)
	case EnterReport:
		dst = appendMemberReport(dst, v.MemberReport)
		dst = appendVec(dst, v.Vel)
	case ExitReport:
		dst = appendMemberReport(dst, v.MemberReport)
	case LeaveReport:
		dst = appendMemberReport(dst, v.MemberReport)
	case MoveReport:
		dst = appendMemberReport(dst, v.MemberReport)
		dst = appendVec(dst, v.Vel)
	case QueryRegister:
		dst = appendU32(dst, uint32(v.Query))
		dst = appendU32(dst, v.K)
		dst = appendF64(dst, v.Range)
		dst = appendPoint(dst, v.Pos)
		dst = appendVec(dst, v.Vel)
		dst = appendTick(dst, v.At)
	case QueryMove:
		dst = appendU32(dst, uint32(v.Query))
		dst = appendPoint(dst, v.Pos)
		dst = appendVec(dst, v.Vel)
		dst = appendTick(dst, v.At)
	case QueryDeregister:
		dst = appendU32(dst, uint32(v.Query))
	case AnswerUpdate:
		dst = appendU32(dst, uint32(v.Query))
		dst = appendU32(dst, v.Seq)
		dst = appendTick(dst, v.At)
		dst = appendPoint(dst, v.QPos)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.Neighbors)))
		for _, n := range v.Neighbors {
			dst = appendU32(dst, uint32(n.ID))
			dst = appendF64(dst, n.Dist)
		}
	case AnswerDelta:
		dst = appendU32(dst, uint32(v.Query))
		dst = appendU32(dst, v.Seq)
		dst = appendTick(dst, v.At)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.Added)))
		for _, n := range v.Added {
			dst = appendU32(dst, uint32(n.ID))
			dst = appendF64(dst, n.Dist)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.Removed)))
		for _, id := range v.Removed {
			dst = appendU32(dst, uint32(id))
		}
	case AnswerResync:
		dst = appendU32(dst, uint32(v.Query))
		dst = appendU32(dst, v.LastSeq)
		dst = appendTick(dst, v.At)
	case NodeForward:
		dst = appendU16(dst, v.Home)
		dst = appendU64(dst, v.Version)
		dst = appendPoint(dst, v.Region.Center)
		dst = appendF64(dst, v.Region.R)
		dst = Encode(dst, v.Inner) // nested: consumes the remainder
	case NodeRelay:
		dst = appendU32(dst, uint32(v.Origin))
		dst = append(dst, v.Hops)
		dst = appendU64(dst, v.Version)
		dst = Encode(dst, v.Inner)
	case NodeDeliver:
		dst = appendU32(dst, uint32(v.To))
		dst = appendU64(dst, v.Version)
		dst = Encode(dst, v.Inner)
	case ObjectHandoff:
		dst = appendU32(dst, uint32(v.Object))
		dst = appendPoint(dst, v.Pos)
		dst = appendVec(dst, v.Vel)
		dst = appendTick(dst, v.At)
		dst = appendU16(dst, uint16(len(v.Aware)))
		for _, a := range v.Aware {
			dst = appendU32(dst, uint32(a.Query))
			dst = appendU16(dst, a.Home)
		}
	case QueryHandoff:
		dst = appendU32(dst, uint32(v.Query))
		dst = appendU32(dst, v.K)
		dst = appendF64(dst, v.Range)
		dst = appendU32(dst, uint32(v.Addr))
		dst = appendPoint(dst, v.QPos)
		dst = appendVec(dst, v.QVel)
		dst = appendTick(dst, v.QAt)
		dst = appendU32(dst, v.Epoch)
		dst = appendBool(dst, v.Installed)
		dst = appendF64(dst, v.AnswerRadius)
		dst = appendF64(dst, v.Radius)
		dst = appendTick(dst, v.InstalledAt)
		dst = appendPoint(dst, v.AdvPos)
		dst = appendVec(dst, v.AdvVel)
		dst = appendU32(dst, v.AnswerSeq)
		dst = appendTick(dst, v.LastProbeAt)
		dst = appendU32(dst, uint32(len(v.Candidates)))
		for _, c := range v.Candidates {
			dst = appendU32(dst, uint32(c.ID))
			dst = appendPoint(dst, c.Pos)
			dst = appendVec(dst, c.Vel)
			dst = appendTick(dst, c.At)
		}
		dst = appendU32(dst, uint32(len(v.Inside)))
		for _, id := range v.Inside {
			dst = appendU32(dst, uint32(id))
		}
		dst = appendU32(dst, uint32(len(v.Sent)))
		for _, id := range v.Sent {
			dst = appendU32(dst, uint32(id))
		}
		dst = appendU16(dst, uint16(len(v.Spread)))
		for _, n := range v.Spread {
			dst = appendU16(dst, n)
		}
	case QueryHandoffAck:
		dst = appendU32(dst, uint32(v.Query))
	case NodeClientGone:
		dst = appendU32(dst, uint32(v.Object))
	case PeerHello:
		dst = appendU16(dst, v.Node)
		dst = appendU16(dst, v.Nodes)
		dst = appendU64(dst, v.Version)
		dst = appendTick(dst, v.At)
	case PeerHeartbeat:
		dst = appendU16(dst, v.Node)
		dst = appendTick(dst, v.At)
	case NodeRedirect:
		dst = appendU16(dst, v.Node)
		dst = appendU16(dst, uint16(len(v.Addr)))
		dst = append(dst, v.Addr...)
	case NodeLoad:
		dst = appendU16(dst, v.Node)
		dst = appendU64(dst, v.Version)
		dst = appendU64(dst, v.Uplinks)
		dst = appendTick(dst, v.At)
	case PartitionUpdate:
		dst = appendU64(dst, v.Version)
		dst = appendU16(dst, uint16(len(v.Owners)))
		for _, o := range v.Owners {
			dst = appendU16(dst, o)
		}
	case PartitionAck:
		dst = appendU16(dst, v.Node)
		dst = appendU64(dst, v.Version)
	default:
		panic(fmt.Sprintf("protocol: Encode of unknown type %T", m))
	}
	return dst
}

// EncodedSize returns the wire size of m in bytes.
func EncodedSize(m Message) int {
	// Small messages: encoding is cheap enough that sizing via Encode
	// would be acceptable, but the fixed layouts let us answer directly.
	switch v := m.(type) {
	case LocationReport:
		return 1 + 4 + 16 + 16 + 8
	case ProbeRequest:
		return 1 + 4 + 4 + 16 + 8 + 8
	case ProbeReply:
		return 1 + 4 + 4 + 4 + 16 + 8
	case MonitorInstall:
		return 1 + 4 + 4 + 1 + 1 + 16 + 16 + 8 + 8 + 8
	case InfluenceInstall:
		return 1 + 4 + 4 + 1 + 1 + 16 + 16 + 8 + 8 + 8 + 8 + 8
	case MonitorCancel:
		return 1 + 4 + 4
	case ExitReport, LeaveReport:
		return 1 + memberReportSize
	case EnterReport, MoveReport:
		return 1 + memberReportSize + 16
	case QueryRegister:
		return 1 + 4 + 4 + 8 + 16 + 16 + 8
	case QueryMove:
		return 1 + 4 + 16 + 16 + 8
	case QueryDeregister:
		return 1 + 4
	case AnswerUpdate:
		return 1 + 4 + 4 + 8 + 16 + 2 + len(v.Neighbors)*12
	case AnswerDelta:
		return 1 + 4 + 4 + 8 + 2 + len(v.Added)*12 + 2 + len(v.Removed)*4
	case AnswerResync:
		return 1 + 4 + 4 + 8
	case NodeForward:
		return 1 + 2 + 8 + 16 + 8 + EncodedSize(v.Inner)
	case NodeRelay:
		return 1 + 4 + 1 + 8 + EncodedSize(v.Inner)
	case NodeDeliver:
		return 1 + 4 + 8 + EncodedSize(v.Inner)
	case ObjectHandoff:
		return 1 + 4 + 16 + 16 + 8 + 2 + len(v.Aware)*6
	case QueryHandoff:
		return 1 + 4 + 4 + 8 + 4 + 16 + 16 + 8 + 4 + 1 + 8 + 8 + 8 + 16 + 16 + 4 + 8 +
			4 + len(v.Candidates)*candidateSize + 4 + len(v.Inside)*4 + 4 + len(v.Sent)*4 +
			2 + len(v.Spread)*2
	case QueryHandoffAck:
		return 1 + 4
	case NodeClientGone:
		return 1 + 4
	case PeerHello:
		return 1 + 2 + 2 + 8 + 8
	case PeerHeartbeat:
		return 1 + 2 + 8
	case NodeRedirect:
		return 1 + 2 + 2 + len(v.Addr)
	case NodeLoad:
		return 1 + 2 + 8 + 8 + 8
	case PartitionUpdate:
		return 1 + 8 + 2 + len(v.Owners)*2
	case PartitionAck:
		return 1 + 2 + 8
	default:
		panic(fmt.Sprintf("protocol: EncodedSize of unknown type %T", m))
	}
}

const memberReportSize = 4 + 4 + 4 + 16 + 8

// candidateSize is the wire size of one CandidateRecord.
const candidateSize = 4 + 16 + 16 + 8

// Decode parses one message from buf. The entire buffer must be consumed;
// trailing bytes are an error, which catches framing bugs early. A list
// count is bounded by the bytes left before anything is allocated for it,
// and a list-carrying message is boxed only once it decoded whole, so a
// short frame claiming a long list costs no allocation at all.
func Decode(buf []byte) (Message, error) {
	if len(buf) < 1 {
		return nil, ErrTruncated
	}
	k := Kind(buf[0])
	r := reader{buf: buf[1:]}
	var m Message
	switch k {
	case KindLocationReport:
		m = LocationReport{
			Object: model.ObjectID(r.u32()),
			Pos:    r.point(),
			Vel:    r.vec(),
			At:     r.tick(),
		}
	case KindProbeRequest:
		m = ProbeRequest{
			Query:  model.QueryID(r.u32()),
			Seq:    r.u32(),
			Region: geo.Circle{Center: r.point(), R: r.f64()},
			At:     r.tick(),
		}
	case KindProbeReply:
		m = ProbeReply{
			Query:  model.QueryID(r.u32()),
			Seq:    r.u32(),
			Object: model.ObjectID(r.u32()),
			Pos:    r.point(),
			At:     r.tick(),
		}
	case KindMonitorInstall:
		m = MonitorInstall{
			Query:        model.QueryID(r.u32()),
			Epoch:        r.u32(),
			Refresh:      r.bool(),
			RangeMode:    r.bool(),
			QueryPos:     r.point(),
			QueryVel:     r.vec(),
			AnswerRadius: r.f64(),
			Radius:       r.f64(),
			At:           r.tick(),
		}
	case KindInfluenceInstall:
		ii := InfluenceInstall{
			Install: MonitorInstall{
				Query:        model.QueryID(r.u32()),
				Epoch:        r.u32(),
				Refresh:      r.bool(),
				RangeMode:    r.bool(),
				QueryPos:     r.point(),
				QueryVel:     r.vec(),
				AnswerRadius: r.f64(),
				Radius:       r.f64(),
				At:           r.tick(),
			},
			Frontier: r.f64(),
			Band:     r.f64(),
		}
		if !r.failed && (!validThreshold(ii.Frontier) || !validThreshold(ii.Band)) {
			return nil, ErrBadThreshold
		}
		m = ii
	case KindMonitorCancel:
		m = MonitorCancel{
			Query: model.QueryID(r.u32()),
			Epoch: r.u32(),
		}
	case KindEnterReport:
		m = EnterReport{r.memberReport(), r.vec()}
	case KindExitReport:
		m = ExitReport{r.memberReport()}
	case KindLeaveReport:
		m = LeaveReport{r.memberReport()}
	case KindMoveReport:
		m = MoveReport{r.memberReport(), r.vec()}
	case KindQueryRegister:
		m = QueryRegister{
			Query: model.QueryID(r.u32()),
			K:     r.u32(),
			Range: r.f64(),
			Pos:   r.point(),
			Vel:   r.vec(),
			At:    r.tick(),
		}
	case KindQueryMove:
		m = QueryMove{
			Query: model.QueryID(r.u32()),
			Pos:   r.point(),
			Vel:   r.vec(),
			At:    r.tick(),
		}
	case KindQueryDeregister:
		m = QueryDeregister{Query: model.QueryID(r.u32())}
	case KindAnswerUpdate:
		au := AnswerUpdate{
			Query: model.QueryID(r.u32()),
			Seq:   r.u32(),
			At:    r.tick(),
			QPos:  r.point(),
		}
		if n := r.count(int(r.u16()), 12); n > 0 {
			au.Neighbors = make([]model.Neighbor, 0, n)
			for i := 0; i < n; i++ {
				au.Neighbors = append(au.Neighbors, model.Neighbor{
					ID:   model.ObjectID(r.u32()),
					Dist: r.f64(),
				})
			}
		}
		if !r.failed {
			m = au
		}
	case KindAnswerDelta:
		ad := AnswerDelta{
			Query: model.QueryID(r.u32()),
			Seq:   r.u32(),
			At:    r.tick(),
		}
		if na := r.count(int(r.u16()), 12); na > 0 {
			ad.Added = make([]model.Neighbor, 0, na)
			for i := 0; i < na; i++ {
				ad.Added = append(ad.Added, model.Neighbor{
					ID:   model.ObjectID(r.u32()),
					Dist: r.f64(),
				})
			}
		}
		if nr := r.count(int(r.u16()), 4); nr > 0 {
			ad.Removed = make([]model.ObjectID, 0, nr)
			for i := 0; i < nr; i++ {
				ad.Removed = append(ad.Removed, model.ObjectID(r.u32()))
			}
		}
		if !r.failed {
			m = ad
		}
	case KindAnswerResync:
		m = AnswerResync{
			Query:   model.QueryID(r.u32()),
			LastSeq: r.u32(),
			At:      r.tick(),
		}
	case KindNodeForward:
		nf := NodeForward{
			Home:    r.u16(),
			Version: r.u64(),
			Region:  geo.Circle{Center: r.point(), R: r.f64()},
		}
		nf.Inner = r.nested(validForwardInner)
		m = nf
	case KindNodeRelay:
		nr := NodeRelay{
			Origin:  model.ObjectID(r.u32()),
			Hops:    r.u8(),
			Version: r.u64(),
		}
		nr.Inner = r.nested(validRelayInner)
		m = nr
	case KindNodeDeliver:
		nd := NodeDeliver{To: model.ObjectID(r.u32()), Version: r.u64()}
		nd.Inner = r.nested(validDeliverInner)
		m = nd
	case KindObjectHandoff:
		oh := ObjectHandoff{
			Object: model.ObjectID(r.u32()),
			Pos:    r.point(),
			Vel:    r.vec(),
			At:     r.tick(),
		}
		if n := r.count(int(r.u16()), 6); n > 0 {
			oh.Aware = make([]AwareEntry, 0, n)
			for i := 0; i < n; i++ {
				oh.Aware = append(oh.Aware, AwareEntry{
					Query: model.QueryID(r.u32()),
					Home:  r.u16(),
				})
			}
		}
		if !r.failed {
			m = oh
		}
	case KindQueryHandoff:
		qh := QueryHandoff{
			Query:        model.QueryID(r.u32()),
			K:            r.u32(),
			Range:        r.f64(),
			Addr:         model.ObjectID(r.u32()),
			QPos:         r.point(),
			QVel:         r.vec(),
			QAt:          r.tick(),
			Epoch:        r.u32(),
			Installed:    r.bool(),
			AnswerRadius: r.f64(),
			Radius:       r.f64(),
			InstalledAt:  r.tick(),
			AdvPos:       r.point(),
			AdvVel:       r.vec(),
			AnswerSeq:    r.u32(),
			LastProbeAt:  r.tick(),
		}
		if nc := r.count(int(r.u32()), candidateSize); nc > 0 {
			qh.Candidates = make([]CandidateRecord, 0, nc)
			for i := 0; i < nc; i++ {
				qh.Candidates = append(qh.Candidates, CandidateRecord{
					ID:  model.ObjectID(r.u32()),
					Pos: r.point(),
					Vel: r.vec(),
					At:  r.tick(),
				})
			}
		}
		if ni := r.count(int(r.u32()), 4); ni > 0 {
			qh.Inside = make([]model.ObjectID, 0, ni)
			for i := 0; i < ni; i++ {
				qh.Inside = append(qh.Inside, model.ObjectID(r.u32()))
			}
		}
		if ns := r.count(int(r.u32()), 4); ns > 0 {
			qh.Sent = make([]model.ObjectID, 0, ns)
			for i := 0; i < ns; i++ {
				qh.Sent = append(qh.Sent, model.ObjectID(r.u32()))
			}
		}
		if nsp := r.count(int(r.u16()), 2); nsp > 0 {
			qh.Spread = make([]uint16, 0, nsp)
			for i := 0; i < nsp; i++ {
				qh.Spread = append(qh.Spread, r.u16())
			}
		}
		if !r.failed {
			m = qh
		}
	case KindQueryHandoffAck:
		m = QueryHandoffAck{Query: model.QueryID(r.u32())}
	case KindNodeClientGone:
		m = NodeClientGone{Object: model.ObjectID(r.u32())}
	case KindPeerHello:
		m = PeerHello{Node: r.u16(), Nodes: r.u16(), Version: r.u64(), At: r.tick()}
	case KindPeerHeartbeat:
		m = PeerHeartbeat{Node: r.u16(), At: r.tick()}
	case KindNodeRedirect:
		m = NodeRedirect{Node: r.u16(), Addr: r.str()}
	case KindNodeLoad:
		m = NodeLoad{Node: r.u16(), Version: r.u64(), Uplinks: r.u64(), At: r.tick()}
	case KindPartitionUpdate:
		pu := PartitionUpdate{Version: r.u64()}
		if n := r.count(int(r.u16()), 2); n > 0 {
			pu.Owners = make([]uint16, 0, n)
			for i := 0; i < n; i++ {
				pu.Owners = append(pu.Owners, r.u16())
			}
		}
		if !r.failed {
			m = pu
		}
	case KindPartitionAck:
		m = PartitionAck{Node: r.u16(), Version: r.u64()}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(k))
	}
	if r.failed {
		if r.err != nil {
			return nil, r.err
		}
		return nil, ErrTruncated
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after %v", len(r.buf), k)
	}
	return m, nil
}

// reader consumes little-endian fields, latching failure on underflow so
// call sites stay linear. err carries a more specific decode error than
// the default ErrTruncated when one is known (a nested message's own
// decode failure).
type reader struct {
	buf    []byte
	failed bool
	err    error
}

func (r *reader) take(n int) []byte {
	if r.failed || len(r.buf) < n {
		r.failed = true
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *reader) tick() model.Tick {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return model.Tick(binary.LittleEndian.Uint64(b))
}

func (r *reader) bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	// Strict: only 0 and 1 are valid bool encodings, so every accepted
	// message has exactly one byte representation.
	if b[0] > 1 {
		r.failed = true
		return false
	}
	return b[0] == 1
}

// str reads a u16 length prefix and that many bytes as a string.
func (r *reader) str() string {
	n := int(r.u16())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// validThreshold reports whether v is usable as an influence frontier or
// band: finite and non-negative.
func validThreshold(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// count bounds an element count n just read from the frame: a count
// whose records (recordSize bytes each) could not possibly fit in the
// remaining buffer fails the reader, so a corrupt count cannot drive a
// huge allocation.
func (r *reader) count(n, recordSize int) int {
	if r.failed {
		return 0
	}
	if n*recordSize > len(r.buf) {
		r.failed = true
		return 0
	}
	return n
}

// nested consumes the remainder of the buffer as one embedded message.
// The inner kind is validated *before* recursing, and every valid inner
// kind is a leaf, so decoding depth is bounded at two. The recursive
// Decode enforces full consumption, which keeps nested framing
// canonical: the envelope ends exactly where the inner message does.
func (r *reader) nested(valid func(Kind) bool) Message {
	if r.failed {
		return nil
	}
	if len(r.buf) == 0 || !valid(Kind(r.buf[0])) {
		r.failed = true
		return nil
	}
	b := r.buf
	r.buf = nil
	in, err := Decode(b)
	if err != nil {
		r.failed = true
		r.err = err
		return nil
	}
	return in
}

func (r *reader) point() geo.Point { return geo.Pt(r.f64(), r.f64()) }

func (r *reader) vec() geo.Vector { return geo.Vec(r.f64(), r.f64()) }

func (r *reader) memberReport() MemberReport {
	return MemberReport{
		Query:  model.QueryID(r.u32()),
		Epoch:  r.u32(),
		Object: model.ObjectID(r.u32()),
		Pos:    r.point(),
		At:     r.tick(),
	}
}

func appendU16(dst []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(dst, v)
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendTick(dst []byte, t model.Tick) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(t))
}

func appendPoint(dst []byte, p geo.Point) []byte {
	dst = appendF64(dst, p.X)
	return appendF64(dst, p.Y)
}

func appendVec(dst []byte, v geo.Vector) []byte {
	dst = appendF64(dst, v.X)
	return appendF64(dst, v.Y)
}

func appendMemberReport(dst []byte, m MemberReport) []byte {
	dst = appendU32(dst, uint32(m.Query))
	dst = appendU32(dst, m.Epoch)
	dst = appendU32(dst, uint32(m.Object))
	dst = appendPoint(dst, m.Pos)
	return appendTick(dst, m.At)
}
