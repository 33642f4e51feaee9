// Package obs is the observability layer: a structured event tracer for
// the per-query protocol lifecycle and a bounded flight recorder that
// chaos and cluster tests arm so a failed soak dumps the message
// sequence that led to the divergence instead of a bare assertion.
//
// Tracing is wired as an optional Sink on the server, agent, network,
// and federation dependency structs. A nil sink disables it: every emit
// site is a plain nil check around a value-typed Event, so the hot
// paths stay zero-alloc when tracing is off (BenchmarkServerMoveReport
// pins this). Events carry only identifiers and small scalars — never
// pointers into live server state — so recording is race-free even when
// federation nodes tick on parallel goroutines.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// EventType discriminates lifecycle events. The zero value is invalid so
// a zeroed Event is recognizable as garbage in a dump.
type EventType uint8

// Lifecycle event types.
const (
	// EvQueryRegistered: the server accepted a QueryRegister. Value is k
	// (or the range radius for range mode).
	EvQueryRegistered EventType = iota + 1
	// EvQueryDeregistered: the monitor was removed.
	EvQueryDeregistered
	// EvProbe: a probe round was broadcast. Seq is the probe sequence,
	// Value the probe radius.
	EvProbe
	// EvInstalled: a monitor (re)install was broadcast. Value is the
	// monitoring-region radius, Seq the epoch.
	EvInstalled
	// EvAnswerFull: a full AnswerUpdate was sent. Seq is the answer seq.
	EvAnswerFull
	// EvAnswerDelta: an incremental AnswerDelta was sent. Seq is the
	// answer seq.
	EvAnswerDelta
	// EvResyncRequested: the focal client detected an answer-sequence
	// gap and asked for a re-baselining update. Seq is the client's last
	// applied seq.
	EvResyncRequested
	// EvReportSent: an object sent an uplink report. Kind says which
	// (move/enter/exit/leave/probe-reply), Value the reported distance.
	EvReportSent
	// EvReportSuppressed: an in-circle object drifted but stayed under
	// the report threshold, so no uplink was spent (Kind move), or its
	// reported track left the answer circle, a crossing the server files
	// itself (Kind exit). Value is the drift.
	EvReportSuppressed
	// EvBoundaryCrossed: an object crossed the advertised answer-circle
	// boundary (Kind distinguishes enter from exit).
	EvBoundaryCrossed
	// EvQueryHandoffBegun: a federation node started migrating a query
	// monitor to a neighbor. Node is the sender, Seq the exported
	// answer seq.
	EvQueryHandoffBegun
	// EvObjectHandoffBegun: a federation node handed an object that
	// crossed a partition boundary to a neighbor.
	EvObjectHandoffBegun
	// EvHandoffAcked: the new home node confirmed a query handoff, so
	// the old node dropped its retry copy.
	EvHandoffAcked
	// EvRelayDropped: a federation relay exceeded its hop budget or had
	// no owner and was dropped.
	EvRelayDropped
	// EvColumnMoved: a federation node applied a new partition map, in
	// which the balancer reassigned one grid-cell column between adjacent
	// nodes. Node is the applying node, Seq the new map version; every
	// node emits one per move, so an N-node run records N per move.
	EvColumnMoved
	// EvNetSend: the simulated medium accepted a message for delivery.
	// Dir is the metrics direction, Kind the message kind.
	EvNetSend
	// EvNetDeliver: the medium delivered a message to one recipient.
	EvNetDeliver
	// EvNetDrop: the medium lost a message (loss model or client down).
	EvNetDrop

	numEventTypes
)

var eventNames = [numEventTypes]string{
	EvQueryRegistered:    "query-registered",
	EvQueryDeregistered:  "query-deregistered",
	EvProbe:              "probe",
	EvInstalled:          "installed",
	EvAnswerFull:         "answer-full",
	EvAnswerDelta:        "answer-delta",
	EvResyncRequested:    "resync-requested",
	EvReportSent:         "report-sent",
	EvReportSuppressed:   "report-suppressed",
	EvBoundaryCrossed:    "boundary-crossed",
	EvQueryHandoffBegun:  "query-handoff-begun",
	EvObjectHandoffBegun: "object-handoff-begun",
	EvHandoffAcked:       "handoff-acked",
	EvRelayDropped:       "relay-dropped",
	EvColumnMoved:        "column-moved",
	EvNetSend:            "net-send",
	EvNetDeliver:         "net-deliver",
	EvNetDrop:            "net-drop",
}

// String implements fmt.Stringer.
func (t EventType) String() string {
	if int(t) < len(eventNames) && eventNames[t] != "" {
		return eventNames[t]
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Event is one traced protocol event. It is a small value type: emit
// sites construct it on the stack and hand it to the sink by value, so
// a disabled (nil) sink costs one branch and an enabled one costs no
// heap allocation.
type Event struct {
	At     model.Tick
	Type   EventType
	Node   int16         // federation node id, -1 when single-node
	Dir    int8          // metrics direction for net events, -1 otherwise
	Kind   protocol.Kind // message kind where applicable, 0 otherwise
	Query  model.QueryID // 0 when not query-scoped
	Object model.ObjectID
	Seq    uint32  // answer/probe sequence or epoch, type-dependent
	Value  float64 // radius, distance, k — type-dependent
}

// String renders one dump line: fixed field order, only meaningful
// fields, so recorder dumps diff cleanly across runs.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d %s", e.At, e.Type)
	if e.Node >= 0 {
		fmt.Fprintf(&b, " node=%d", e.Node)
	}
	if e.Query != 0 {
		fmt.Fprintf(&b, " q=%d", e.Query)
	}
	if e.Object != 0 {
		fmt.Fprintf(&b, " obj=%d", e.Object)
	}
	if e.Kind != 0 {
		fmt.Fprintf(&b, " kind=%s", e.Kind)
	}
	if e.Dir >= 0 {
		fmt.Fprintf(&b, " dir=%d", e.Dir)
	}
	if e.Seq != 0 {
		fmt.Fprintf(&b, " seq=%d", e.Seq)
	}
	if e.Value != 0 {
		fmt.Fprintf(&b, " v=%.3f", e.Value)
	}
	return b.String()
}

// Sink receives traced events. Implementations must be safe for
// concurrent use: federation nodes tick on parallel goroutines and all
// share one sink.
type Sink interface {
	Record(Event)
}

// SinkFunc adapts a function to the Sink interface (the engine uses it
// to feed histogram collectors from the event stream).
type SinkFunc func(Event)

// Record implements Sink.
func (f SinkFunc) Record(e Event) { f(e) }

// Tee fans one event stream out to every non-nil sink. It returns nil
// when no sink remains, so emit sites keep their single nil check.
func Tee(sinks ...Sink) Sink {
	out := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return teeSink(out)
}

type teeSink []Sink

func (t teeSink) Record(e Event) {
	for _, s := range t {
		s.Record(e)
	}
}

// WithNode returns a sink that stamps every event with a federation
// node id before forwarding, so one shared recorder can tell the
// parallel per-node servers apart. A nil sink stays nil.
func WithNode(s Sink, node int16) Sink {
	if s == nil {
		return nil
	}
	return nodeSink{inner: s, node: node}
}

type nodeSink struct {
	inner Sink
	node  int16
}

func (n nodeSink) Record(e Event) {
	e.Node = n.node
	n.inner.Record(e)
}

// DefaultRecorderCap is the flight recorder's default ring size: about
// two thousand protocol events, enough to cover the last few ticks of a
// smoke-scale soak when a divergence assertion fires.
const DefaultRecorderCap = 2048

// Recorder is the flight recorder: a mutex-guarded bounded ring of the
// most recent events plus running per-type counts over the whole run.
// Recording into a full ring overwrites the oldest event and never
// allocates, so a recorder can stay armed for an entire soak.
type Recorder struct {
	mu    sync.Mutex
	ring  []Event
	next  int    // ring index of the next write
	total uint64 // events ever recorded (>= len(ring) once wrapped)
	byTyp [numEventTypes]uint64
}

// NewRecorder returns a recorder keeping the last capacity events
// (DefaultRecorderCap if capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{ring: make([]Event, 0, capacity)}
}

// Record implements Sink.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.next] = e
	}
	r.next++
	if r.next == cap(r.ring) {
		r.next = 0
	}
	r.total++
	if int(e.Type) < len(r.byTyp) {
		r.byTyp[e.Type]++
	}
	r.mu.Unlock()
}

// Total returns how many events were recorded over the recorder's
// lifetime, including those the ring has since overwritten.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Count returns the lifetime count of one event type.
func (r *Recorder) Count(t EventType) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(t) >= len(r.byTyp) {
		return 0
	}
	return r.byTyp[t]
}

// Counts returns the lifetime per-type counts keyed by event name,
// omitting zero entries (the expvar export in cmd/dknnd publishes
// this map).
func (r *Recorder) Counts() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64)
	for t, n := range r.byTyp {
		if n > 0 {
			out[EventType(t).String()] = n
		}
	}
	return out
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	if r.total > uint64(len(r.ring)) { // wrapped: oldest is at next
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring...)
	}
	return out
}

// Dump writes a human-readable flight-recorder dump: the per-type
// counts, then every retained event oldest-first. Chaos tests call it
// through DumpOnFailure when an assertion fires so CI logs carry the
// message sequence that led to the divergence.
func (r *Recorder) Dump(w io.Writer) {
	events := r.Events()
	counts := r.Counts()
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "flight recorder: %d events recorded, last %d retained\n",
		r.Total(), len(events))
	for _, name := range names {
		fmt.Fprintf(w, "  %-22s %d\n", name, counts[name])
	}
	for _, e := range events {
		fmt.Fprintf(w, "  %s\n", e)
	}
}

// String renders Dump as a string.
func (r *Recorder) String() string {
	var b strings.Builder
	r.Dump(&b)
	return b.String()
}

// TB is the subset of testing.TB that DumpOnFailure needs; declaring it
// here keeps the testing package out of non-test binaries.
type TB interface {
	Cleanup(func())
	Failed() bool
	Logf(format string, args ...any)
}

// DumpOnFailure arms a flight recorder for a test: when the test ends
// failed, the recorder's dump goes to the test log, so a chaos or
// federation divergence ships its protocol history with the assertion.
func DumpOnFailure(t TB, r *Recorder) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("\n%s", r.String())
		}
	})
}
