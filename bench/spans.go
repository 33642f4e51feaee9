package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// spanName identifies a layer boundary. Names are the repo's packages;
// which of them a workload emits depends on its engine.
type spanName uint8

const (
	spTick spanName = iota // one lockstep tick, root of the tick's spans
	spAgentsTick
	spAgentsHandle
	spSimnetFlush
	spBarrierWait // tcp: driver blocked waiting for quiescence
	spUplinkWrite // tcp: ClientSide.Uplink (encode, frame, write)
	spIngest      // server-handler seam: HandleUplink / HandleClientGone
	spDrain
	spServerTick
	spFinalize
	spSend        // server-side seam: Downlink / Broadcast / BroadcastBatch
	spLinkDeliver // cluster.Link.Flush
	numSpanNames
)

var spanLabels = [numSpanNames]string{
	"tick", "agents.tick", "agents.handle", "simnet.flush", "nettcp.barrier_wait",
	"nettcp.uplink_write", "server.ingest", "server.drain", "server.tick",
	"server.finalize", "server.send", "cluster.link_deliver",
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; parent indexes the span buffer (-1: none).
type span struct {
	name       spanName
	tick       int32
	start, end int64
	parent     int32
}

// spanAgg accumulates one name's spans. Atomic because the tcp workload
// closes spans on transport goroutines.
type spanAgg struct {
	count atomic.Int64
	total atomic.Int64 // ns
	self  atomic.Int64 // ns, total minus enclosed child spans
}

// maxRawSpans bounds the raw span buffer (32 B each). Aggregates keep
// counting past it; only the optional dump is truncated.
const maxRawSpans = 1 << 19

// recorder collects spans for the traced pass. A nil *recorder is the
// untraced pass: no wrapper is installed, so it is never called.
//
// Nested spans go through begin/end, which keep one stack. All callers
// of begin/end are serialized — the driver goroutine, or federation node
// goroutines that run under the cluster's send mutex while the driver is
// blocked on them — so the stack needs no lock. Spans closed on
// goroutines that run beside the driver (tcp) use flat, which touches
// only atomics.
type recorder struct {
	epoch time.Time
	on    atomic.Bool // spans are recorded only during measured ticks
	tick  atomic.Int32

	buf     []span
	next    atomic.Int32
	dropped atomic.Int64
	agg     [numSpanNames]spanAgg

	stack []openSpan
}

type openSpan struct {
	name    spanName
	idx     int32
	start   int64
	childNS int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), buf: make([]span, maxRawSpans), stack: make([]openSpan, 0, 16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) store(s span) int32 {
	i := r.next.Add(1) - 1
	if int(i) >= len(r.buf) {
		r.dropped.Add(1)
		return -1
	}
	r.buf[i] = s
	return i
}

// active reports whether spans are being recorded right now.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

// begin opens a nested span.
func (r *recorder) begin(name spanName) {
	if !r.active() {
		return
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1].idx
	}
	start := r.now()
	idx := r.store(span{name: name, tick: r.tick.Load(), start: start, parent: parent})
	r.stack = append(r.stack, openSpan{name: name, idx: idx, start: start})
}

// end closes the innermost open span and returns its duration.
func (r *recorder) end() time.Duration {
	if r == nil || len(r.stack) == 0 {
		return 0
	}
	top := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	end := r.now()
	dur := end - top.start
	if top.idx >= 0 {
		r.buf[top.idx].end = end
	}
	a := &r.agg[top.name]
	a.count.Add(1)
	a.total.Add(dur)
	a.self.Add(dur - top.childNS)
	if n := len(r.stack); n > 0 {
		r.stack[n-1].childNS += dur
	}
	return time.Duration(dur)
}

// flat records a finished span from any goroutine. Its parent is the
// tick's root span (the tick caused it); self time equals duration.
func (r *recorder) flat(name spanName, start, end int64) {
	if !r.active() {
		return
	}
	r.store(span{name: name, tick: r.tick.Load(), start: start, end: end, parent: -1})
	a := &r.agg[name]
	a.count.Add(1)
	a.total.Add(end - start)
	a.self.Add(end - start)
}

// selfUS returns a name's self time in microseconds.
func (r *recorder) selfUS(name spanName) float64 { return float64(r.agg[name].self.Load()) / 1e3 }

func (r *recorder) totalUS(name spanName) float64 { return float64(r.agg[name].total.Load()) / 1e3 }

func (r *recorder) count(name spanName) float64 { return float64(r.agg[name].count.Load()) }

// dump writes the raw spans as a JSON array.
func (r *recorder) dump(path string) error {
	type out struct {
		Name    string `json:"name"`
		Tick    int32  `json:"tick"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
	}
	n := min(int(r.next.Load()), len(r.buf))
	spans := make([]out, n)
	for i, s := range r.buf[:n] {
		spans[i] = out{spanLabels[s.name], s.tick, s.start, s.end, s.parent}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"dropped": r.dropped.Load(), "spans": spans}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
