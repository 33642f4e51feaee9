package main

import (
	"math"
	"runtime"
	"slices"
	"time"

	"dmknn/internal/cluster"
	imetrics "dmknn/internal/metrics"
	"dmknn/internal/protocol"
)

// metricDef names one reported metric and its unit. BENCHMARK.json holds
// the same names with direction and bound; a test keeps the two in step.
type metricDef struct {
	name string
	unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ticks_per_s", "ticks/s"},
	{"tick_ms_p50", "ms"},
	{"server_ms_per_tick", "ms"},
	{"cpu_ms_per_tick", "ms"},
	{"uplink_msgs_per_tick", "msgs"},
	{"uplink_bytes_per_tick", "B"},
	{"downlink_msgs_per_tick", "msgs"},
	{"downlink_bytes_per_tick", "B"},
	{"exact_share", "ratio"},
	{"alloc_kb_per_tick", "KiB"},
	{"heap_mb", "MB"},
}

// perLayer lists the traced pass's metrics. Values are per measured tick
// unless the unit says otherwise; a layer a workload does not run
// reports 0.
var perLayer = []metricDef{
	// The tail of the untraced tick service time: reported, not gated.
	{"tick_ms_p95", "ms"},

	{"agents.tick_us", "us"}, {"agents.handle_us", "us"}, {"agents.handled_msgs", "msgs"},
	{"agents.uplinks", "msgs"}, {"agents.aware_share", "ratio"}, {"agents.bcast_useful_share", "ratio"},

	{"simnet.flush_us", "us"}, {"simnet.flush_calls", "count"},
	{"simnet.bcast_recipients", "msgs"}, {"simnet.recipients_per_bcast", "msgs"},

	{"nettcp.uplink_write_us", "us"}, {"nettcp.uplink_write_ns_per_msg", "ns"},
	{"nettcp.send_us", "us"}, {"nettcp.frames_out", "count"}, {"nettcp.frames_per_bcast", "count"},
	{"nettcp.bytes_out", "B"}, {"nettcp.drops", "count"}, {"nettcp.evictions", "count"},
	{"nettcp.barrier_wait_us", "us"},

	{"core.ingest_us", "us"}, {"core.ingest_msgs", "msgs"}, {"core.ingest_ns_per_msg", "ns"},
	{"core.wait_us", "us"}, {"core.tick_us", "us"}, {"core.finalize_us", "us"},
	{"core.finalize_rounds", "count"}, {"core.send_us", "us"}, {"core.busy_us", "us"},
	{"core.us_per_query", "us"}, {"core.uplinks_per_query", "msgs"},
	{"core.ingest.move", "msgs"}, {"core.ingest.enter", "msgs"}, {"core.ingest.exit", "msgs"},
	{"core.ingest.leave", "msgs"}, {"core.ingest.probe_reply", "msgs"}, {"core.ingest.query_move", "msgs"},
	{"core.ingest_ns.move", "ns"}, {"core.ingest_ns.enter", "ns"}, {"core.ingest_ns.exit", "ns"},
	{"core.ingest_ns.probe_reply", "ns"},
	{"core.bcast.install", "msgs"}, {"core.bcast.probe", "msgs"}, {"core.bcast.cancel", "msgs"},
	{"core.down.answer_update", "msgs"}, {"core.down.answer_delta", "msgs"},

	{"shard.enqueue_us", "us"}, {"shard.drain_us", "us"}, {"shard.tick_us", "us"},
	{"shard.finalize_us", "us"}, {"shard.critical_us", "us"}, {"shard.bcast_batches", "count"},
	{"shard.items_per_batch", "count"},

	{"cluster.ingest_us", "us"}, {"cluster.tick_us", "us"}, {"cluster.finalize_us", "us"},
	{"cluster.link_deliver_us", "us"}, {"cluster.link_msgs", "msgs"}, {"cluster.link_bytes", "B"},
	{"cluster.link_per_uplink", "ratio"}, {"cluster.object_handoffs", "count"},
	{"cluster.query_handoffs", "count"}, {"cluster.relay_drops", "count"},
	{"cluster.node_busy_max_us", "us"}, {"cluster.node_busy_sum_us", "us"}, {"cluster.load_cv", "ratio"},

	{"protocol.encode_ns_per_msg", "ns"}, {"protocol.decode_ns_per_msg", "ns"},
	{"protocol.encode_allocs_per_msg", "count"}, {"protocol.decode_allocs_per_msg", "count"},
	{"protocol.mean_uplink_bytes", "B"}, {"protocol.mean_downlink_bytes", "B"},

	{"go.allocs_per_tick", "count"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"go.goroutines", "count"},

	{"trace.overhead_share", "ratio"},
}

// quantile returns the q-quantile of xs by nearest rank on a sorted copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// downlink is the paper's server→client cost: unicasts plus one
// transmission per cell a broadcast intersects.
func downlinkMsgs(c *imetrics.Counters) uint64 {
	return c.Sent(imetrics.Downlink) + c.Sent(imetrics.Broadcast)
}

func downlinkBytes(c *imetrics.Counters) uint64 {
	return c.SentBytes(imetrics.Downlink) + c.SentBytes(imetrics.Broadcast)
}

// endToEndMetrics derives the end-to-end values of an untraced
// episode. setups holds every set-up time taken in the run.
func endToEndMetrics(e *episode, setups []float64) map[string]float64 {
	perBlock := func(f func(b block) float64) float64 {
		if len(e.blocks) == 0 {
			return 0
		}
		vs := make([]float64, len(e.blocks))
		for i, b := range e.blocks {
			vs[i] = f(b)
		}
		return median(vs)
	}
	ticks := float64(e.ticks)
	return map[string]float64{
		"setup_s":     median(setups),
		"ticks_per_s": perBlock(func(b block) float64 { return blockTicks / (float64(b.tickNS) / 1e9) }),
		"tick_ms_p50": median(e.tickMS),
		"server_ms_per_tick": perBlock(func(b block) float64 {
			return float64(b.serverNS) / 1e6 / blockTicks
		}),
		"cpu_ms_per_tick": perBlock(func(b block) float64 { return float64(b.cpuNS) / 1e6 / blockTicks }),

		"uplink_msgs_per_tick":    float64(e.wire.Sent(imetrics.Uplink)) / ticks,
		"uplink_bytes_per_tick":   float64(e.wire.SentBytes(imetrics.Uplink)) / ticks,
		"downlink_msgs_per_tick":  float64(downlinkMsgs(&e.wire)) / ticks,
		"downlink_bytes_per_tick": float64(downlinkBytes(&e.wire)) / ticks,

		"exact_share":       ratio(float64(e.audited-e.inexact), float64(e.audited)),
		"alloc_kb_per_tick": perBlock(func(b block) float64 { return float64(b.allocB) / 1024 / blockTicks }),
		"heap_mb":           e.heapMB,
	}
}

// traceBase is the engine state at the start of the measured phase that
// the per-layer metrics are differences against.
type traceBase struct {
	busy      time.Duration
	nodeBusy  []time.Duration
	link      cluster.LinkStats
	cl        cluster.Stats
	barrierNS int64
	flushes   int
	rounds    int
}

func (r *rig) traceBase() traceBase {
	b := traceBase{busy: r.busy(), barrierNS: r.barrierNS, flushes: r.flushes, rounds: r.rounds}
	if r.cl != nil {
		b.nodeBusy, b.link, b.cl = r.nodeBusy(), r.link.Stats(), r.cl.Stats()
	}
	return b
}

// layerMetrics derives the per-layer values of a traced episode, per
// measured tick. The overhead share and the codec replay are filled in
// by the caller.
func (r *rig) layerMetrics(e *episode, base traceBase, ms0, ms1 *runtime.MemStats) map[string]float64 {
	rec, tl := r.rec, r.tl
	ticks := float64(e.ticks)
	per := func(v float64) float64 { return v / ticks }
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	upMsgs := float64(e.wire.Sent(imetrics.Uplink))
	queries := float64(len(r.qrys))

	// agents
	m["agents.tick_us"] = per(rec.selfUS(spAgentsTick))
	m["agents.handle_us"] = per(rec.selfUS(spAgentsHandle))
	m["agents.handled_msgs"] = per(float64(tl.handled.Load()))
	m["agents.uplinks"] = per(upMsgs)
	aware := 0
	for _, a := range r.objs {
		if a.MonitorCount() > 0 {
			aware++
		}
	}
	m["agents.aware_share"] = ratio(float64(aware), float64(len(r.objs)))
	m["agents.bcast_useful_share"] = ratio(float64(tl.useful.Load()), float64(tl.regional.Load()))

	// Per-kind ingest and send mix, seen at the server's two seams.
	var ingestN float64
	for k := range tl.ingestN {
		ingestN += float64(tl.ingestN[k].Load())
	}
	kindN := func(k protocol.Kind) float64 { return per(float64(tl.ingestN[k].Load())) }
	kindNS := func(k protocol.Kind) float64 {
		return ratio(float64(tl.ingestNS[k].Load()), float64(tl.ingestN[k].Load()))
	}
	sent := func(ks ...protocol.Kind) float64 {
		n := 0.0
		for _, k := range ks {
			n += float64(tl.sendN[k].Load())
		}
		return per(n)
	}
	m["core.ingest_msgs"] = per(ingestN)
	m["core.ingest.move"] = kindN(protocol.KindMoveReport)
	m["core.ingest.enter"] = kindN(protocol.KindEnterReport)
	m["core.ingest.exit"] = kindN(protocol.KindExitReport)
	m["core.ingest.leave"] = kindN(protocol.KindLeaveReport)
	m["core.ingest.probe_reply"] = kindN(protocol.KindProbeReply)
	m["core.ingest.query_move"] = kindN(protocol.KindQueryMove)
	m["core.ingest_ns.move"] = kindNS(protocol.KindMoveReport)
	m["core.ingest_ns.enter"] = kindNS(protocol.KindEnterReport)
	m["core.ingest_ns.exit"] = kindNS(protocol.KindExitReport)
	m["core.ingest_ns.probe_reply"] = kindNS(protocol.KindProbeReply)
	m["core.bcast.install"] = sent(protocol.KindMonitorInstall, protocol.KindInfluenceInstall)
	m["core.bcast.probe"] = sent(protocol.KindProbeRequest)
	m["core.bcast.cancel"] = sent(protocol.KindMonitorCancel)
	m["core.down.answer_update"] = sent(protocol.KindAnswerUpdate)
	m["core.down.answer_delta"] = sent(protocol.KindAnswerDelta)
	m["core.finalize_rounds"] = per(float64(r.rounds - base.rounds))
	m["core.send_us"] = per(rec.totalUS(spSend))
	busyUS := float64((r.busy() - base.busy).Microseconds())
	m["core.busy_us"] = per(busyUS)
	serverUS := rec.totalUS(spIngest) + rec.totalUS(spDrain) + rec.totalUS(spServerTick) + rec.totalUS(spFinalize)
	m["core.us_per_query"] = ratio(per(serverUS), queries)
	m["core.uplinks_per_query"] = ratio(per(upMsgs), queries)

	// The server shape decides which package's name the entry-point
	// spans carry.
	bcasts := float64(tl.bcasts.Load())
	switch r.sp.engine {
	case engineSync:
		m["core.ingest_us"] = per(rec.selfUS(spIngest))
		m["core.ingest_ns_per_msg"] = ratio(rec.selfUS(spIngest)*1e3, ingestN)
		m["core.tick_us"] = per(rec.selfUS(spServerTick))
		m["core.finalize_us"] = per(rec.selfUS(spFinalize))
	case engineBatched:
		m["shard.enqueue_us"] = per(rec.selfUS(spIngest))
		m["shard.drain_us"] = per(rec.selfUS(spDrain))
		m["shard.tick_us"] = per(rec.selfUS(spServerTick))
		m["shard.finalize_us"] = per(rec.selfUS(spFinalize))
		m["shard.critical_us"] = per(busyUS)
		m["shard.bcast_batches"] = per(float64(tl.batches.Load()))
		m["shard.items_per_batch"] = ratio(float64(tl.batchIt.Load()), float64(tl.batches.Load()))
	case engineFed:
		m["cluster.ingest_us"] = per(rec.selfUS(spIngest))
		m["cluster.tick_us"] = per(rec.selfUS(spServerTick))
		m["cluster.finalize_us"] = per(rec.selfUS(spFinalize))
		m["cluster.link_deliver_us"] = per(rec.selfUS(spLinkDeliver))
		ls, cs := r.link.Stats(), r.cl.Stats()
		linkMsgs := float64(ls.Sent - base.link.Sent)
		m["cluster.link_msgs"] = per(linkMsgs)
		m["cluster.link_bytes"] = per(float64(ls.SentBytes - base.link.SentBytes))
		m["cluster.link_per_uplink"] = ratio(linkMsgs, upMsgs)
		m["cluster.object_handoffs"] = per(float64(cs.ObjectHandoffs - base.cl.ObjectHandoffs))
		m["cluster.query_handoffs"] = per(float64(cs.QueryHandoffs - base.cl.QueryHandoffs))
		m["cluster.relay_drops"] = float64(cs.RelayDrops - base.cl.RelayDrops)
		var sum, most, sq float64
		nodes := r.nodeBusy()
		for i, d := range nodes {
			us := float64((d - base.nodeBusy[i]).Microseconds())
			sum += us
			most = max(most, us)
			sq += us * us
		}
		n := float64(len(nodes))
		mean := sum / n
		m["cluster.node_busy_max_us"] = per(most)
		m["cluster.node_busy_sum_us"] = per(sum)
		m["cluster.load_cv"] = ratio(math.Sqrt(max(sq/n-mean*mean, 0)), mean)
	case engineTCP:
		// Spans close on transport goroutines here, so self times come
		// from subtraction: sends that ran inside uplink handlers leave
		// the handler spans, and what the spans hold beyond the server's
		// own busy clock is time spent waiting for its lock.
		sendIn := func(n spanName) float64 { return float64(tl.sendInNS[n].Load()) / 1e3 }
		waitUS := max(serverUS-busyUS, 0)
		ingestUS := max(rec.totalUS(spIngest)-sendIn(spIngest)-waitUS, 0)
		m["core.ingest_us"] = per(ingestUS)
		m["core.ingest_ns_per_msg"] = ratio(ingestUS*1e3, ingestN)
		m["core.wait_us"] = per(waitUS)
		m["core.tick_us"] = per(rec.totalUS(spServerTick) - sendIn(spServerTick))
		m["core.finalize_us"] = per(rec.totalUS(spFinalize) - sendIn(spFinalize))
		writes := rec.count(spUplinkWrite)
		m["nettcp.uplink_write_us"] = per(rec.totalUS(spUplinkWrite))
		m["nettcp.uplink_write_ns_per_msg"] = ratio(rec.totalUS(spUplinkWrite)*1e3, writes)
		m["nettcp.send_us"] = per(rec.totalUS(spSend))
		frames := float64(e.wire.Delivered(imetrics.Downlink) + e.wire.Delivered(imetrics.Broadcast))
		m["nettcp.frames_out"] = per(frames)
		m["nettcp.frames_per_bcast"] = ratio(float64(e.wire.Delivered(imetrics.Broadcast)), bcasts)
		m["nettcp.bytes_out"] = per(float64(tl.bytesOut.Load()))
		m["nettcp.drops"] = float64(e.drops)
		m["nettcp.evictions"] = float64(e.evicted)
		m["nettcp.barrier_wait_us"] = per(float64(r.barrierNS-base.barrierNS) / 1e3)
	}
	if r.net != nil {
		recipients := float64(e.wire.Delivered(imetrics.Broadcast))
		m["simnet.flush_us"] = per(rec.selfUS(spSimnetFlush))
		m["simnet.flush_calls"] = per(float64(r.flushes - base.flushes))
		m["simnet.bcast_recipients"] = per(recipients)
		m["simnet.recipients_per_bcast"] = ratio(recipients, bcasts)
	}

	m["protocol.mean_uplink_bytes"] = ratio(float64(e.wire.SentBytes(imetrics.Uplink)), upMsgs)
	m["protocol.mean_downlink_bytes"] = ratio(float64(downlinkBytes(&e.wire)), float64(downlinkMsgs(&e.wire)))
	replayCodec(tl, m)

	m["go.allocs_per_tick"] = per(float64(ms1.Mallocs - ms0.Mallocs))
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["go.goroutines"] = float64(runtime.NumGoroutine())
	return m
}
