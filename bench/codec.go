package main

import (
	"runtime"
	"time"

	"dmknn/internal/protocol"
)

// replayCodec times protocol.Encode and Decode over the messages sampled
// at the wire seams, so the kind mix is the workload's own. simnet meters
// EncodedSize but never encodes; only tcp pays these costs in its ticks.
func replayCodec(tl *tally, m map[string]float64) {
	// Called after the run: nothing offers samples any more.
	msgs := append(append([]protocol.Message(nil), tl.up.msgs...), tl.down.msgs...)
	if len(msgs) == 0 {
		return
	}
	// Enough passes over the sample to run for a few milliseconds.
	passes := max(1, 20000/len(msgs))
	n := float64(passes * len(msgs))

	frames := make([][]byte, len(msgs))
	buf := make([]byte, 0, 4096)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for p := 0; p < passes; p++ {
		for _, msg := range msgs {
			buf = protocol.Encode(buf[:0], msg)
		}
	}
	encNS := time.Since(start)
	runtime.ReadMemStats(&ms1)
	m["protocol.encode_ns_per_msg"] = float64(encNS) / n
	m["protocol.encode_allocs_per_msg"] = float64(ms1.Mallocs-ms0.Mallocs) / n

	for i, msg := range msgs {
		frames[i] = protocol.Encode(nil, msg)
	}
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	for p := 0; p < passes; p++ {
		for _, f := range frames {
			if _, err := protocol.Decode(f); err != nil {
				panic("bench: decode of a freshly encoded message failed: " + err.Error())
			}
		}
	}
	decNS := time.Since(start)
	runtime.ReadMemStats(&ms1)
	m["protocol.decode_ns_per_msg"] = float64(decNS) / n
	m["protocol.decode_allocs_per_msg"] = float64(ms1.Mallocs-ms0.Mallocs) / n
}
