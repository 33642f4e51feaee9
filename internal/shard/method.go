package shard

import (
	"fmt"
	"sync"

	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
	"dmknn/internal/transport"
)

// lockedSide serializes sends from concurrently ticking shards onto a
// medium that is not safe for concurrent use (the simulated network; the
// TCP transport would not need it).
type lockedSide struct {
	mu   sync.Mutex
	side transport.ServerSide
}

func (l *lockedSide) Downlink(to model.ObjectID, m protocol.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.side.Downlink(to, m)
}

func (l *lockedSide) Broadcast(region geo.Circle, m protocol.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.side.Broadcast(region, m)
}

// NewMethod returns a DKNN method whose server runs n shards with
// synchronous ingest. The client side is core.Method's, as for every
// engine; only the server's interior differs.
func NewMethod(n int, cfg core.Config) (*core.Method, error) {
	return newMethod("dknn-sharded", n, cfg, Options{})
}

// NewBatchedMethod returns a DKNN method whose server runs n shards on
// the batched ingest pipeline (per-shard arrival queues drained once per
// tick, sends merged back into the synchronous order).
func NewBatchedMethod(n int, cfg core.Config) (*core.Method, error) {
	return newMethod("dknn-batched", n, cfg, Options{Batched: true})
}

func newMethod(name string, n int, cfg core.Config, opts Options) (*core.Method, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: non-positive shard count %d", n)
	}
	return core.NewMethod(name, cfg, 0, func(cfg core.Config, deps core.ServerDeps, _ *sim.Env) (core.Engine, error) {
		// In synchronous mode the shards send mid-tick from their own
		// goroutines, so the medium needs a serializing wrapper. In batched
		// mode the shards write to capture buffers and the medium is only
		// touched by flushSends on the engine goroutine, so the side is used
		// directly — which is also what lets the medium see whole-drain
		// broadcast batches.
		if !opts.Batched {
			deps.Side = &lockedSide{side: deps.Side}
		}
		return NewWithOptions(n, cfg, deps, opts)
	})
}
