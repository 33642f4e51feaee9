package shard

import (
	"fmt"

	"dmknn/internal/core"
	"dmknn/internal/sim"
)

// NewBatchedMethod returns a DKNN method whose server runs n shards on
// the batched ingest pipeline (per-shard arrival queues drained once per
// tick, sends merged back into the single server's order). The client
// side is core.Method's, as for every engine; only the server's interior
// differs.
func NewBatchedMethod(n int, cfg core.Config) (*core.Method, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: non-positive shard count %d", n)
	}
	return core.NewMethod("dknn-batched", cfg, 0, func(cfg core.Config, deps core.ServerDeps, _ *sim.Env) (core.Engine, error) {
		return NewWithOptions(n, cfg, deps, Options{})
	})
}
