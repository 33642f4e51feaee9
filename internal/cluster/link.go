package cluster

import (
	"fmt"
	"math/rand"

	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// Link is the inter-node transport of a federation. Like the radio
// surfaces in internal/transport, Send does not return an error: the
// cluster protocol tolerates loss (handoffs are retried until acked,
// relays are healed by the periodic resync probes), so delivery failure
// is a metered event of the medium. Flush delivers every due message,
// including messages enqueued by the deliveries themselves, and returns
// how many were delivered.
type Link interface {
	Send(from, to int, m protocol.Message)
	Flush() int
	Stats() LinkStats
}

// LinkConfig parameterizes the in-memory link.
type LinkConfig struct {
	// LatencyTicks delays every message by a whole number of ticks
	// (0: same-tick delivery, the ideal backplane).
	LatencyTicks int
	// Loss drops each message independently with this probability,
	// in [0, 1).
	Loss float64
	// Seed feeds the loss generator; runs with the same seed draw the
	// same loss pattern.
	Seed int64
}

func (c LinkConfig) validate() {
	if c.LatencyTicks < 0 {
		panic("cluster: negative link latency")
	}
	if c.Loss < 0 || c.Loss >= 1 {
		panic(fmt.Sprintf("cluster: link loss %v outside [0,1)", c.Loss))
	}
}

// LinkStats counts link activity. Conservation invariant: after a full
// drain (no pending messages), Sent == Delivered + Dropped.
type LinkStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	SentBytes uint64
}

// memEnvelope is one queued inter-node message.
type memEnvelope struct {
	due      model.Tick
	from, to int
	msg      protocol.Message
}

// MemLink is the in-memory Link: a latency/loss-modeled queue in the
// style of internal/simnet, scoped to node-to-node envelopes. It is not
// safe for concurrent use; a Cluster calls Send and Flush from its one
// driving goroutine, so messages queue, and draw their loss, in the
// order the nodes send them.
type MemLink struct {
	cfg     LinkConfig
	now     func() model.Tick
	rng     *rand.Rand
	deliver func(from, to int, m protocol.Message)
	queue   []memEnvelope
	stats   LinkStats
}

// maxLinkFlushRounds bounds same-tick delivery cascades (a delivery's
// handler may send again at zero latency); a protocol that converses
// this long in one tick is livelocked.
const maxLinkFlushRounds = 64

// NewMemLink builds an in-memory link. now supplies the cluster clock;
// the delivery handler is installed later with OnDeliver (the cluster
// that consumes the link is constructed after it).
func NewMemLink(cfg LinkConfig, now func() model.Tick) *MemLink {
	cfg.validate()
	return &MemLink{
		cfg: cfg,
		now: now,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// OnDeliver installs the delivery handler.
func (l *MemLink) OnDeliver(fn func(from, to int, m protocol.Message)) { l.deliver = fn }

// Send implements Link.
func (l *MemLink) Send(from, to int, m protocol.Message) {
	l.stats.Sent++
	l.stats.SentBytes += uint64(protocol.EncodedSize(m))
	l.queue = append(l.queue, memEnvelope{
		due:  l.now() + model.Tick(l.cfg.LatencyTicks),
		from: from,
		to:   to,
		msg:  m,
	})
}

// Flush implements Link: it delivers (or drops) every message due at or
// before the current tick, in send order, looping until a round moves
// nothing — so zero-latency request/response conversations complete
// within one Flush, like the simulated radio's.
func (l *MemLink) Flush() int {
	delivered := 0
	for round := 0; ; round++ {
		if round >= maxLinkFlushRounds {
			panic("cluster: link flush did not quiesce")
		}
		now := l.now()
		pending := l.queue
		l.queue = nil
		var due []memEnvelope
		for _, e := range pending {
			if e.due <= now {
				due = append(due, e)
			} else {
				l.queue = append(l.queue, e)
			}
		}
		if len(due) == 0 {
			break
		}
		for _, e := range due {
			if p := l.cfg.Loss; p > 0 && l.rng.Float64() < p {
				l.stats.Dropped++
				continue
			}
			l.stats.Delivered++
			delivered++
			l.deliver(e.from, e.to, e.msg)
		}
	}
	return delivered
}

// SetLoss changes the drop probability mid-run (chaos tests inject a
// lossy phase and then heal the link).
func (l *MemLink) SetLoss(p float64) {
	c := l.cfg
	c.Loss = p
	c.validate()
	l.cfg.Loss = p
}

// Stats implements Link.
func (l *MemLink) Stats() LinkStats { return l.stats }

// PendingCount returns the number of queued, undelivered messages.
func (l *MemLink) PendingCount() int { return len(l.queue) }
