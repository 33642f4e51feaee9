package cluster

import (
	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// recordSide is a minimal radio fake for driving a member directly: it
// keeps every broadcast and downlink it is handed.
type recordSide struct {
	broadcasts []struct {
		region geo.Circle
		msg    protocol.Message
	}
	downlinks []protocol.Message
}

func (r *recordSide) Broadcast(region geo.Circle, m protocol.Message) {
	r.broadcasts = append(r.broadcasts, struct {
		region geo.Circle
		msg    protocol.Message
	}{region, m})
}
func (r *recordSide) Downlink(to model.ObjectID, m protocol.Message) {
	r.downlinks = append(r.downlinks, m)
}

// lossyDelivery is a MemLink delivery handler that loses every message
// lose picks and hands every other one to next: installed with OnDeliver,
// it makes the link drop exactly those messages. lost records what it
// dropped, log every PartitionUpdate and PartitionAck it delivered, each
// in delivery order.
type lossyDelivery struct {
	next func(from, to int, m protocol.Message)
	lose func(from, to int, m protocol.Message) bool
	now  func() model.Tick
	lost []mapDelivery
	log  []mapDelivery
}

// mapDelivery is one delivered (or lost) partition-map message.
type mapDelivery struct {
	at       model.Tick
	from, to int
	ack      bool
	version  uint64
}

func (l *lossyDelivery) deliver(from, to int, m protocol.Message) {
	d := mapDelivery{at: l.now(), from: from, to: to}
	switch v := m.(type) {
	case protocol.PartitionUpdate:
		d.version = v.Version
	case protocol.PartitionAck:
		d.ack, d.version = true, v.Version
	}
	if l.lose(from, to, m) {
		l.lost = append(l.lost, d)
		return
	}
	if d.version > 0 {
		l.log = append(l.log, d)
	}
	l.next(from, to, m)
}
