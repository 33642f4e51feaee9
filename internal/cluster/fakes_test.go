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
