package protocol

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"dmknn/internal/geo"
	"dmknn/internal/model"
)

// Property-based round trips: for every message kind, arbitrary field
// values (including NaN-free extreme floats generated by testing/quick)
// survive Encode/Decode exactly.

func roundTrips(m Message) bool {
	got, err := Decode(Encode(nil, m))
	if err != nil {
		return false
	}
	return reflect.DeepEqual(got, m)
}

func TestQuickLocationReport(t *testing.T) {
	f := func(obj uint32, x, y, vx, vy float64, at int64) bool {
		return roundTrips(LocationReport{
			Object: model.ObjectID(obj),
			Pos:    geo.Pt(x, y),
			Vel:    geo.Vec(vx, vy),
			At:     model.Tick(at),
		})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMonitorInstall(t *testing.T) {
	f := func(q, epoch uint32, refresh bool, x, y, vx, vy, rk, r float64, at int64) bool {
		return roundTrips(MonitorInstall{
			Query:        model.QueryID(q),
			Epoch:        epoch,
			Refresh:      refresh,
			QueryPos:     geo.Pt(x, y),
			QueryVel:     geo.Vec(vx, vy),
			AnswerRadius: rk,
			Radius:       r,
			At:           model.Tick(at),
		})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickInfluenceInstall(t *testing.T) {
	f := func(q, epoch uint32, refresh bool, x, y, vx, vy, rk, r, frontier, band float64, at int64) bool {
		m := InfluenceInstall{
			Install: MonitorInstall{
				Query:        model.QueryID(q),
				Epoch:        epoch,
				Refresh:      refresh,
				QueryPos:     geo.Pt(x, y),
				QueryVel:     geo.Vec(vx, vy),
				AnswerRadius: rk,
				Radius:       r,
				At:           model.Tick(at),
			},
			Frontier: math.Abs(frontier),
			Band:     math.Abs(band),
		}
		if !roundTrips(m) {
			return false
		}
		// A negated (or NaN) threshold must flip the decode to rejection.
		m.Frontier = -m.Frontier - 1
		_, err := Decode(Encode(nil, m))
		return errors.Is(err, ErrBadThreshold)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMemberReports(t *testing.T) {
	f := func(q, epoch, obj uint32, x, y, vx, vy float64, at int64, kind uint8) bool {
		mr := MemberReport{
			Query: model.QueryID(q), Epoch: epoch,
			Object: model.ObjectID(obj), Pos: geo.Pt(x, y), At: model.Tick(at),
		}
		var m Message
		switch kind % 3 {
		case 0:
			m = EnterReport{mr, geo.Vec(vx, vy)}
		case 1:
			m = ExitReport{mr}
		default:
			m = MoveReport{mr, geo.Vec(vx, vy)}
		}
		return roundTrips(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAnswerUpdate(t *testing.T) {
	f := func(q, seq uint32, at int64, qx, qy float64, ids []uint32, dists []float64) bool {
		n := len(ids)
		if len(dists) < n {
			n = len(dists)
		}
		if n > 1000 {
			n = 1000
		}
		ns := make([]model.Neighbor, 0, n)
		for i := 0; i < n; i++ {
			ns = append(ns, model.Neighbor{ID: model.ObjectID(ids[i]), Dist: dists[i]})
		}
		m := AnswerUpdate{Query: model.QueryID(q), Seq: seq, At: model.Tick(at),
			QPos: geo.Pt(qx, qy)}
		if len(ns) > 0 {
			m.Neighbors = ns
		}
		return roundTrips(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAnswerDelta(t *testing.T) {
	f := func(q, seq uint32, at int64, addIDs []uint32, dists []float64, rmIDs []uint32) bool {
		n := len(addIDs)
		if len(dists) < n {
			n = len(dists)
		}
		if n > 1000 {
			n = 1000
		}
		m := AnswerDelta{Query: model.QueryID(q), Seq: seq, At: model.Tick(at)}
		for i := 0; i < n; i++ {
			m.Added = append(m.Added, model.Neighbor{ID: model.ObjectID(addIDs[i]), Dist: dists[i]})
		}
		nr := len(rmIDs)
		if nr > 1000 {
			nr = 1000
		}
		for i := 0; i < nr; i++ {
			m.Removed = append(m.Removed, model.ObjectID(rmIDs[i]))
		}
		return roundTrips(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAnswerResync(t *testing.T) {
	f := func(q uint32) bool {
		return roundTrips(AnswerResync{Query: model.QueryID(q)})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickProbePair(t *testing.T) {
	f := func(q, seq, obj uint32, cx, cy, r, px, py float64) bool {
		return roundTrips(ProbeRequest{
			Query: model.QueryID(q), Seq: seq,
			Region: geo.Circle{Center: geo.Pt(cx, cy), R: r},
		}) && roundTrips(ProbeReply{
			Query: model.QueryID(q), Seq: seq,
			Object: model.ObjectID(obj), Pos: geo.Pt(px, py),
		})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPeerFrames(t *testing.T) {
	f := func(wire uint8, node, nodes uint16, version uint64) bool {
		return roundTrips(PeerHello{Wire: wire, Node: node, Nodes: nodes, Version: version}) &&
			roundTrips(PeerHeartbeat{})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBalanceFrames(t *testing.T) {
	f := func(node uint16, version, uplinks uint64, owners []uint16) bool {
		if len(owners) > 1<<16-1 {
			owners = owners[:1<<16-1]
		}
		pu := PartitionUpdate{Version: version}
		if len(owners) > 0 {
			pu.Owners = owners
		}
		return roundTrips(NodeLoad{Node: node, Version: version, Uplinks: uplinks}) &&
			roundTrips(pu) && roundTrips(PartitionAck{Node: node, Version: version})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNodeRedirect(t *testing.T) {
	f := func(node uint16, addr string) bool {
		if len(addr) > 1<<16-1 {
			addr = addr[:1<<16-1]
		}
		return roundTrips(NodeRedirect{Node: node, Addr: addr})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
