package core

import (
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// Every install is counted once, under the cause that requested it: each
// case drives one cause on installQuery's monitor (k = 2, three members
// 10, 30 and 60 m out, k + m = 4, H = 10) and must add exactly one install
// to that cause's count beside the bootstrap.
func TestInstallCountsByCause(t *testing.T) {
	report := func(srv *Server, epoch uint32, id model.ObjectID, p geo.Point, inside bool, at model.Tick) {
		mr := protocol.MemberReport{Query: 1, Epoch: epoch, Object: id, Pos: p, At: at}
		if inside {
			srv.HandleUplink(id, protocol.EnterReport{MemberReport: mr})
		} else {
			srv.HandleUplink(id, protocol.ExitReport{MemberReport: mr})
		}
	}
	// probeRound answers a probe ring from the three members, where they
	// stand, and ends the round.
	probeRound := func(srv *Server, probe protocol.ProbeRequest, now model.Tick) {
		for id, x := range map[model.ObjectID]float64{1: 510, 2: 530, 3: 560} {
			srv.HandleUplink(id, protocol.ProbeReply{Query: 1, Seq: probe.Seq, Object: id, Pos: geo.Pt(x, 500)})
		}
		srv.Finalize(now)
	}
	cases := []struct {
		name  string
		cfg   func(*Config)
		drive func(srv *Server, epoch uint32) model.Tick
		want  InstallCounts
	}{
		{"horizon", nil, func(srv *Server, epoch uint32) model.Tick {
			return 11
		}, InstallCounts{Horizon: 1}},
		{"buffer low", nil, func(srv *Server, epoch uint32) model.Tick {
			report(srv, epoch, 3, geo.Pt(600, 500), false, 2)
			return 3
		}, InstallCounts{BufferLow: 1}},
		{"buffer high", nil, func(srv *Server, epoch uint32) model.Tick {
			for id := model.ObjectID(10); id < 16; id++ {
				report(srv, epoch, id, geo.Pt(500, 490+float64(id)), true, 2)
			}
			return 3
		}, InstallCounts{BufferHigh: 1}},
		{"query move", nil, func(srv *Server, epoch uint32) model.Tick {
			srv.HandleUplink(500, protocol.QueryMove{Query: 1, Pos: geo.Pt(505, 500), Vel: geo.Vec(1, 0), At: 2})
			return 2
		}, InstallCounts{QueryMove: 1}},
		{"under-full", nil, func(srv *Server, epoch uint32) model.Tick {
			report(srv, epoch, 2, geo.Pt(600, 500), false, 2)
			report(srv, epoch, 3, geo.Pt(600, 500), false, 2)
			return 2
		}, InstallCounts{Underfull: 1}},
		{"resync", func(c *Config) { c.ResyncTicks = 5 }, func(srv *Server, epoch uint32) model.Tick {
			return 6
		}, InstallCounts{Resync: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := baseCfg()
			if c.cfg != nil {
				c.cfg(&cfg)
			}
			srv, side, now := unitServer(t, cfg)
			*now = 1
			inst := installQuery(t, srv, side, 1)
			if got, want := srv.Installs(), (InstallCounts{Bootstrap: 1}); got != want {
				t.Fatalf("after the first install: %+v, want %+v", got, want)
			}
			*now = c.drive(srv, inst.Epoch)
			srv.Tick(*now)
			for i := 0; i < 4; i++ {
				if probe, ok := side.lastBroadcast().(protocol.ProbeRequest); ok {
					probeRound(srv, probe, *now)
				}
			}
			if _, ok := side.lastBroadcast().(protocol.MonitorInstall); !ok {
				t.Fatalf("tick %d: no install, last broadcast %T", *now, side.lastBroadcast())
			}
			want := c.want
			want.Bootstrap = 1
			if got := srv.Installs(); got != want {
				t.Fatalf("install counts %+v, want %+v", got, want)
			}
		})
	}
}
