package core

import (
	"math"
	"testing"

	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// The reinstall horizon rule: a positive H is honoured as given; H = 0
// gives the fewest ticks whose slack reaches the answer radius, clamped
// to [1, maxHorizonTicks], and the cap when there is no motion or no
// radius to size from.
func TestDerivedHorizon(t *testing.T) {
	cases := []struct {
		name           string
		h              int
		rk, vobj, vqry float64
		dt             float64
		want           int
	}{
		{"exact multiple", 0, 100, 10, 10, 1, 5},
		{"just above a multiple", 0, 100.001, 10, 10, 1, 6},
		{"just below a multiple", 0, 99.999, 10, 10, 1, 5},
		{"sub-second tick", 0, 25, 10, 10, 0.5, 3},
		{"query at rest", 0, 45, 15, 0, 1, 3},
		{"small radius clamps at 1", 0, 1, 10, 10, 1, 1},
		{"underflowing quotient clamps at 1", 0, 5e-324, 10, 10, 1, 1},
		{"cap exactly", 0, 400, 10, 10, 1, 20},
		{"large radius clamps at the cap", 0, 1000, 10, 10, 1, 20},
		{"infinite radius", 0, math.Inf(1), 10, 10, 1, 20},
		{"zero speed", 0, 100, 0, 0, 1, 20},
		{"zero tick", 0, 100, 10, 10, 0, 20},
		{"zero radius", 0, 0, 10, 10, 1, 20},
		{"negative radius", 0, -5, 10, 10, 1, 20},
		{"NaN radius", 0, math.NaN(), 10, 10, 1, 20},
		{"explicit H below the rule", 8, 1000, 10, 10, 1, 8},
		{"explicit H above the cap", 50, 100, 10, 10, 1, 50},
		{"explicit H at zero speed", 3, 100, 0, 0, 1, 3},
	}
	for _, c := range cases {
		got := reinstallHorizon(c.h, c.rk, c.vobj, c.vqry, c.dt)
		if got != c.want {
			t.Errorf("%s: reinstallHorizon(%d, %v, %v, %v, %v) = %d, want %d",
				c.name, c.h, c.rk, c.vobj, c.vqry, c.dt, got, c.want)
		}
		// Between the clamps the derived slack reaches r_b and one tick
		// less would not.
		if step := (c.vobj + c.vqry) * c.dt; c.h == 0 && got > 1 && got < maxHorizonTicks {
			if float64(got)*step < c.rk || float64(got-1)*step >= c.rk {
				t.Errorf("%s: H_q = %d is not the fewest ticks with δ_q ≥ r_b = %v", c.name, got, c.rk)
			}
		}
	}
	if got := (Config{}).MaxHorizonTicks(); got != maxHorizonTicks {
		t.Errorf("derived MaxHorizonTicks = %d, want %d", got, maxHorizonTicks)
	}
	if got := (Config{HorizonTicks: 7}).MaxHorizonTicks(); got != 7 {
		t.Errorf("fixed MaxHorizonTicks = %d, want 7", got)
	}
}

// derivedCfg is baseCfg with the horizon left to the rule. installQuery's
// three objects (10, 30 and 60 m out, k + m = 4) give r_b = 60·√(4/3) ≈
// 69.3 m; at 20 m of relative motion per tick that is H_q = 4, δ_q = 80 m.
func derivedCfg() Config {
	cfg := baseCfg()
	cfg.HorizonTicks = 0
	return cfg
}

const derivedHq = 4

// With H = 0 a monitor installs R = r_b + δ_q and reinstalls exactly when
// its own H_q ticks have passed.
func TestDerivedHorizonInstallAndExpiry(t *testing.T) {
	srv, side, now := unitServer(t, derivedCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1)
	checkDerivedSlack(t, inst)

	pre := len(side.broadcasts)
	for tick := model.Tick(2); tick < 1+derivedHq; tick++ {
		*now = tick
		srv.Tick(tick)
		if len(side.broadcasts) != pre {
			t.Fatalf("tick %d: reinstalled before H_q = %d ticks passed", tick, derivedHq)
		}
	}
	*now = 1 + derivedHq
	srv.Tick(*now)
	re, ok := side.lastBroadcast().(protocol.MonitorInstall)
	if len(side.broadcasts) != pre+1 || !ok || !re.Refresh {
		t.Fatalf("tick %d: want one refresh install at H_q, got %d broadcasts, last %T",
			*now, len(side.broadcasts)-pre, side.lastBroadcast())
	}
	checkDerivedSlack(t, re)
}

// A monitor that migrates keeps its horizon: the importer derives the same
// H_q from the exported answer radius and reinstalls at the same tick the
// exporter would have.
func TestDerivedHorizonSurvivesHandoff(t *testing.T) {
	srv, side, now := unitServer(t, derivedCfg())
	*now = 1
	checkDerivedSlack(t, installQuery(t, srv, side, 1))

	*now = 2
	srv.Tick(2)
	st, ok := srv.ExportMonitor(1)
	if !ok {
		t.Fatal("export refused")
	}
	srv2, side2, now2 := unitServer(t, derivedCfg())
	*now2 = 2
	srv2.ImportMonitor(st, 2)
	if got := srv2.horizon(st.AnswerRadius); got != derivedHq {
		t.Fatalf("importer's H_q = %d, want %d", got, derivedHq)
	}
	for tick := model.Tick(2); tick < 1+derivedHq; tick++ {
		*now2 = tick
		srv2.Tick(tick)
		if len(side2.broadcasts) != 0 {
			t.Fatalf("tick %d: importer reinstalled before H_q", tick)
		}
	}
	*now2 = 1 + derivedHq
	srv2.Tick(*now2)
	re, ok := side2.lastBroadcast().(protocol.MonitorInstall)
	if len(side2.broadcasts) != 1 || !ok {
		t.Fatalf("importer: want one reinstall at tick %d, got %d broadcasts", *now2, len(side2.broadcasts))
	}
	checkDerivedSlack(t, re)
}

// checkDerivedSlack asserts that an install's region exceeds its answer
// circle by exactly δ_q of the unit servers' speeds.
func checkDerivedSlack(t *testing.T, inst protocol.MonitorInstall) {
	t.Helper()
	h := reinstallHorizon(0, inst.AnswerRadius, 10, 10, 1)
	if h != derivedHq {
		t.Fatalf("r_b = %v gives H_q = %d, want %d", inst.AnswerRadius, h, derivedHq)
	}
	if slack := inst.Radius - inst.AnswerRadius; math.Abs(slack-20*derivedHq) > 1e-9 {
		t.Fatalf("install slack R − r_b = %v, want δ_q = %d", slack, 20*derivedHq)
	}
}
