package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// Tick reads the holding flag without the lock while, in dknn-agent, the
// connection's read goroutine changes the table under it. One goroutine
// ticks an agent while another delivers installs, refreshes, cancels and
// out-of-region installs that empty its table; ticks empty it too, once a
// moving query's region has passed the object. Under mu the flag must say
// whether the table is empty after every message and at the end, and the
// race detector must find every access to it synchronized.
func TestIdleTickRacesInstall(t *testing.T) {
	var now atomic.Int64
	side := &recClient{}
	a, err := NewObjectAgent(Config{HorizonTicks: 4, MinProbeRadius: 10, ThetaInside: 2}, AgentDeps{
		ID:   1,
		Side: side,
		Now:  func() model.Tick { return model.Tick(now.Load()) },
		Pos:  func() geo.Point { return geo.Pt(100, 100) },
		DT:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	consistent := func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.holding.Load() == (len(a.mons) > 0)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				a.Tick(model.Tick(now.Add(1)))
			}
		}
	}()

	rng := rand.New(rand.NewSource(1))
	epoch := make(map[model.QueryID]uint32)
	emptied, filled := 0, 0
	for i := 0; i < 20000; i++ {
		q := model.QueryID(1 + rng.Intn(3))
		epoch[q]++
		before := a.MonitorCount()
		var msg protocol.Message
		switch rng.Intn(4) {
		case 0:
			msg = protocol.MonitorCancel{Query: q, Epoch: epoch[q]}
		case 1:
			// The install's cells reached the object, its region did not.
			msg = protocol.MonitorInstall{Query: q, Epoch: epoch[q], Refresh: rng.Intn(2) == 0,
				QueryPos: geo.Pt(300, 100), AnswerRadius: 20, Radius: 60, At: model.Tick(now.Load())}
		default:
			msg = protocol.MonitorInstall{Query: q, Epoch: epoch[q], Refresh: rng.Intn(2) == 0,
				QueryPos:     geo.Pt(100+float64(rng.Intn(41)-20), 100),
				QueryVel:     geo.Vector{X: float64(rng.Intn(2))},
				AnswerRadius: 10, Radius: 60, At: model.Tick(now.Load())}
		}
		a.HandleServerMessage(msg)
		if !consistent() {
			t.Fatalf("message %d (%+v): holding flag disagrees with the table", i, msg)
		}
		switch after := a.MonitorCount(); {
		case before > 0 && after == 0:
			emptied++
		case before == 0 && after > 0:
			filled++
		}
	}
	close(done)
	wg.Wait()
	if !consistent() {
		t.Fatalf("at the end: holding flag %v with %d monitors held", a.holding.Load(), len(a.mons))
	}
	if emptied < 100 || filled < 100 {
		t.Fatalf("stream too tame: the table emptied %d and filled %d times", emptied, filled)
	}
}
