// Ride hailing over real TCP: a dispatch server tracks which drivers are
// closest to each rider, continuously, as everyone moves. This example
// runs the full deployment stack in one process — a dmknn server, one
// TCP connection per driver, and one per rider — exactly as separate
// machines would run it.
//
//	go run ./examples/ridehailing
package main

import (
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"dmknn"
)

const (
	city     = 3000.0 // meters per side
	drivers  = 60
	riders   = 3
	tick     = 50 * time.Millisecond // sped-up clock for the demo
	runFor   = 3 * time.Second
	kDrivers = 3
	driverV  = 12.0 // m/s
	laps     = 2 * math.Pi / 40
)

// mover is a toy kinematic: circle around a center, phase-shifted per id.
type mover struct {
	mu     sync.Mutex
	center dmknn.Point
	radius float64
	phase  float64
}

func (m *mover) step(dphi float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.phase += dphi
}

func (m *mover) pos() dmknn.Point {
	m.mu.Lock()
	defer m.mu.Unlock()
	return dmknn.Point{
		X: m.center.X + m.radius*math.Cos(m.phase),
		Y: m.center.Y + m.radius*math.Sin(m.phase),
	}
}

func (m *mover) vel() dmknn.Vector {
	m.mu.Lock()
	defer m.mu.Unlock()
	speed := m.radius * laps / tick.Seconds()
	return dmknn.Vector{
		X: -speed * math.Sin(m.phase) * tick.Seconds(),
		Y: speed * math.Cos(m.phase) * tick.Seconds(),
	}
}

func main() {
	world := dmknn.Rect{MinX: 0, MinY: 0, MaxX: city, MaxY: city}
	proto := dmknn.Protocol{HorizonTicks: 10, MinProbeRadius: 200, AnswerSlack: 3}

	srv, err := dmknn.ListenAndServe("127.0.0.1:0", dmknn.ServerOptions{
		World:          world,
		GridCols:       16,
		GridRows:       16,
		TickInterval:   tick,
		MaxObjectSpeed: driverV * 4,
		MaxQuerySpeed:  driverV * 4,
		Protocol:       proto,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("dispatch server on %s\n", srv.Addr())

	copts := dmknn.ClientOptions{World: world, TickInterval: tick, Protocol: proto}

	// Drivers circle various blocks of the city.
	var movers []*mover
	for i := 0; i < drivers; i++ {
		m := &mover{
			center: dmknn.Point{
				X: 300 + float64(i%8)*330,
				Y: 300 + float64(i/8)*330,
			},
			radius: 120,
			phase:  float64(i),
		}
		movers = append(movers, m)
		oc, err := dmknn.DialObject([]string{srv.Addr()}, dmknn.ObjectID(i+1), m.pos, copts)
		if err != nil {
			log.Fatalf("driver %d: %v", i+1, err)
		}
		defer oc.Close()
	}

	// Riders walk smaller circles downtown and each continuously tracks
	// the 3 nearest drivers.
	for r := 0; r < riders; r++ {
		m := &mover{
			center: dmknn.Point{X: 1200 + 300*float64(r), Y: 1500},
			radius: 60,
			phase:  float64(r) * 2,
		}
		movers = append(movers, m)
		rid := r + 1
		qc, err := dmknn.DialQuery([]string{srv.Addr()}, dmknn.ObjectID(1000+r), dmknn.QueryID(rid),
			kDrivers, m.pos, m.vel,
			func(a dmknn.Answer) {
				fmt.Printf("rider %d: nearest drivers now %v\n", rid, a.Neighbors)
			},
			copts)
		if err != nil {
			log.Fatalf("rider %d: %v", rid, err)
		}
		defer qc.Close()
	}

	// Advance everyone's motion at the tick rate.
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				for _, m := range movers {
					m.step(laps)
				}
			}
		}
	}()

	time.Sleep(runFor)
	close(stop)
	fmt.Printf("done: %d clients stayed connected, %d queries live\n",
		srv.ClientCount(), srv.QueryCount())
}
