// Command dknn-agent simulates mobile clients against a running dknnd
// server: it spawns a fleet of moving objects (random-waypoint motion)
// and optionally a moving kNN query, all over real TCP.
//
// Usage:
//
//	dknn-agent [-addr 127.0.0.1:7707] [-objects 100] [-world 10000]
//	           [-grid 64] [-speed 20] [-tick 1s] [-query 1] [-k 10]
//	           [-range 0] [-duration 30s]
//
// Against a federation, -addr lists every node's client address (in
// node-id order, matching the servers' -client-addrs); the agents then
// attach to the node owning their position and follow it across strip
// boundaries:
//
//	dknn-agent -addr 127.0.0.1:7707,127.0.0.1:7708 -grid 64 ...
//
// With -query N the agent also registers query id N (the k nearest
// objects to a moving focal point, or with -range every object within that
// many meters of it) and prints every answer update it receives. Clients
// whose connection dies redial at tick cadence.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"dmknn"
	"dmknn/internal/geo"
	"dmknn/internal/mobility"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7707", "server address; for a federation, the comma-separated client addresses of ALL nodes, in node-id order")
	objects := flag.Int("objects", 100, "number of moving objects to simulate")
	world := flag.Float64("world", 10000, "world side length in meters (must match the server)")
	gridN := flag.Int("grid", 64, "broadcast grid cells per side (must match the servers)")
	speed := flag.Float64("speed", 20, "max speed, m/s")
	tick := flag.Duration("tick", time.Second, "evaluation interval (must match the server)")
	queryID := flag.Uint("query", 0, "register this query id (0 = objects only)")
	k := flag.Int("k", 10, "number of neighbors for the query")
	queryRange := flag.Float64("range", 0, "make the query a fixed-radius range monitor of this many meters (overrides -k)")
	baseID := flag.Uint("base-id", 1, "first object client id")
	duration := flag.Duration("duration", 30*time.Second, "how long to run")
	seed := flag.Int64("seed", 1, "trajectory seed")
	flag.Parse()
	addrs := strings.Split(*addr, ",")

	rect := geo.NewRect(geo.Pt(0, 0), geo.Pt(*world, *world))
	model, err := mobility.NewRandomWaypoint(mobility.Config{
		World: rect, MinSpeed: *speed / 4, MaxSpeed: *speed, Seed: *seed,
	}, 0)
	if err != nil {
		fatal(err)
	}
	// One extra state for the query focal point, when requested.
	n := *objects
	if *queryID != 0 {
		n++
	}
	states := model.Init(n)

	worldRect := dmknn.Rect{MinX: 0, MinY: 0, MaxX: *world, MaxY: *world}
	opts := dmknn.ClientOptions{
		World: worldRect, GridCols: *gridN, GridRows: *gridN, TickInterval: *tick,
	}

	// Drive all trajectories from one goroutine at the tick rate; the
	// clients' sensors read them from their own goroutines.
	var mu sync.RWMutex
	at := func(i int) (dmknn.Point, dmknn.Vector) {
		mu.RLock()
		defer mu.RUnlock()
		s := states[i]
		return dmknn.Point{X: s.Pos.X, Y: s.Pos.Y}, dmknn.Vector{X: s.Vel.X, Y: s.Vel.Y}
	}
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(*tick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				mu.Lock()
				model.Step(states, tick.Seconds())
				mu.Unlock()
			}
		}
	}()

	var closers []func() error
	for i := 0; i < *objects; i++ {
		idx := i
		id := dmknn.ObjectID(uint32(*baseID) + uint32(i))
		pos := func() dmknn.Point { p, _ := at(idx); return p }
		oc, err := dmknn.DialObject(addrs, id, pos, opts)
		if err != nil {
			fatal(fmt.Errorf("object %d: %w", id, err))
		}
		closers = append(closers, oc.Close)
	}
	fmt.Printf("dknn-agent: %d objects connected to %s\n", *objects, *addr)

	if *queryID != 0 {
		qi := n - 1
		clientID := dmknn.ObjectID(uint32(*baseID) + uint32(*objects))
		pos := func() dmknn.Point { p, _ := at(qi); return p }
		vel := func() dmknn.Vector { _, v := at(qi); return v }
		show := func(a dmknn.Answer) { fmt.Printf("dknn-agent: %v\n", a) }
		var qc *dmknn.QueryClient
		var err error
		if *queryRange > 0 {
			qc, err = dmknn.DialRange(addrs, clientID, dmknn.QueryID(*queryID), *queryRange, pos, vel, show, opts)
		} else {
			qc, err = dmknn.DialQuery(addrs, clientID, dmknn.QueryID(*queryID), *k, pos, vel, show, opts)
		}
		if err != nil {
			fatal(fmt.Errorf("query %d: %w", *queryID, err))
		}
		closers = append(closers, qc.Close)
		fmt.Printf("dknn-agent: query %d registered (k=%d range=%g)\n", *queryID, *k, *queryRange)
	}

	time.Sleep(*duration)
	close(stop)
	for _, c := range closers {
		if err := c(); err != nil {
			fmt.Fprintf(os.Stderr, "dknn-agent: close: %v\n", err)
		}
	}
	fmt.Println("dknn-agent: done")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dknn-agent: %v\n", err)
	os.Exit(1)
}
