package dmknn_test

import (
	"fmt"
	"time"

	"dmknn"
)

// ExampleRun compares the distributed protocol against the centralized
// periodic baseline on a small synthetic workload.
func ExampleRun() {
	base := dmknn.SimConfig{
		World:          dmknn.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000},
		GridCols:       16,
		GridRows:       16,
		NumObjects:     500,
		NumQueries:     4,
		K:              5,
		MaxObjectSpeed: 10,
		MaxQuerySpeed:  10,
		Ticks:          50,
		Warmup:         10,
		Seed:           1,
		Protocol:       dmknn.Protocol{HorizonTicks: 8, MinProbeRadius: 100},
	}

	cp := base
	cp.Method = dmknn.MethodCP
	cpRep, err := dmknn.Run(cp)
	if err != nil {
		panic(err)
	}
	dk := base
	dk.Method = dmknn.MethodDKNN
	dkRep, err := dmknn.Run(dk)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cp exact: %v\n", cpRep.Exactness == 1)
	fmt.Printf("dknn exact: %v\n", dkRep.Exactness == 1)
	fmt.Printf("dknn cheaper: %v\n", dkRep.UplinkPerTick < cpRep.UplinkPerTick/2)
	// Output:
	// cp exact: true
	// dknn exact: true
	// dknn cheaper: true
}

// ExampleListenAndServe runs the full TCP deployment in-process: a query
// server, one moving-object client, and a continuous query over it.
func ExampleListenAndServe() {
	world := dmknn.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	tick := 10 * time.Millisecond

	srv, err := dmknn.ListenAndServe("127.0.0.1:0", dmknn.ServerOptions{
		World:        world,
		TickInterval: tick,
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	opts := dmknn.ClientOptions{World: world, TickInterval: tick}
	obj, err := dmknn.DialObject([]string{srv.Addr()}, 1,
		func() dmknn.Point { return dmknn.Point{X: 510, Y: 500} }, opts)
	if err != nil {
		panic(err)
	}
	defer obj.Close()

	got := make(chan dmknn.Answer, 1)
	qc, err := dmknn.DialQuery([]string{srv.Addr()}, 100, 1, 1,
		func() dmknn.Point { return dmknn.Point{X: 500, Y: 500} },
		func() dmknn.Vector { return dmknn.Vector{} },
		func(a dmknn.Answer) {
			select {
			case got <- a:
			default:
			}
		}, opts)
	if err != nil {
		panic(err)
	}
	defer qc.Close()

	a := <-got
	fmt.Printf("nearest object: %d at %.0fm\n", a.Neighbors[0].ID, a.Neighbors[0].Distance)
	// Output:
	// nearest object: 1 at 10m
}
