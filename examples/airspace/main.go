// Airspace watch: control towers continuously monitor every aircraft
// within a fixed radius of a moving patrol plane — the range-monitoring
// mode of the protocol, where membership *is* the answer and in-zone
// aircraft send no position refreshes at all. The example compares the
// wireless bill against the stream-everything design.
//
//	go run ./examples/airspace
package main

import (
	"fmt"
	"log"

	"dmknn"
)

func main() {
	base := dmknn.SimConfig{
		World:          dmknn.Rect{MinX: 0, MinY: 0, MaxX: 50000, MaxY: 50000}, // 50 km sector
		GridCols:       64,
		GridRows:       64,
		NumObjects:     5000, // aircraft
		NumQueries:     24,   // patrol planes, each watching a 3 km bubble
		QueryRange:     3000,
		MaxObjectSpeed: 250, // m/s
		MaxQuerySpeed:  200,
		Ticks:          150,
		Warmup:         20,
		Seed:           31,
		Protocol:       dmknn.Protocol{HorizonTicks: 10, MinProbeRadius: 3000},
	}

	dk := base
	dk.Method = dmknn.MethodDKNN
	dkRep, err := dmknn.Run(dk)
	if err != nil {
		log.Fatalf("airspace: %v", err)
	}
	cp := base
	cp.Method = dmknn.MethodCP
	cp.SkipAudit = true
	cpRep, err := dmknn.Run(cp)
	if err != nil {
		log.Fatalf("airspace: %v", err)
	}

	fmt.Printf("%d aircraft, %d moving 3km-radius watch zones\n\n", base.NumObjects, base.NumQueries)
	fmt.Printf("stream-everything (CP): %8.0f uplink msgs/s\n", cpRep.UplinkPerTick)
	fmt.Printf("distributed (DKNN):     %8.0f uplink msgs/s   exactness %.3f\n",
		dkRep.UplinkPerTick, dkRep.Exactness)
	fmt.Printf("\nreduction: %.0fx — and zone membership is maintained exactly;\n",
		cpRep.UplinkPerTick/dkRep.UplinkPerTick)
	fmt.Println("aircraft inside a zone transmit nothing until they cross a boundary.")
}
