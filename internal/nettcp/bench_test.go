package nettcp

import (
	"fmt"
	"io"
	"testing"
	"time"

	"dmknn/internal/geo"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// BenchmarkFanout is the server-side cost of one Broadcast — the socket
// path's stand-in for a cell broadcast, and most of a deployed server's
// tick — to N loopback connections, timed to completion: until the
// sender has written the frame to every connection, not only queued it.
// The far ends are raw sinks that read and discard, so every allocation
// counted is the server's. It fails unless every Broadcast was written
// N times, and if allocations per Broadcast grow with N: the frame is
// encoded once and the fan-out allocates nothing per connection.
func BenchmarkFanout(b *testing.B) {
	install := protocol.InfluenceInstall{Install: protocol.MonitorInstall{Query: 3, Epoch: 2,
		QueryPos: geo.Pt(500, 500), AnswerRadius: 80, Radius: 120, At: 9}, Frontier: 60, Band: 5}
	var msg protocol.Message = install // boxed once, as core hands it over
	sizes := []int{32, 256}
	allocs := make([]float64, len(sizes))
	for i, n := range sizes {
		b.Run(fmt.Sprintf("conns=%d", n), func(b *testing.B) {
			s, err := Listen("127.0.0.1:0", testGeom())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			go s.Serve()
			for id := 0; id < n; id++ {
				c := rawHandshake(b, s.Addr().String(), model.ObjectID(id))
				defer c.Close()
				go io.Copy(io.Discard, c)
			}
			for deadline := time.Now().Add(5 * time.Second); s.ClientCount() < n; {
				if time.Now().After(deadline) {
					b.Fatalf("%d of %d sinks connected", s.ClientCount(), n)
				}
				time.Sleep(time.Millisecond)
			}
			bcast := func() {
				s.Side().Broadcast(install.Region(), msg)
				s.flush()
			}
			allocs[i] = testing.AllocsPerRun(20, bcast) // also warms pool and snapshot
			sent := s.Counters()

			b.ReportAllocs()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				bcast()
			}
			b.StopTimer()
			now := s.Counters()
			d := now.Diff(sent)
			if d.Dropped(metrics.Broadcast) != 0 {
				b.Fatalf("%d frames dropped", d.Dropped(metrics.Broadcast))
			}
			if got := d.Delivered(metrics.Broadcast); got != uint64(n*b.N) {
				b.Fatalf("%d frames written for %d broadcasts to %d connections", got, b.N, n)
			}
			b.ReportMetric(float64(d.Delivered(metrics.Broadcast))/float64(b.N), "frames/op")
		})
	}
	if first, last := allocs[0], allocs[len(sizes)-1]; last > first {
		b.Fatalf("allocations per Broadcast grow with the fan-out: %v at %d connections, %v at %d",
			first, sizes[0], last, sizes[len(sizes)-1])
	}
}
