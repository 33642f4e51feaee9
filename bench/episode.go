package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"dmknn/internal/metrics"
	"dmknn/internal/model"
)

// blockTicks is how many consecutive ticks one block covers. The
// time-derived end-to-end metrics are medians over blocks, so one GC
// cycle or scheduler hiccup moves one block, not the reported value.
const blockTicks = 20

// block is the measured cost of blockTicks consecutive ticks.
type block struct {
	tickNS   int64 // sum of timed tick durations
	serverNS int64 // always-on server-entry timer
	cpuNS    int64 // process user+sys
	allocB   uint64
}

// episode is the outcome of one setup + warm-up + measured phase.
type episode struct {
	sp     spec
	setupS float64
	ticks  int
	tickMS []float64
	blocks []block
	wire   metrics.Counters // traffic of the measured ticks
	heapMB float64

	audited  int
	inexact  int
	first    *inexact
	timeouts int
	drops    uint64
	evicted  uint64
	connErrs int
	gone     int64
	errs     []string

	layers map[string]float64 // traced pass only
	rec    *recorder
}

func (e *episode) failed() int {
	return e.inexact + e.timeouts + int(e.drops) + int(e.evicted) + e.connErrs + int(e.gone) + len(e.errs)
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// setUp builds the rig and runs the warm-up ticks (probe/install
// bootstrap). Its duration is one setup_s sample.
func setUp(sp spec, seed int64, rec *recorder) (*rig, float64, error) {
	start := time.Now()
	r, err := newRig(sp, seed, rec)
	if err != nil {
		return nil, 0, err
	}
	for t := 1; t <= sp.warmup; t++ {
		r.w.step()
		if err := r.tick(model.Tick(t)); err != nil {
			r.close()
			return nil, 0, err
		}
	}
	return r, time.Since(start).Seconds(), nil
}

// runEpisode sets the workload up and measures exactly ticks ticks: the
// work is fixed, not the time, so two runs of a seed time the same ticks
// whatever the host does. rec is nil for the untraced pass.
func runEpisode(sp spec, seed int64, ticks int, rec *recorder) (*episode, error) {
	r, setupS, err := setUp(sp, seed, rec)
	if err != nil {
		return nil, err
	}
	e := &episode{sp: sp, setupS: setupS, rec: rec}
	// Preallocated, so the sample buffers never move the heap mid-run.
	e.tickMS = make([]float64, 0, ticks)
	e.blocks = make([]block, 0, ticks/blockTicks)
	aud := newAuditor(r.w)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := r.counters()
	goneBase := r.gone.Load()
	traceBase := r.traceBase()
	if rec != nil {
		rec.on.Store(true)
	}

	var cur block
	blockMS := ms0
	cpu0 := cpuNS()
	srv0 := r.serverNS.Load()
	now := model.Tick(sp.warmup)
	for e.ticks < ticks {
		now++
		r.w.step()
		if rec != nil {
			rec.tick.Store(int32(now))
		}
		start := time.Now()
		err := r.tick(now)
		d := time.Since(start)
		if err != nil {
			e.errs = append(e.errs, err.Error())
			break
		}
		e.ticks++
		e.tickMS = append(e.tickMS, float64(d)/1e6)
		cur.tickNS += int64(d)
		aud.check(now, r.answer)
		if e.ticks%blockTicks == 0 {
			cpu1, srv1 := cpuNS(), r.serverNS.Load()
			runtime.ReadMemStats(&ms1)
			cur.cpuNS, cur.serverNS = cpu1-cpu0, srv1-srv0
			cur.allocB = ms1.TotalAlloc - blockMS.TotalAlloc
			e.blocks = append(e.blocks, cur)
			cur, cpu0, srv0, blockMS = block{}, cpu1, srv1, ms1
		}
	}
	if rec != nil {
		rec.on.Store(false)
	}
	end := r.counters()
	e.wire = end.Diff(base)
	e.audited, e.inexact, e.first = aud.audited, aud.bad, aud.first
	e.timeouts = r.timeouts
	e.gone = r.gone.Load() - goneBase
	e.connErrs = r.clientErrors()
	for _, d := range metrics.Directions() {
		e.drops += e.wire.Dropped(d)
	}
	e.evicted = e.wire.Evictions()

	runtime.ReadMemStats(&ms1)
	if rec != nil {
		e.layers = r.layerMetrics(e, traceBase, &ms0, &ms1)
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	e.heapMB = float64(live.HeapAlloc) / 1e6
	if err := r.close(); err != nil {
		e.errs = append(e.errs, fmt.Sprintf("close: %v", err))
	}
	if e.ticks == 0 {
		return e, fmt.Errorf("%s: no tick completed: %v", sp.name, e.errs)
	}
	return e, nil
}
