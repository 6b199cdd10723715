package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

const heapObjects = "/memory/classes/heap/objects:bytes"

// runtimeSample is a read of the cumulative runtime counters a pass's
// allocation and GC metrics come from.
type runtimeSample [5]metrics.Sample

func readRuntime() runtimeSample {
	var s runtimeSample
	for i, name := range []string{
		"/gc/heap/allocs:bytes",
		"/gc/heap/allocs:objects",
		"/gc/cycles/total:gc-cycles",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
	} {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return s
}

func value(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// runtimeDelta sums runtime counters over passes.
type runtimeDelta struct {
	bytes, objects, gcCycles, gcCPU, totalCPU float64
}

func (d *runtimeDelta) add(before, after runtimeSample) {
	diff := func(i int) float64 { return value(after[i]) - value(before[i]) }
	d.bytes += diff(0)
	d.objects += diff(1)
	d.gcCycles += diff(2)
	d.gcCPU += diff(3)
	d.totalCPU += diff(4)
}

// heapSampler tracks the peak bytes of live and not-yet-swept heap
// objects, polling every millisecond between reset and peak.
type heapSampler struct {
	max  atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new peak from the current heap.
func (h *heapSampler) reset() {
	h.max.Store(0)
	h.observe()
}

// peak returns the highest heap seen since reset, including now.
func (h *heapSampler) peak() uint64 {
	h.observe()
	return h.max.Load()
}

// stop ends the sampler and waits for its goroutine to exit.
func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}
