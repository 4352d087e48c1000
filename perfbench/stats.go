package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile that still has ten samples beyond
// it, capped at p95, with that percentile; fewer than twenty samples give
// the median. The percentile moves smoothly with the sample count, so a
// run that fits one operation fewer does not jump to another percentile.
// Above p95 the few samples left beyond it are host stalls more than the
// program: with 14 samples beyond p99, the p99 of five seeds spread 36%.
func tail(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	if n < 20 {
		return median(xs), 50
	}
	pct = min(95, 100*(1-10/n))
	return quantile(xs, pct/100), pct
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// heapSampler polls the bytes held by live and not-yet-swept heap
// objects every millisecond and keeps the peak seen since the last
// mark, so a workload can report the peak heap of each operation or
// window without stopping the world.
type heapSampler struct {
	mu    sync.Mutex
	peak  uint64
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MB, one per mark
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// mark closes the current window, recording its peak, and opens the next.
func (h *heapSampler) mark() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	h.mu.Lock()
	h.peaks = append(h.peaks, float64(max(h.peak, s[0].Value.Uint64()))/(1<<20))
	h.peak = 0
	h.mu.Unlock()
}

// reset drops the peak so far without recording it, opening a window.
func (h *heapSampler) reset() {
	h.mu.Lock()
	h.peak = 0
	h.mu.Unlock()
}

// close stops the poller, waits for it, and returns the window peaks.
func (h *heapSampler) close() []float64 {
	close(h.stop)
	<-h.done
	return h.peaks
}
