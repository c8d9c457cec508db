package main

import (
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapObjectsBytes reads the bytes held by live and not-yet-swept heap
// objects.
func heapObjectsBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls the heap-objects metric on its own goroutine and
// keeps the peak. Stop ends the goroutine and waits for it.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.Reset()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := heapObjectsBytes()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Reset restarts the peak from the current heap size.
func (h *heapSampler) Reset() { h.peak.Store(heapObjectsBytes()) }

// Peak returns the largest heap size seen since the last Reset.
func (h *heapSampler) Peak() uint64 {
	h.observe()
	return h.peak.Load()
}

// Stop ends the sampler and returns the peak.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.Peak()
}
