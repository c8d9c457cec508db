package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	fim "repro"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one op share Op; Parent is the ID of the enclosing
// span (0 for an op's root). SelfNS is the duration minus the time its
// child spans cover, filled in when the spans are written.
type span struct {
	Op      int64  `json:"op"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// spanRecorder keeps spans in memory; write dumps them as JSON lines
// when the run ends. It is safe for concurrent use.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int64
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// newOp returns a fresh op identifier.
func (r *spanRecorder) newOp() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// begin opens a span and returns its ID.
func (r *spanRecorder) begin(op, parent int64, name string) int64 {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: op, ID: int64(len(r.spans) + 1), Parent: parent, Name: name, StartNS: now})
	return int64(len(r.spans))
}

// end closes span id and returns its duration.
func (r *spanRecorder) end(id int64) time.Duration {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = now
	return time.Duration(s.EndNS - s.StartNS)
}

// timed runs f inside a span and returns the span's duration.
func (r *spanRecorder) timed(op, parent int64, name string, f func()) time.Duration {
	id := r.begin(op, parent, name)
	f()
	return r.end(id)
}

// write computes self times and writes the spans to path as JSON lines.
func (r *spanRecorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int64]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		s.SelfNS = s.EndNS - s.StartNS - child[s.ID]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}

// runStats is what one mining run's event stream says about the miner,
// the vertical kernels, the scheduler and the run's memory books.
type runStats struct {
	algo       string
	mineNS     int64 // run clock: recode excluded
	candidates int64
	frequent   int64
	counters   map[string]int64
	busyNS     int64   // summed worker busy time over scheduler loops
	slotNS     int64   // summed workers x loop wall time
	imbWallNS  float64 // loop imbalance weighted by loop wall time
	wallNS     int64   // summed loop wall time
	stolen     int64
	peakLive   int64
	complete   bool
}

// runObserver collects one run's events (fim.Options.Observer). It only
// reads counts the engine already emits.
type runObserver struct {
	mu sync.Mutex
	st runStats
}

func (o *runObserver) Event(e fim.Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch e.Type {
	case fim.EventLevelEnd:
		o.st.candidates += int64(e.Candidates)
		o.st.frequent += int64(e.Frequent)
	case fim.EventPhaseEnd:
		var busy int64
		for _, l := range e.Load {
			busy += l.BusyNS
			o.st.stolen += l.Stolen
		}
		o.st.busyNS += busy
		o.st.slotNS += int64(len(e.Load)) * e.ElapsedNS
		o.st.imbWallNS += e.Imbalance * float64(e.ElapsedNS)
		o.st.wallNS += e.ElapsedNS
	case fim.EventKernelCounters:
		o.st.counters = e.Counters
	case fim.EventRunEnd:
		o.st.algo = e.Algorithm
		o.st.mineNS = e.ElapsedNS
		o.st.peakLive = e.PeakLiveBytes
		o.st.complete = !e.Incomplete
	}
}

func (o *runObserver) stats() runStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.st
}
