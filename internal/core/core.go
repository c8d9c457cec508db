// Package core defines the shared vocabulary of the mining engines: the
// algorithm/configuration enumeration, run options, and the Result type
// every miner produces. The miners themselves live in internal/apriori,
// internal/eclat and internal/fpgrowth; this package is what they agree
// on, and what the public facade (package fim) re-exports.
package core

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/runctl"
	"repro/internal/sched"
	"repro/internal/vertical"
)

// Algorithm names a mining algorithm.
type Algorithm int

const (
	Apriori Algorithm = iota
	Eclat
	FPGrowth
)

func (a Algorithm) String() string {
	switch a {
	case Apriori:
		return "apriori"
	case Eclat:
		return "eclat"
	case FPGrowth:
		return "fpgrowth"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm maps a name to its Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "apriori":
		return Apriori, nil
	case "eclat":
		return Eclat, nil
	case "fpgrowth":
		return FPGrowth, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// Options configures a mining run.
type Options struct {
	// Representation selects the vertical layout (ignored by FP-growth).
	Representation vertical.Kind
	// Workers is the team size; 0 or 1 runs serially.
	Workers int
	// Schedule overrides the algorithm's default loop schedule
	// (static for Apriori, dynamic chunk 1 for Eclat) when Policy/Chunk
	// are set via HasSchedule.
	Schedule    sched.Schedule
	HasSchedule bool
	// Collector, when non-nil, records the run's parallel structure for
	// reporting and NUMA replay.
	Collector *perf.Collector
	// Observer, when non-nil, receives the run's structured event stream
	// live: level/class boundaries with candidate and frequent counts,
	// live payload bytes, degradations, and per-loop worker load. A nil
	// Observer costs the miners one branch per emit site.
	Observer obs.Observer
	// Metrics, when non-nil, is attached to the miner's worker team and
	// collects per-worker busy time, tasks and chunks for every
	// scheduler loop; the miners forward each finished loop to Observer
	// as a phase_end event.
	Metrics *sched.Metrics
	// Control, when non-nil, is the run-control handle: cooperative
	// cancellation and resource budgets, checked by the scheduler at
	// chunk boundaries and by the miners at level/class boundaries. A
	// stopped run returns its partial Result (Incomplete set) together
	// with the stop cause.
	Control *runctl.Control
	// Prune enables Apriori's subset-based candidate pruning
	// (on by default via DefaultOptions).
	Prune bool
	// LazyMaterialize makes Apriori count candidate supports with the
	// representation's count-only kernel (CombineSupport) instead of
	// allocating payloads, materializing only the frequent survivors
	// (ablation A10).
	LazyMaterialize bool
	// EclatDepth selects Eclat's parallel decomposition: 1 parallelizes
	// the literal outer loop of Algorithm 2 (one task per first-level
	// equivalence class — the paper's text reading, whose parallelism is
	// capped by the frequent-item count); k >= 2 flattens the first k−1
	// levels breadth-first and runs one task per frequent k-itemset
	// subtree. 0 uses eclat.DefaultDepth, the shallowest flattening
	// consistent with the speedups the paper reports (see the A4
	// ablation).
	EclatDepth int
}

// DefaultOptions returns the configuration the paper's experiments use:
// the given representation and worker count, pruning on, the algorithm's
// own default schedule.
func DefaultOptions(rep vertical.Kind, workers int) Options {
	return Options{Representation: rep, Workers: workers, Prune: true}
}

// EmitPhases forwards every scheduler loop finished since the last call
// to the observer, one phase_end event per loop, carrying per-worker
// busy time, tasks, chunks, and the max/mean busy-time imbalance. A nil
// observer or metrics makes it a no-op; the miners call it at level
// boundaries.
func EmitPhases(o obs.Observer, m *sched.Metrics) {
	if o == nil || m == nil {
		return
	}
	for _, ps := range m.Drain() {
		e := obs.Event{
			Type:       obs.PhaseEnd,
			Phase:      ps.Name,
			Schedule:   ps.Schedule.String(),
			Candidates: ps.N,
			ElapsedNS:  int64(ps.Wall),
			Imbalance:  ps.Imbalance(),
		}
		for w, ws := range ps.Workers {
			e.Load = append(e.Load, obs.WorkerLoad{
				Worker: w, BusyNS: int64(ws.Busy), Tasks: ws.Tasks, Chunks: ws.Chunks,
				Spawned: ws.Spawned, Stolen: ws.Stolen,
			})
		}
		o.Event(e)
	}
}

// ItemsetCount pairs an itemset with its support.
type ItemsetCount struct {
	Items   itemset.Itemset
	Support int
}

// Result is the output of a mining run. Itemsets are in the dense item
// space of Rec; Decode maps them back to original item codes.
type Result struct {
	// Algorithm and Representation identify the configuration that ran.
	Algorithm      Algorithm
	Representation vertical.Kind
	// MinSup is the absolute support threshold used.
	MinSup int
	// Counts holds every frequent itemset with its support, in dense
	// item codes. Order is unspecified (parallel runs vary); use Sorted
	// for a canonical view.
	Counts []ItemsetCount
	// Rec is the recoded database the run mined.
	Rec *dataset.Recoded
	// MaxK is the size of the largest frequent itemset found.
	MaxK int
	// Incomplete is true when the run stopped before exhausting the
	// search space (cancellation, deadline, budget breach, or contained
	// worker panic). Counts then holds only the itemsets — with correct
	// supports — committed before the stop; StopCause says why.
	Incomplete bool
	// StopCause is the error that ended an incomplete run (nil when the
	// run finished). It matches the error the miner returned.
	StopCause error
	// Degraded is true when the run crossed its memory budget and
	// switched the live payloads to diffsets mid-run
	// (runctl.Budget.DegradeToDiffset) instead of stopping.
	// Representation still names the representation the run started
	// with.
	Degraded bool
}

// Len returns the number of frequent itemsets (all sizes, including 1).
func (r *Result) Len() int { return len(r.Counts) }

// Sorted returns the itemsets in canonical lexicographic order,
// independent of the schedule that produced them.
func (r *Result) Sorted() []ItemsetCount {
	out := make([]ItemsetCount, len(r.Counts))
	copy(out, r.Counts)
	slices.SortFunc(out, func(a, b ItemsetCount) int { return a.Items.Compare(b.Items) })
	return out
}

// Decoded returns the itemsets mapped back to original item codes, in
// canonical order of the original codes (dense order may differ when the
// database was recoded by frequency).
func (r *Result) Decoded() []ItemsetCount {
	out := make([]ItemsetCount, len(r.Counts))
	for i, c := range r.Counts {
		out[i] = ItemsetCount{Items: r.Rec.Decode(c.Items), Support: c.Support}
	}
	slices.SortFunc(out, func(a, b ItemsetCount) int { return a.Items.Compare(b.Items) })
	return out
}

// ByKey returns a support lookup map keyed by Itemset.Key(), for
// cross-checking results between algorithms.
func (r *Result) ByKey() map[string]int {
	m := make(map[string]int, len(r.Counts))
	for _, c := range r.Counts {
		m[c.Items.Key()] = c.Support
	}
	return m
}

// Equal reports whether two results contain exactly the same itemsets
// with the same supports (regardless of order).
func (r *Result) Equal(o *Result) bool {
	if r.Len() != o.Len() {
		return false
	}
	m := r.ByKey()
	for _, c := range o.Counts {
		if s, ok := m[c.Items.Key()]; !ok || s != c.Support {
			return false
		}
	}
	return true
}
