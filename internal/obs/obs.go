// Package obs is the engine's structured observability layer: a typed
// event stream emitted live by the miners, the run-control layer, and
// the public facade, describing what the run is doing while it does it —
// run start/end, level/class boundaries with candidate and frequent
// counts, live payload bytes, budget warnings, degrade-to-diffset
// transitions, per-worker scheduler load, and the terminal stop cause.
//
// The quantities mirror the paper's analysis: per-level live payload
// bytes are the §V-A memory-footprint argument (why tidset/bitvector
// Apriori dies past one blade), per-worker busy-time imbalance is the
// §IV static-vs-dynamic scheduling argument, and candidate/frequent
// counts per level are the Table IV series — but measured on a real run
// instead of replayed post-hoc from a perf trace.
//
// An Observer is any sink for the stream. A nil Observer is valid
// everywhere and disables observation; emit sites go through Emit, which
// performs the nil check, mirroring perf.Collector's nil idiom so the
// hot paths pay a single branch when observation is off. Observer
// implementations must be safe for concurrent use: level events come
// from the mining coordinator, but budget warnings fire from whichever
// worker goroutine crossed the threshold.
//
// The package depends only on the standard library; sinks that encode,
// serve, or aggregate the stream live in obs/export.
package obs

import "sync"

// Type names an event kind. The values are the wire names used by the
// JSON-lines sink (obs/export), so they are part of the event schema.
type Type string

// The event kinds, in the order a complete run emits them: one
// run_start; per level/class a level_start, the phase_end of each
// scheduler loop it ran, and a level_end; interleaved budget_warning,
// degraded and stop events as the run's control plane acts; one run_end.
const (
	// RunStart opens the stream: algorithm, representation, workers,
	// dataset and absolute support of the run.
	RunStart Type = "run_start"
	// LevelStart announces one level/class expansion: the level (itemset
	// size being produced, 0 when the stage spans sizes), the phase name,
	// and the candidate count about to be evaluated (with the number
	// already removed by subset pruning, for Apriori).
	LevelStart Type = "level_start"
	// LevelEnd closes a level: frequent survivors, live payload bytes
	// after the level committed, and the level's wall time.
	LevelEnd Type = "level_end"
	// PhaseEnd reports one scheduler loop's per-worker load: busy time,
	// tasks executed and chunks claimed per worker, plus the max/mean
	// busy-time imbalance — the paper's load-balance quantity, measured.
	PhaseEnd Type = "phase_end"
	// BudgetWarning fires once per configured threshold fraction as the
	// memory or itemsets budget fills.
	BudgetWarning Type = "budget_warning"
	// Degraded marks the mid-run tidset/bitvector→diffset switch.
	Degraded Type = "degraded"
	// Stop reports why an incomplete run ended: "canceled", "deadline",
	// "budget:memory", "budget:itemsets", "budget:duration",
	// "worker-panic", or "error".
	Stop Type = "stop"
	// KernelCounters reports the run's per-kernel operation totals
	// (internal/kcount: tidset merge/gallop steps, bitvector word
	// ANDs/popcounts, nodes and bytes materialized per representation,
	// batch, arena and aborted-combine tallies) as a flat name→count map. Emitted once, before
	// run_end, when an observer is attached.
	KernelCounters Type = "kernel_counters"
	// RunEnd closes the stream with the run's totals, peak live payload
	// bytes, and completion status. It is emitted for complete and
	// incomplete runs alike.
	RunEnd Type = "run_end"
)

// WorkerLoad is one worker's share of a scheduler loop.
type WorkerLoad struct {
	// Worker is the team-local worker index.
	Worker int `json:"worker"`
	// BusyNS is the time the worker spent executing chunk bodies, in
	// nanoseconds (hand-out waits excluded).
	BusyNS int64 `json:"busy_ns"`
	// Tasks is the number of loop iterations the worker executed.
	Tasks int64 `json:"tasks"`
	// Chunks is the number of chunks the worker claimed.
	Chunks int64 `json:"chunks"`
	// Spawned is the number of stealable subtasks the worker enqueued
	// during a work-stealing loop; zero in chunked loops.
	Spawned int64 `json:"spawned,omitempty"`
	// Stolen is the number of tasks the worker ran after taking them
	// from another worker's deque; zero in chunked loops.
	Stolen int64 `json:"stolen,omitempty"`
}

// Event is one observation. It is a flat union: Type says which fields
// are meaningful, unused fields stay zero and are omitted on the wire.
// Events are values; sinks may retain them.
type Event struct {
	Type Type `json:"type"`
	// TimeUnixNS is a wall-clock stamp. Emit sites leave it zero; the
	// encoding sinks stamp it on write.
	TimeUnixNS int64 `json:"time_unix_ns,omitempty"`
	// RunID is the run correlation identifier: the serving layer's
	// registry run ID (fim.Options.RunID), stamped onto every event of
	// the run by WithRunID so a metrics anomaly, an SSE stream, a run
	// report and a flight-recorder entry can all be joined on one key.
	// Zero when the run has no external identity (one-shot fimmine).
	RunID int64 `json:"run_id,omitempty"`

	// Run identity (run_start).
	Dataset        string `json:"dataset,omitempty"`
	Algorithm      string `json:"algorithm,omitempty"`
	Representation string `json:"representation,omitempty"`
	Workers        int    `json:"workers,omitempty"`
	MinSupport     int    `json:"min_support,omitempty"`
	Transactions   int    `json:"transactions,omitempty"`

	// Level and scheduler-phase coordinates (level_*, phase_end).
	Level      int          `json:"level,omitempty"`
	Phase      string       `json:"phase,omitempty"`
	Schedule   string       `json:"schedule,omitempty"`
	Candidates int          `json:"candidates,omitempty"`
	Pruned     int          `json:"pruned,omitempty"`
	Frequent   int          `json:"frequent,omitempty"`
	LiveBytes  int64        `json:"live_bytes,omitempty"`
	ElapsedNS  int64        `json:"elapsed_ns,omitempty"`
	Load       []WorkerLoad `json:"load,omitempty"`
	Imbalance  float64      `json:"imbalance,omitempty"`

	// Budget accounting (budget_warning).
	Resource string  `json:"resource,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Used     int64   `json:"used,omitempty"`
	Limit    int64   `json:"limit,omitempty"`

	// Counters carries the kernel operation totals (kernel_counters),
	// keyed by the wire names of kcount.Stats.Map.
	Counters map[string]int64 `json:"counters,omitempty"`

	// Outcome (stop, run_end).
	Reason        string `json:"reason,omitempty"`
	Err           string `json:"error,omitempty"`
	Itemsets      int64  `json:"itemsets,omitempty"`
	MaxK          int    `json:"max_k,omitempty"`
	PeakLiveBytes int64  `json:"peak_live_bytes,omitempty"`
	Incomplete    bool   `json:"incomplete,omitempty"`
	DegradedRun   bool   `json:"degraded,omitempty"`
}

// Observer receives the event stream of one mining run. Implementations
// must be safe for concurrent use; Event must not block for long, since
// budget warnings fire from mining workers.
type Observer interface {
	Event(Event)
}

// Emit sends e to o if o is non-nil — the single-branch no-op path the
// miners use, mirroring the nil-*perf.Collector idiom.
func Emit(o Observer, e Event) {
	if o != nil {
		o.Event(e)
	}
}

// Recorder is an Observer that retains every event in order of arrival.
// It is safe for concurrent use; tests and the report builder use it.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Event appends e.
func (r *Recorder) Event(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// ByType returns the recorded events of one kind, in arrival order.
func (r *Recorder) ByType(t Type) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// runIDTagger stamps a run correlation ID onto every event passing
// through it.
type runIDTagger struct {
	o  Observer
	id int64
}

func (t *runIDTagger) Event(e Event) {
	if e.RunID == 0 {
		e.RunID = t.id
	}
	t.o.Event(e)
}

// WithRunID wraps o so every event it receives carries the run
// correlation ID id (events already tagged keep their own). A nil o or
// zero id returns o unchanged.
func WithRunID(o Observer, id int64) Observer {
	if o == nil || id == 0 {
		return o
	}
	return &runIDTagger{o: o, id: id}
}

// multi fans events out to several observers.
type multi struct{ obs []Observer }

func (m *multi) Event(e Event) {
	for _, o := range m.obs {
		o.Event(e)
	}
}

// Multi combines observers into one. Nil entries are skipped; with zero
// or one live observer it returns nil or that observer unwrapped, so the
// no-op and single-sink paths stay as cheap as before.
func Multi(os ...Observer) Observer {
	var live []Observer
	for _, o := range os {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &multi{obs: live}
}
