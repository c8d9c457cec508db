// Command perfbench is the repository's benchmark. It measures how fast
// the library and the mining service turn a transaction table into its
// full frequent-itemset answer, end to end and layer by layer, and checks
// every answer against a reference computed during set-up.
//
//	bash perfbench/run.sh --workload dense-deep --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	dense-deep    one library op at a time (parse FIMI text, fim.MineAbsolute
//	              with fim.DefaultOptions(nproc), Result.Decoded) on dense
//	              categorical tables at supports that give deep lattices
//	wide-shallow  the same op on large wide or sparse tables at high
//	              support, where parsing and recoding dominate
//	serve-mixed   nproc closed-loop HTTP clients against an in-process
//	              serve.New handler with its shipped defaults: uploads,
//	              exact and filtered cache hits, misses, explicit
//	              algorithm variants and coalesced identical requests
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it makes a separate traced run on the same inputs that reports the
// per-layer metrics, writes its spans to --spans, and adds the kinds
// probe (every algorithm over every vertical kind) and the scaling
// probe (1 vs nproc workers beside the machine model's prediction).
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	spansDir string
	// nproc is the worker count of the library ops and the number of
	// serve clients.
	nproc int
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// kindsReps and scalingReps size the traced run's probes.
	kindsReps, scalingReps int
	// plantWrong corrupts every reference answer after set-up, so every
	// op must fail verification. Only the benchmark's tests set it.
	plantWrong bool
}

func defaultConfig() config {
	return config{
		seed:        1,
		duration:    20 * time.Second,
		nproc:       runtime.NumCPU(),
		setupReps:   3,
		kindsReps:   10,
		scalingReps: 3,
	}
}

// env is a workload's set-up state.
type env interface {
	// measure runs the untraced closed loop in whole passes (a pass over
	// the tables, or a round of client sessions) and returns its tally,
	// the typical peak heap in bytes while ops run, and the number of
	// concurrent clients.
	measure(cfg config) (t *tally, peakHeap float64, clients int)
	// traced runs the traced loop, feeding tr and setting the
	// workload-specific per-layer metrics in m.
	traced(cfg config, tr *tracer, m metricSet) (*tally, error)
	// refs lists every reference answer ops are checked against.
	refs() []*reference
	close()
}

var workloads = map[string]func(cfg config) (env, error){
	"dense-deep": func(cfg config) (env, error) {
		return setupLibrary(cfg, denseDeepSpecs)
	},
	"wide-shallow": func(cfg config) (env, error) {
		return setupLibrary(cfg, wideShallowSpecs)
	},
	"serve-mixed": func(cfg config) (env, error) {
		return setupServe(cfg)
	},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	m[name] = metric{Value: v, Unit: u}
}

// units names every metric the benchmark reports, with its unit.
var units = map[string]string{
	// End to end (--trace 0).
	"setup_s":      "s",
	"ops_per_s":    "1/s",
	"op_ms_p50":    "ms",
	"op_ms_p90":    "ms",
	"correct_frac": "frac",
	"peak_heap_mb": "MiB",
	// Per layer (--trace 1).
	"failed_frac":                 "frac",
	"dataset.parse_ms":            "ms",
	"dataset.parse_mb_per_s":      "MiB/s",
	"dataset.recode_ms":           "ms",
	"dataset.share":               "frac",
	"vertical.nodes_built":        "count",
	"vertical.materialized_mb":    "MiB",
	"vertical.tids_compared":      "count",
	"vertical.words_anded":        "count",
	"vertical.parent_words_saved": "count",
	"vertical.arena_hit_frac":     "frac",
	"vertical.kinds_wrong":        "count",
	"eclat.mine_ms":               "ms",
	"eclat.candidates":            "count",
	"eclat.frequent":              "count",
	"eclat.yield":                 "frac",
	"apriori.mine_ms":             "ms",
	"apriori.candidates":          "count",
	"apriori.frequent":            "count",
	"apriori.yield":               "frac",
	"fpgrowth.mine_ms":            "ms",
	"fpgrowth.candidates":         "count",
	"fpgrowth.frequent":           "count",
	"fpgrowth.yield":              "frac",
	"sched.busy_ms":               "ms",
	"sched.idle_frac":             "frac",
	"sched.imbalance":             "ratio",
	"sched.stolen":                "count",
	"sched.speedup":               "ratio",
	"machine.speedup_model":       "ratio",
	"runctl.peak_live_mb":         "MiB",
	"runctl.live_to_heap":         "ratio",
	"core.decode_ms":              "ms",
	"serve.hit_frac":              "frac",
	"serve.filtered_frac":         "frac",
	"serve.coalesced_frac":        "frac",
	"serve.queue_wait_ms_p50":     "ms",
	"serve.run_ms_p50":            "ms",
	"serve.hit_ms_p50":            "ms",
	"serve.overhead_ms":           "ms",
	"serve.response_kb":           "KiB",
	"obs.overhead_frac":           "frac",
}

// servePerLayer are the serve.* metrics; the library workloads, which
// send no requests, report them as 0.
var servePerLayer = []string{"serve.hit_frac", "serve.filtered_frac", "serve.coalesced_frac",
	"serve.queue_wait_ms_p50", "serve.run_ms_p50", "serve.hit_ms_p50", "serve.overhead_ms", "serve.response_kb"}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// run sets the workload up, measures it and returns the result. Notes
// for the reader (sample counts, probe findings, failures) go to
// stdout ahead of the result line.
func run(cfg config) (*result, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var (
		e         env
		setupTime []float64
	)
	for i := 0; i < max(1, cfg.setupReps); i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		e, err = setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTime = append(setupTime, time.Since(t0).Seconds())
	}
	defer e.close()
	if cfg.plantWrong {
		for _, r := range e.refs() {
			r.plantWrong()
		}
	}

	m := metricSet{}
	var t *tally
	correct := true
	if !cfg.trace {
		var peak float64
		var clients int
		t, peak, clients = e.measure(cfg)
		// Timings are reported at reference host speed (see speed.go).
		scale := median(t.probeMS) / probeRefMS
		ok := float64(t.attempted - t.failed)
		m.set("setup_s", median(setupTime)/scale)
		m.set("ops_per_s", median(t.passRate)*scale)
		m.set("op_ms_p50", quantile(t.latMS, 0.5)/scale)
		m.set("op_ms_p90", quantile(t.latMS, 0.9)/scale)
		m.set("correct_frac", ratio(ok, float64(t.attempted)))
		m.set("peak_heap_mb", peak/mib)
		fmt.Printf("%s seed %d: %d ops from %d clients (p90 has %d samples beyond it), %d failed\n",
			cfg.workload, cfg.seed, t.attempted, clients, t.attempted/10, t.failed)
		fmt.Printf("host speed scale %.4f; raw: setup_s %.4f ops_per_s %.4f op_ms_p50 %.4f op_ms_p90 %.4f\n",
			scale, median(setupTime), median(t.passRate), quantile(t.latMS, 0.5), quantile(t.latMS, 0.9))
	} else {
		tr := newTracer()
		defer tr.close()
		var err error
		if t, err = e.traced(cfg, tr, m); err != nil {
			if t == nil {
				return nil, fmt.Errorf("traced run: %w", err)
			}
			fmt.Printf("traced run check failed: %v\n", err)
			correct = false
		}
		tr.layerMetrics(m)
		for _, name := range servePerLayer {
			if _, ok := m[name]; !ok {
				m.set(name, 0)
			}
		}
		if err := probes(cfg, m); err != nil {
			return nil, err
		}
		m.set("failed_frac", ratio(float64(t.failed), float64(t.attempted)))
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if cfg.spansDir != "" {
			if err := tr.rec.write(path); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			fmt.Printf("spans written to %s\n", path)
		}
		fmt.Printf("%s seed %d traced: %d ops, %d failed\n", cfg.workload, cfg.seed, t.attempted, t.failed)
	}
	if t.failed > 0 {
		correct = false
		fmt.Printf("%d of %d ops failed; first: %s\n", t.failed, t.attempted, t.firstFailure)
	}
	return &result{Correct: correct, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// probes runs the traced run's kinds and scaling probes on the
// dense-deep tables of the run's seed, set up afresh so they are
// independent of the workload's own state.
func probes(cfg config, m metricSet) error {
	dcfg := cfg
	dcfg.workload = "dense-deep"
	dense, err := setupLibrary(dcfg, denseDeepSpecs)
	if err != nil {
		return fmt.Errorf("probe set-up: %w", err)
	}
	// The kinds probe runs on the first (chess-like) dense-deep table.
	wrong := kindsProbe(dense.tables[0], cfg.nproc, cfg.kindsReps)
	m.set("vertical.kinds_wrong", float64(len(wrong)))
	fmt.Printf("kinds probe on %s at %d workers, %d runs per cell: %d wrong cells\n",
		dense.tables[0].name, cfg.nproc, cfg.kindsReps, len(wrong))
	for _, w := range wrong {
		fmt.Printf("  %s\n", w)
	}
	measured, model, err := scalingProbe(dense.tables, cfg.nproc, cfg.scalingReps)
	if err != nil {
		return err
	}
	m.set("sched.speedup", measured)
	m.set("machine.speedup_model", model)
	fmt.Printf("scaling probe, 1 vs %d workers: measured %.3f, machine model %.3f\n", cfg.nproc, measured, model)
	return nil
}

func main() {
	cfg := defaultConfig()
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "dense-deep", "workload: dense-deep, wide-shallow or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed the inputs are generated from")
	flag.Float64Var(&seconds, "seconds", cfg.duration.Seconds(), "how long the measured loop runs")
	flag.IntVar(&trace, "trace", 0, "1: make the traced run and report per-layer metrics")
	flag.StringVar(&cfg.spansDir, "spans", "", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.duration = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
