package main

import (
	"fmt"
	"runtime"
	"time"

	fim "repro"
)

// The library workloads. Every table's support is calibrated from the
// seed (see tableSpec); the targets below set how much Eclat-over-
// diffsets work a table carries.
var (
	// denseDeepSpecs: dense categorical tables at supports that give
	// deep lattices, two per shape. Every op carries the same estimated
	// work (~130 ms at 2 workers on a 2-vCPU VM), so the ops stay within
	// a small factor of each other and parsing and recoding stay under a
	// tenth of the op.
	denseDeepSpecs = []tableSpec{
		{shape: chessLike, rows: 1600, floor: 0.26, target: 3e7},
		{shape: mushroomLike, rows: 3000, floor: 0.18, target: 3e7},
		{shape: pumsbLike, rows: 1600, floor: 0.58, target: 3e7},
		{shape: chessLike, rows: 1600, floor: 0.26, target: 3e7},
		{shape: mushroomLike, rows: 3000, floor: 0.18, target: 3e7},
		{shape: pumsbLike, rows: 1600, floor: 0.58, target: 3e7},
	}
	// wideShallowSpecs: large wide or sparse tables at high support with
	// itemsets of at most three items, so parsing and recoding dominate.
	wideShallowSpecs = []tableSpec{
		{shape: pumsbLike, rows: 49046, floor: 0.80, target: 2e6, maxK: 3},
		{shape: accidentsLike, rows: 60000, floor: 0.10, target: 2e7, maxK: 3},
		{shape: t40Like, rows: 50000, floor: 0.05, target: 2e7, maxK: 3},
	}
)

// verifyRows and verifyMaxSets size the scaled-down copy of each shape
// on which the reference miners are checked against internal/verify.
const (
	verifyRows    = 60
	verifyMaxSets = 500
)

// libraryEnv is a library workload's set-up state.
type libraryEnv struct {
	tables []*table
}

func setupLibrary(cfg config, specs []tableSpec) (*libraryEnv, error) {
	env := &libraryEnv{}
	checked := map[string]bool{}
	for i, spec := range specs {
		tb, err := buildTable(spec, deriveSeed(cfg.seed, cfg.workload, i))
		if err != nil {
			return nil, err
		}
		env.tables = append(env.tables, tb)
		if !checked[spec.shape.name] {
			checked[spec.shape.name] = true
			rel := float64(tb.abs) / float64(tb.rows)
			if err := crossCheck(spec.shape, deriveSeed(cfg.seed, "verify/"+cfg.workload, i), verifyRows, rel); err != nil {
				return nil, err
			}
		}
	}
	return env, nil
}

// libraryOp is the timed op of the library workloads: parse the FIMI
// text, mine it, decode the result.
func libraryOp(name string, text []byte, abs int, opt fim.Options) ([]fim.ItemsetCount, error) {
	db, err := parseTable(name, text)
	if err != nil {
		return nil, err
	}
	res, err := fim.MineAbsolute(db, abs, opt)
	if err != nil {
		return nil, err
	}
	if res.Incomplete {
		return nil, fmt.Errorf("incomplete result")
	}
	return res.Decoded(), nil
}

// tally counts ops and their outcomes, pass by pass.
type tally struct {
	attempted, failed int
	latMS             []float64
	firstFailure      string
	// passRate is each pass's throughput: correct ops per second of op
	// time, times the number of concurrent clients.
	passRate []float64

	// probeMS is the speed probe's time after each pass.
	probeMS []float64

	passOps, passFailed int
}

func (t *tally) beginPass() { t.passOps, t.passFailed = t.attempted, t.failed }

// endPass closes a pass, books its throughput and runs the speed
// probe (see speed.go). A collection first finishes the pass's garbage,
// so the probe times the host and not the program's leftover work.
func (t *tally) endPass(clients, nproc int) {
	ok := float64(t.attempted - t.failed - (t.passOps - t.passFailed))
	t.passRate = append(t.passRate, ratio(ok*float64(clients), sum(t.latMS[t.passOps:])/1000))
	runtime.GC()
	t.probeMS = append(t.probeMS, ms(speedProbe(nproc)))
}

// verdict checks an op's outcome against the reference: "" when the op
// succeeded with the right answer, otherwise what went wrong.
func verdict(err error, ref *reference, got []fim.ItemsetCount) string {
	if err != nil {
		return err.Error()
	}
	_, d := ref.check(got)
	return d
}

// record books one op's latency and its verdict.
func (t *tally) record(lat time.Duration, what, msg string) {
	t.attempted++
	t.latMS = append(t.latMS, ms(lat))
	if msg != "" {
		t.failed++
		if t.firstFailure == "" {
			t.firstFailure = what + ": " + msg
		}
	}
}

func (e *libraryEnv) refs() []*reference {
	var out []*reference
	for _, tb := range e.tables {
		out = append(out, tb.ref)
	}
	return out
}

func (e *libraryEnv) close() {}

// measure runs the closed loop, one op at a time, in whole passes over
// the tables until the run length is reached. The heap figure is the
// mean over ops of the peak heap during the op.
func (e *libraryEnv) measure(cfg config) (*tally, float64, int) {
	opt := fim.DefaultOptions(cfg.nproc)
	t := &tally{}
	runtime.GC()
	hs := startHeapSampler(time.Millisecond)
	defer hs.Stop()
	var peaks []float64
	start := time.Now()
	for time.Since(start) < cfg.duration || t.attempted == 0 {
		t.beginPass()
		for _, tb := range e.tables {
			hs.Reset()
			t0 := time.Now()
			sets, err := libraryOp(tb.name, tb.text, tb.abs, opt)
			lat := time.Since(t0)
			peaks = append(peaks, float64(hs.Peak()))
			t.record(lat, tb.name, verdict(err, tb.ref, sets))
		}
		t.endPass(1, cfg.nproc)
	}
	return t, mean(peaks), 1
}

// traced is the traced run of a library workload: the same
// passes, each op run once plain and once with spans and an observer.
func (e *libraryEnv) traced(cfg config, tr *tracer, _ metricSet) (*tally, error) {
	opt := fim.DefaultOptions(cfg.nproc)
	t := &tally{}
	start := time.Now()
	for time.Since(start) < cfg.duration || t.attempted == 0 {
		for _, tb := range e.tables {
			lat, msg := tr.op(tb.name, tb.text, tb.abs, tb.ref, opt)
			t.record(lat, tb.name, msg)
		}
	}
	return t, nil
}
