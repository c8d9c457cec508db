package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	fim "repro"
)

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// tiny is a run short enough for a test.
func tiny(workload string, seed int64, trace bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = seed
	cfg.trace = trace
	cfg.duration = 50 * time.Millisecond
	cfg.setupReps = 1
	cfg.kindsReps = 1
	cfg.scalingReps = 1
	return cfg
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", cfg.workload, cfg.seed, cfg.trace, err)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: no ops attempted", cfg.workload)
	}
	return res
}

func TestEveryMetricPrintedWithItsUnit(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res := mustRun(t, tiny(w.Name, 1, trace))
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace %v: correct %v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %v: metric %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %v: metric %s printed in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			// The result line must be one JSON object with exactly the
			// contract's keys.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			var names []string
			for k := range keys {
				names = append(names, k)
			}
			slices.Sort(names)
			if !slices.Equal(names, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("result keys %v", names)
			}
		}
	}
}

// inputs returns the FIMI texts a workload's set-up generated.
func inputs(t *testing.T, workload string, seed int64) [][]byte {
	t.Helper()
	e, err := workloads[workload](tiny(workload, seed, false))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	var out [][]byte
	switch e := e.(type) {
	case *libraryEnv:
		for _, tb := range e.tables {
			out = append(out, tb.text)
		}
	case *serveEnv:
		for _, st := range e.tables {
			out = append(out, st.text)
		}
	}
	return out
}

func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		a, b, again := inputs(t, w.Name, 1), inputs(t, w.Name, 2), inputs(t, w.Name, 1)
		for i := range a {
			if bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: input %d is the same under seeds 1 and 2", w.Name, i)
			}
			if !bytes.Equal(a[i], again[i]) {
				t.Errorf("%s: input %d differs between two set-ups with seed 1", w.Name, i)
			}
		}
		r1, r2 := mustRun(t, tiny(w.Name, 1, false)), mustRun(t, tiny(w.Name, 2, false))
		for name := range r1.Metrics {
			if _, ok := r2.Metrics[name]; !ok {
				t.Errorf("%s: metric %s printed under seed 1 but not seed 2", w.Name, name)
			}
		}
		if len(r1.Metrics) != len(r2.Metrics) {
			t.Errorf("%s: %d metrics under seed 1, %d under seed 2", w.Name, len(r1.Metrics), len(r2.Metrics))
		}
	}
}

func TestPlantedWrongReferenceFailsEveryOp(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		cfg := tiny(w.Name, 1, false)
		cfg.plantWrong = true
		res := mustRun(t, cfg)
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: planted wrong reference: correct %v, %d of %d failed", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		if v := res.Metrics["correct_frac"].Value; v != 0 {
			t.Errorf("%s: planted wrong reference: correct_frac %v, want 0", w.Name, v)
		}
		cfg.trace = true
		res = mustRun(t, cfg)
		if v := res.Metrics["failed_frac"].Value; v != 1 {
			t.Errorf("%s: planted wrong reference, traced: failed_frac %v, want 1", w.Name, v)
		}
	}
}

func TestDigestIsOrderIndependentAndSensitive(t *testing.T) {
	db := chessLike.build(7, 200)
	var text bytes.Buffer
	if err := fim.WriteFIMI(&text, db); err != nil {
		t.Fatal(err)
	}
	sets, err := referenceAnswer(db, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) < 3 {
		t.Fatalf("only %d itemsets", len(sets))
	}
	ref := newReference(text.Bytes(), 150, sets)
	rev := slices.Clone(sets)
	slices.Reverse(rev)
	if ok, d := ref.check(rev); !ok {
		t.Errorf("reordered answer rejected: %s", d)
	}
	bad := slices.Clone(sets)
	bad[1].Support++
	if ok, d := ref.check(bad); ok || !strings.Contains(d, "support of") {
		t.Errorf("changed support accepted (diff %q)", d)
	}
	if ok, d := ref.check(sets[1:]); ok || !strings.Contains(d, "missing") {
		t.Errorf("answer with a missing itemset accepted (diff %q)", d)
	}
}
