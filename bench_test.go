// Benchmarks regenerating every table and figure of the paper, one
// Benchmark* per artifact (see DESIGN.md §4 for the experiment index).
// Each benchmark mines the synthetic dataset with the table's
// algorithm/representation and reports, alongside Go's usual ns/op, the
// simulated 256-thread speedup on the Blacklight machine model — the
// figure's headline number — as the custom metric "simSpeedup256".
//
// Dataset scales are reduced relative to cmd/fimbench so the whole suite
// runs in minutes; fimbench remains the reference generator for the
// full-size tables in EXPERIMENTS.md.
package fim

import (
	"testing"

	"repro/internal/apriori"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/horizontal"
	"repro/internal/ptrie"
	"repro/internal/sched"
)

// benchScale shrinks each dataset's experiment scale for benchmarking.
const benchScale = 0.4

var benchThreads = []int{1, 16, 32, 64, 128, 256}

// mineBench runs one instrumented mining configuration b.N times and
// reports the simulated speedup at 256 threads.
func mineBench(b *testing.B, d datasets.Def, algo Algorithm, rep Representation) {
	b.Helper()
	db := d.Build(d.ExperimentScale * benchScale)
	support := d.DefaultSupport
	cfg := Blacklight()
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace := &Trace{}
		_, err := Mine(db, support, Options{
			Algorithm:      algo,
			Representation: rep,
			Workers:        1,
			Trace:          trace,
		})
		if err != nil {
			b.Fatal(err)
		}
		sp := SimulateSpeedup(trace, benchThreads, cfg)
		speedup = sp[len(sp)-1]
	}
	b.ReportMetric(speedup, "simSpeedup256")
}

func benchAllDatasets(b *testing.B, algo Algorithm, rep Representation) {
	b.Helper()
	for _, d := range datasets.Dense() {
		b.Run(d.Name, func(b *testing.B) { mineBench(b, d, algo, rep) })
	}
}

// BenchmarkTableI regenerates the dataset summary (paper Table I):
// full-scale generation plus the statistics pass.
func BenchmarkTableI(b *testing.B) {
	for _, d := range datasets.Dense() {
		b.Run(d.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := d.Build(1).ComputeStats()
				if st.NumTransactions == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// BenchmarkTable2Fig5_AprioriDiffset regenerates Table II / Figure 5.
func BenchmarkTable2Fig5_AprioriDiffset(b *testing.B) {
	benchAllDatasets(b, Apriori, Diffset)
}

// BenchmarkAprioriTidset regenerates the §V-A negative result for
// tidsets (no table in the paper: "due to limited space, we do not
// report them").
func BenchmarkAprioriTidset(b *testing.B) {
	benchAllDatasets(b, Apriori, Tidset)
}

// BenchmarkAprioriBitvector regenerates the §V-A negative result for
// bitvectors.
func BenchmarkAprioriBitvector(b *testing.B) {
	benchAllDatasets(b, Apriori, Bitvector)
}

// BenchmarkTable3Fig6_EclatTidset regenerates Table III / Figure 6.
func BenchmarkTable3Fig6_EclatTidset(b *testing.B) {
	benchAllDatasets(b, Eclat, Tidset)
}

// BenchmarkTable6Fig7_EclatBitvector regenerates Table VI / Figure 7.
func BenchmarkTable6Fig7_EclatBitvector(b *testing.B) {
	benchAllDatasets(b, Eclat, Bitvector)
}

// BenchmarkTable5Fig8_EclatDiffset regenerates Table V / Figure 8.
func BenchmarkTable5Fig8_EclatDiffset(b *testing.B) {
	benchAllDatasets(b, Eclat, Diffset)
}

// BenchmarkSparseLimit regenerates experiment E6: the sparse datasets
// whose frequent-item count caps scalability (§V's reason for omitting
// T40I10D100K and accidents).
func BenchmarkSparseLimit(b *testing.B) {
	for _, d := range datasets.All() {
		if d.Dense {
			continue
		}
		b.Run(d.Name, func(b *testing.B) { mineBench(b, d, Eclat, Diffset) })
	}
}

// BenchmarkScheduleAblation regenerates ablation A1: the three OpenMP
// loop schedules under Eclat/diffset on chess, with the simulated
// 256-thread time as the metric of interest.
func BenchmarkScheduleAblation(b *testing.B) {
	d, err := datasets.Get("chess")
	if err != nil {
		b.Fatal(err)
	}
	db := d.Build(d.ExperimentScale * benchScale)
	cfg := Blacklight()
	for _, pol := range []SchedulePolicy{Static, Dynamic, Guided} {
		b.Run(pol.String(), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				trace := &Trace{}
				_, err := Mine(db, d.DefaultSupport, Options{
					Algorithm:      Eclat,
					Representation: Diffset,
					Workers:        1,
					SchedulePolicy: pol,
					ScheduleChunk:  1,
					SetSchedule:    true,
					Trace:          trace,
				})
				if err != nil {
					b.Fatal(err)
				}
				sim = Simulate(trace, 256, cfg)
			}
			b.ReportMetric(sim*1e6, "simMicrosec256")
		})
	}
}

// BenchmarkChunkAblation regenerates ablation A3: Eclat's dynamic
// chunk-size sensitivity ("we choose the chunksize to as small as
// possible").
func BenchmarkChunkAblation(b *testing.B) {
	d, err := datasets.Get("chess")
	if err != nil {
		b.Fatal(err)
	}
	db := d.Build(d.ExperimentScale * benchScale)
	cfg := Blacklight()
	for _, chunk := range []int{1, 4, 16} {
		b.Run(sched.Schedule{Policy: sched.Dynamic, Chunk: chunk}.String(), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				trace := &Trace{}
				_, err := Mine(db, d.DefaultSupport, Options{
					Algorithm:      Eclat,
					Representation: Diffset,
					Workers:        1,
					SchedulePolicy: Dynamic,
					ScheduleChunk:  chunk,
					SetSchedule:    true,
					Trace:          trace,
				})
				if err != nil {
					b.Fatal(err)
				}
				sim = Simulate(trace, 256, cfg)
			}
			b.ReportMetric(sim*1e6, "simMicrosec256")
		})
	}
}

// BenchmarkMemoryFootprint regenerates ablation A2: per-representation
// allocation volume under Apriori (run with -benchmem; the allocated
// bytes are the paper's §V-A footprint argument).
func BenchmarkMemoryFootprint(b *testing.B) {
	d, err := datasets.Get("mushroom")
	if err != nil {
		b.Fatal(err)
	}
	db := d.Build(d.ExperimentScale * benchScale)
	for _, rep := range []Representation{Tidset, Bitvector, Diffset} {
		b.Run(rep.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Mine(db, d.DefaultSupport, Options{
					Algorithm:      Apriori,
					Representation: rep,
					Workers:        1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealParallelEclat measures real (not simulated) wall-clock of
// the goroutine-parallel Eclat at several worker counts on this host —
// the library's practical mining path.
func BenchmarkRealParallelEclat(b *testing.B) {
	d, err := datasets.Get("chess")
	if err != nil {
		b.Fatal(err)
	}
	db := d.Build(benchScale)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("w"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Mine(db, d.DefaultSupport, DefaultOptions(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRules measures association-rule generation over a mined
// result.
func BenchmarkRules(b *testing.B) {
	d, _ := datasets.Get("chess")
	db := d.Build(benchScale)
	res, err := Mine(db, d.DefaultSupport, DefaultOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rules(res, 0.8)
	}
}

// BenchmarkFPGrowthBaseline measures the survey baseline on chess.
func BenchmarkFPGrowthBaseline(b *testing.B) {
	d, _ := datasets.Get("chess")
	db := d.Build(benchScale)
	for i := 0; i < b.N; i++ {
		if _, err := Mine(db, d.DefaultSupport, Options{Algorithm: FPGrowth}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkBaselines regenerates ablation A5/A6: horizontal-scan and
// pointer-trie Apriori against the vertical miners, on a reduced chess.
func BenchmarkBaselines(b *testing.B) {
	d, _ := datasets.Get("chess")
	db := d.Build(0.1)
	rec := db.Recode(db.AbsoluteSupport(d.DefaultSupport))
	b.Run("vertical-diffset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apriori.Mine(rec, rec.MinSup, core.DefaultOptions(Diffset, 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("horizontal-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			horizontal.Mine(rec, rec.MinSup, 1, horizontal.Partial, nil)
		}
	})
	b.Run("pointer-trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ptrie.Mine(rec, rec.MinSup, 1)
		}
	})
}
