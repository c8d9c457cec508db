// Command fimbench regenerates every table and figure of the paper's
// evaluation, plus the DESIGN.md ablations, from the synthetic datasets
// and the simulated Blacklight machine.
//
// Usage:
//
//	fimbench -exp all
//	fimbench -exp table2+fig5 -scale 0.25
//	fimbench -exp eclat-tidset -threads 1,16,64,256
//	fimbench -json results/BENCH_bench.json -scale 0.4
//
// -json skips the simulator entirely: it times the standardized suite
// (chess and mushroom at their default supports, Apriori/Eclat over
// diffsets plus FP-growth, across -threads) on the host and writes the
// fim-bench/v1 result document, the format future commits diff against.
//
// Experiments: table1, table2+fig5 (apriori-diffset), table3+fig6
// (eclat-tidset), table6+fig7 (eclat-bitvector), table5+fig8
// (eclat-diffset), apriori-flat, sparse-limit, schedule-ablation,
// chunk-ablation, depth-ablation, baselines, ht-ablation,
// memory-footprint, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/vertical"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see doc comment)")
	csv := flag.Bool("csv", false, "emit scalability tables as plot-ready CSV")
	scale := flag.Float64("scale", experiments.DefaultScale, "dataset scale factor")
	threadsFlag := flag.String("threads", "", "comma-separated thread counts (default 1,16,32,64,128,256; 1,2,4 for -json)")
	jsonPath := flag.String("json", "", "run the standardized real-hardware bench suite and write fim-bench/v1 JSON to this file (e.g. results/BENCH_bench.json)")
	benchReps := flag.Int("reps", 1, "repetitions per -json bench cell")
	benchDatasetsFlag := flag.String("datasets", strings.Join(benchDatasets, ","), "comma-separated datasets for the -json suite")
	benchSched := flag.String("sched", "", "force every -json cell onto this loop schedule (static, dynamic, guided, steal); variant cells are dropped")
	benchLayout := flag.String("layout", "", "force every -json cell onto this tidset memory layout (tiled, flat); variant cells are dropped, configs without the layout are skipped")
	benchRep := flag.String("rep", "", "force every -json cell onto this representation (tidset, bitvector, diffset, tiled, nodeset); variant cells and FP-growth are dropped, each algorithm runs once")
	calibPath := flag.String("calibration", "", "kernel calibration JSON file (default: the FIM_CALIBRATION environment variable)")
	flag.Parse()

	if err := loadCalibration(*calibPath); err != nil {
		fmt.Fprintf(os.Stderr, "fimbench: %v\n", err)
		os.Exit(2)
	}

	cfg := experiments.Config{Scale: *scale}
	if *threadsFlag != "" {
		for _, f := range strings.Split(*threadsFlag, ",") {
			t, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || t < 1 {
				fmt.Fprintf(os.Stderr, "fimbench: bad thread count %q\n", f)
				os.Exit(2)
			}
			cfg.Threads = append(cfg.Threads, t)
		}
	}

	if *jsonPath != "" {
		var names []string
		for _, n := range strings.Split(*benchDatasetsFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if err := runBenchJSON(*jsonPath, names, cfg.Threads, *scale, *benchReps, *benchSched, *benchLayout, *benchRep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	printTable := func(t *experiments.Table) {
		if *csv {
			fmt.Print(t.CSV())
			return
		}
		fmt.Print(t.Format())
	}
	run := func(id string) bool {
		switch id {
		case "table1":
			fmt.Print(experiments.FormatTableI(experiments.TableI()))
		case "table2+fig5", "apriori-diffset":
			t := experiments.Scalability(core.Apriori, vertical.Diffset, cfg)
			t.ID, t.Title = "table2+fig5", "Running time and speedup for Apriori with Diffset"
			printTable(t)
		case "table3+fig6", "eclat-tidset":
			t := experiments.Scalability(core.Eclat, vertical.Tidset, cfg)
			t.ID, t.Title = "table3+fig6", "Running time and speedup for Eclat with Tidset"
			printTable(t)
		case "table6+fig7", "eclat-bitvector":
			t := experiments.Scalability(core.Eclat, vertical.Bitvector, cfg)
			t.ID, t.Title = "table6+fig7", "Running time and speedup for Eclat with Bitvector"
			printTable(t)
		case "table5+fig8", "eclat-diffset":
			t := experiments.Scalability(core.Eclat, vertical.Diffset, cfg)
			t.ID, t.Title = "table5+fig8", "Running time and speedup for Eclat with Diffset"
			printTable(t)
		case "apriori-flat":
			for _, t := range experiments.AprioriFlat(cfg) {
				printTable(t)
				fmt.Println()
			}
		case "sparse-limit":
			fmt.Print(experiments.FormatSparse(experiments.SparseLimit(cfg)))
		case "schedule-ablation":
			fmt.Print(experiments.FormatSchedule(experiments.ScheduleAblation(cfg)))
		case "chunk-ablation":
			fmt.Print(experiments.FormatChunk(experiments.ChunkAblation(cfg)))
		case "depth-ablation":
			fmt.Print(experiments.FormatDepth(experiments.DepthAblation(cfg)))
		case "baselines":
			fmt.Print(experiments.FormatBaselines(experiments.Baselines(cfg)))
		case "ht-ablation":
			fmt.Print(experiments.FormatHT(experiments.HTAblation(cfg)))
		case "order-ablation":
			fmt.Print(experiments.FormatOrder(experiments.OrderAblation(cfg)))
		case "lazy-ablation":
			fmt.Print(experiments.FormatLazy(experiments.LazyAblation(cfg)))
		case "memory-footprint":
			fmt.Print(experiments.FormatFootprint(experiments.MemoryFootprint(cfg)))
		default:
			return false
		}
		return true
	}

	if *exp == "all" {
		for _, id := range []string{
			"table1", "table2+fig5", "apriori-flat", "table3+fig6",
			"table6+fig7", "table5+fig8", "sparse-limit",
			"schedule-ablation", "chunk-ablation", "depth-ablation", "baselines",
			"ht-ablation", "order-ablation", "lazy-ablation", "memory-footprint",
		} {
			run(id)
			fmt.Println()
		}
		return
	}
	if !run(*exp) {
		fmt.Fprintf(os.Stderr, "fimbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
