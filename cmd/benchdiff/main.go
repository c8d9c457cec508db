// Command benchdiff compares fim-bench/v1 benchmark files cell by cell
// and gates CI on regressions. The first file is the baseline; every
// later file is diffed against it in order. A cell (dataset, algorithm,
// representation, schedule, threads) regresses when its best wall time grows past
// -tolerance (new/old ratio); itemset-count disagreement is always a
// hard error regardless of tolerance, because the miners are
// deterministic. Cells present in only one file are reported but never
// fail the gate, so a CI run over a dataset subset can diff against the
// full committed baseline.
//
// Usage:
//
//	benchdiff results/BENCH_bench.json new.json
//	benchdiff -tolerance 3 -history results/BENCH_history.jsonl baseline.json new.json
//	benchdiff -ignore-sched dynamic.json steal.json
//	benchdiff -ignore-layout flat.json tiled.json
//	benchdiff -ignore-rep tidset.json nodeset.json
//
// -ignore-sched strips the schedule from every cell before diffing, so
// a file measured under one schedule (fimbench -json ... -sched steal)
// compares cell-for-cell against a default-schedule baseline.
// -ignore-layout does the same for the tidset memory layout, so a tiled
// file (fimbench -json ... -layout tiled) compares cell-for-cell
// against a flat baseline.
// -ignore-rep strips the representation, so a file mined under one
// representation (fimbench -json ... -rep nodeset) compares
// cell-for-cell against a baseline of another — the exact-itemset
// check proving the representations mine identical sets.
//
// With -history, the newest file's cells are appended as one line of the
// append-only fim-bench-history/v1 JSONL log (written even when the gate
// fails, so regressions are part of the record).
//
// Exit status: 0 within tolerance, 1 wall-time regression, 2 usage or
// I/O error, 3 itemset-count mismatch.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs/export"
)

func main() {
	tol := flag.Float64("tolerance", 1.5, "max allowed new/old wall-time ratio per cell")
	historyPath := flag.String("history", "", "append the newest file's cells to this fim-bench-history/v1 JSONL log")
	label := flag.String("label", "", "label for the history entry (e.g. a git ref)")
	ignoreSched := flag.Bool("ignore-sched", false, "collapse schedule variants onto their base cells before diffing (e.g. steal file vs default baseline)")
	ignoreLayout := flag.Bool("ignore-layout", false, "collapse tidset-layout variants onto their base cells before diffing (e.g. -layout tiled file vs flat baseline)")
	ignoreRep := flag.Bool("ignore-rep", false, "collapse representations onto their (dataset, algorithm, threads) cells before diffing (e.g. -rep nodeset file vs tidset baseline)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tolerance R] [-history FILE] [-label S] [-ignore-sched] [-ignore-layout] [-ignore-rep] baseline.json new.json...")
		flag.PrintDefaults()
	}
	flag.Parse()

	if flag.NArg() < 2 {
		flag.Usage()
		os.Exit(2)
	}
	if *tol <= 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: -tolerance %v must be positive\n", *tol)
		os.Exit(2)
	}

	files := make([]*export.BenchFile, flag.NArg())
	for i, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		files[i], err = export.ReadBenchFile(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("benchdiff: %s: %w", path, err))
		}
		if *ignoreSched {
			export.StripSchedule(files[i])
		}
		if *ignoreLayout {
			export.StripLayout(files[i])
		}
		if *ignoreRep {
			export.StripRepresentation(files[i])
		}
	}

	exit := 0
	baseline := files[0]
	for i := 1; i < len(files); i++ {
		d, err := export.DiffBench(baseline, files[i])
		if err != nil {
			fatal(fmt.Errorf("benchdiff: %s vs %s: %w", flag.Arg(0), flag.Arg(i), err))
		}
		fmt.Printf("== %s vs %s (tolerance %.2fx) ==\n", flag.Arg(0), flag.Arg(i), *tol)
		export.FormatBenchDiff(os.Stdout, d, *tol)
		if mm := d.ItemsetMismatches(); len(mm) > 0 {
			for _, c := range mm {
				fmt.Fprintf(os.Stderr, "benchdiff: %s: itemset count changed %d -> %d (correctness regression)\n",
					c.Key, c.OldItemsets, c.NewItemsets)
			}
			exit = 3
		}
		if regs := d.Regressions(*tol); len(regs) > 0 && exit == 0 {
			for _, c := range regs {
				fmt.Fprintf(os.Stderr, "benchdiff: %s: wall time %.3fs -> %.3fs (%.2fx > %.2fx tolerance)\n",
					c.Key, c.OldWall, c.NewWall, c.WallRatio, *tol)
			}
			exit = 1
		}
	}

	if *historyPath != "" {
		newest := files[len(files)-1]
		e, err := export.NewHistoryEntry(newest, *label)
		if err != nil {
			fatal(fmt.Errorf("benchdiff: %w", err))
		}
		if err := export.AppendHistory(*historyPath, e); err != nil {
			fatal(fmt.Errorf("benchdiff: %w", err))
		}
		fmt.Printf("benchdiff: appended %d cell(s) to %s\n", len(e.Cells), *historyPath)
	}
	os.Exit(exit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
