package main

import (
	"fmt"
	"time"

	fim "repro"
	"repro/internal/vertical"
)

// kindsProbe mines one table with every algorithm over every vertical
// kind at nproc workers, reps times per cell, and returns the cells
// that produced a wrong answer or an error in any run, each with its
// failure count.
func kindsProbe(tb *table, nproc, reps int) []string {
	var wrong []string
	for _, algo := range []fim.Algorithm{fim.Apriori, fim.Eclat, fim.FPGrowth} {
		for _, kind := range vertical.AllKinds() {
			opt := fim.Options{Algorithm: algo, Representation: kind, Workers: nproc}
			bad := 0
			first := ""
			for r := 0; r < reps; r++ {
				sets, err := libraryOp(tb.name, tb.text, tb.abs, opt)
				if msg := verdict(err, tb.ref, sets); msg != "" {
					bad++
					if first == "" {
						first = msg
					}
				}
			}
			if bad > 0 {
				wrong = append(wrong, fmt.Sprintf("%s/%s wrong in %d of %d runs (first: %s)", algo, kind, bad, reps, first))
			}
		}
	}
	return wrong
}

// scalingProbe mines each table with the default configuration at one
// worker and at nproc workers, reps times each, and returns the
// measured speedup (summed median mine times at 1 worker over those at
// nproc) beside the speedup internal/machine predicts for a traced
// nproc-worker run of the same tables replayed at 1 and nproc threads.
func scalingProbe(tables []*table, nproc, reps int) (measured, model float64, err error) {
	teams := []int{1}
	if nproc > 1 {
		teams = append(teams, nproc)
	}
	mineMS := make(map[int]float64)
	var sim1, simN float64
	for _, tb := range tables {
		db, err := parseTable(tb.name, tb.text)
		if err != nil {
			return 0, 0, err
		}
		for _, workers := range teams {
			var times []float64
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				res, err := fim.MineAbsolute(db, tb.abs, fim.DefaultOptions(workers))
				times = append(times, ms(time.Since(t0)))
				if err != nil {
					return 0, 0, err
				}
				if ok, d := tb.ref.check(res.Decoded()); !ok {
					return 0, 0, fmt.Errorf("scaling probe on %s at %d workers: %s", tb.name, workers, d)
				}
			}
			mineMS[workers] += median(times)
		}
		// One more run at nproc records the trace the model replays.
		opt := fim.DefaultOptions(nproc)
		opt.Trace = &fim.Trace{}
		if _, err := fim.MineAbsolute(db, tb.abs, opt); err != nil {
			return 0, 0, err
		}
		sim1 += fim.Simulate(opt.Trace, 1, fim.Blacklight())
		simN += fim.Simulate(opt.Trace, nproc, fim.Blacklight())
	}
	return ratio(mineMS[1], mineMS[nproc]), ratio(sim1, simN), nil
}
