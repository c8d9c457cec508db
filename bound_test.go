package fim

// Miner-level equivalence at the support boundary. The tidset and
// diffset combines stop building a child once it cannot reach minsup,
// so an off-by-one in either bound would surface exactly at itemsets
// whose support is minSup−1, minSup or minSup+1. This harness picks
// the support value the most itemsets share and mines at that value
// and its two neighbours, so many combines land on each edge, across
// both bounded kinds, both vertical miners, batched and pairwise
// combines, flattening depths and worker counts.

import (
	"testing"

	"repro/internal/apriori"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/eclat"
	"repro/internal/fpgrowth"
	"repro/internal/kcount"
	"repro/internal/verify"
	"repro/internal/vertical"
)

// TestBoundedMinersAtSupportBoundary: every (algorithm, kind, depth,
// workers, batch) cell mines itemsets and supports identical to
// FP-growth, which has no vertical combines, at minSup ∈ {s−1, s, s+1}
// for the most common multi-item support s.
func TestBoundedMinersAtSupportBoundary(t *testing.T) {
	db := datasets.Chess(0.03)
	floor := db.AbsoluteSupport(0.45)
	probe := must(fpgrowth.Mine(db.Recode(floor), floor, core.DefaultOptions(vertical.Tidset, 1)))
	hist := map[int]int{}
	for _, c := range probe.Counts {
		if len(c.Items) > 1 && c.Support > floor+1 {
			hist[c.Support]++
		}
	}
	s := 0
	for sup, n := range hist {
		if n > hist[s] || (n == hist[s] && sup < s) {
			s = sup
		}
	}
	if hist[s] < 20 {
		t.Fatalf("boundary support %d is shared by only %d itemsets", s, hist[s])
	}

	type cell struct {
		algo    core.Algorithm
		kind    vertical.Kind
		depth   int
		workers int
		batch   bool
	}
	var cells []cell
	for _, kind := range []vertical.Kind{vertical.Diffset, vertical.Tidset} {
		for _, workers := range []int{1, 2} {
			for _, batch := range []bool{true, false} {
				cells = append(cells, cell{core.Apriori, kind, 0, workers, batch})
				for _, depth := range []int{1, 2, 4} {
					cells = append(cells, cell{core.Eclat, kind, depth, workers, batch})
				}
			}
		}
	}

	t.Logf("boundary support %d shared by %d itemsets of %d", s, hist[s], len(probe.Counts))
	tok := kcount.BeginRun()
	for _, minSup := range []int{s - 1, s, s + 1} {
		rec := db.Recode(minSup)
		ref := must(fpgrowth.Mine(rec, minSup, core.DefaultOptions(vertical.Tidset, 2)))
		for _, c := range cells {
			opt := core.DefaultOptions(c.kind, c.workers)
			opt.Batch = c.batch
			opt.EclatDepth = c.depth
			var res *core.Result
			if c.algo == core.Apriori {
				res = must(apriori.Mine(rec, minSup, opt))
			} else {
				res = must(eclat.Mine(rec, minSup, opt))
			}
			if !res.Equal(ref) {
				t.Errorf("minSup %d %+v disagrees with FP-growth:\n%s", minSup, c, verify.Diff(res, ref))
			}
		}
	}
	// The harness proves nothing if no combine was cut short.
	if delta, exclusive := tok.End(); exclusive && delta.CombinesAborted == 0 {
		t.Fatal("no combine was aborted: the bound never fired")
	}
}
