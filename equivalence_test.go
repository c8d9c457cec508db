package fim

// The miner-level equivalence harness. Every vertical kind runs through
// both vertical miners across worker counts, Eclat flattening depths
// and loop schedules, and every cell must mine, after decoding, exactly
// FP-growth's itemsets and supports: FP-growth mines from its own tree
// and shares no combine kernel with the vertical kinds. Decoded views
// are compared because the nodeset kind mines under frequency order, so
// coded forms legitimately differ. Run under -race this also exercises
// the single-owner discipline of nodeset's deferred 2-itemset lists
// across stealing workers.

import (
	"fmt"
	"testing"

	"repro/internal/vertical"
)

// TestEveryKindMatchesFPGrowth: vertical.AllKinds() × {Apriori, Eclat}
// × workers {1, 4} × Eclat depth {0, 1, 2} × {default schedule, steal}.
func TestEveryKindMatchesFPGrowth(t *testing.T) {
	db := runctlDB(t)
	const support = 0.5
	ref, err := Mine(db, support, Options{Algorithm: FPGrowth})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Decoded()
	if len(want) < 100 {
		t.Fatalf("reference too small to exercise the miners: %d itemsets", len(want))
	}

	type cell struct {
		kind    Representation
		algo    Algorithm
		workers int
		depth   int
		steal   bool
	}
	var cells []cell
	for _, kind := range vertical.AllKinds() {
		for _, workers := range []int{1, 4} {
			for _, steal := range []bool{false, true} {
				cells = append(cells, cell{kind, Apriori, workers, 0, steal})
				for _, depth := range []int{0, 1, 2} {
					cells = append(cells, cell{kind, Eclat, workers, depth, steal})
				}
			}
		}
	}
	for _, c := range cells {
		opt := Options{
			Algorithm:      c.algo,
			Representation: c.kind,
			Workers:        c.workers,
			EclatDepth:     c.depth,
		}
		if c.steal {
			opt.SchedulePolicy, opt.SetSchedule = Steal, true
		}
		name := fmt.Sprintf("%v/%v/w%d/d%d/steal=%v", c.algo, c.kind, c.workers, c.depth, c.steal)
		res, err := Mine(db, support, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := res.Decoded()
		if len(got) != len(want) {
			t.Errorf("%s: %d itemsets, FP-growth %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if !got[i].Items.Equal(want[i].Items) || got[i].Support != want[i].Support {
				t.Errorf("%s: mismatch at %d: %v/%d, FP-growth %v/%d",
					name, i, got[i].Items, got[i].Support, want[i].Items, want[i].Support)
				break
			}
		}
	}
}
