package fim

// Re-entrancy under concurrency: many MineContext calls in flight at
// once — mixed algorithms and representations, some cancelled, some
// budget-stopped, some sharing a memory pool — must not corrupt each
// other. Every completed run's itemsets must match its serial ground
// truth exactly, and every stopped run must return a classified,
// well-formed partial result. Run with -race.

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestMineContextConcurrentReentrant runs a mixed fleet of concurrent
// mining runs against per-run serial baselines.
func TestMineContextConcurrentReentrant(t *testing.T) {
	db, err := Dataset("chess", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	mush, err := Dataset("mushroom", 0.2)
	if err != nil {
		t.Fatal(err)
	}

	type job struct {
		name string
		db   *DB
		rel  float64
		opt  Options
		// mode: "complete" runs to the end; "cancel" is cancelled
		// mid-run; "budget" is stopped by a tiny itemsets budget.
		mode string
	}
	jobs := []job{
		{"eclat-tidset", db, 0.6, Options{Algorithm: Eclat, Representation: Tidset, Workers: 2}, "complete"},
		{"eclat-diffset", db, 0.62, Options{Algorithm: Eclat, Representation: Diffset, Workers: 3}, "complete"},
		{"eclat-tiled", mush, 0.3, Options{Algorithm: Eclat, Representation: Tiled, Workers: 2}, "complete"},
		{"apriori-bitvector", db, 0.64, Options{Algorithm: Apriori, Representation: Bitvector, Workers: 2}, "complete"},
		{"apriori-tidset", mush, 0.35, Options{Algorithm: Apriori, Representation: Tidset, Workers: 2}, "complete"},
		{"fpgrowth", db, 0.66, Options{Algorithm: FPGrowth, Workers: 2}, "complete"},
		{"eclat-cancelled", db, 0.55, Options{Algorithm: Eclat, Representation: Tidset, Workers: 2}, "cancel"},
		{"apriori-budget", db, 0.6, Options{Algorithm: Apriori, Representation: Tidset, Workers: 2, MaxItemsets: 50}, "budget"},
		{"eclat-budget", mush, 0.3, Options{Algorithm: Eclat, Representation: Diffset, Workers: 2, MaxItemsets: 80}, "budget"},
	}

	// Serial ground truth: full results for the completing runs, and
	// decoded support maps for checking budget-stopped partials.
	serial := make(map[string]*Result)
	truthKeys := make(map[string]map[string]int)
	for _, j := range jobs {
		if j.mode == "cancel" {
			continue
		}
		opt := Options{Algorithm: j.opt.Algorithm, Representation: j.opt.Representation}
		res, err := Mine(j.db, j.rel, opt)
		if err != nil {
			t.Fatalf("%s serial baseline: %v", j.name, err)
		}
		serial[j.name] = res
		byKey := make(map[string]int, res.Len())
		for _, c := range res.Decoded() {
			byKey[c.Items.Key()] = c.Support
		}
		truthKeys[j.name] = byKey
	}

	// A shared pool spanning some of the fleet, generous enough never to
	// stop anyone — concurrent charge/refund traffic is what it adds.
	pool := NewSharedPool(2 << 30)

	const rounds = 3
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, j := range jobs {
			wg.Add(1)
			go func(j job, shared bool) {
				defer wg.Done()
				opt := j.opt
				if shared {
					opt.SharedPool = pool
				}
				ctx := context.Background()
				var cancel context.CancelFunc
				switch j.mode {
				case "cancel":
					ctx, cancel = context.WithTimeout(ctx, 3*time.Millisecond)
					defer cancel()
				}
				res, err := MineContext(ctx, j.db, j.rel, opt)
				switch j.mode {
				case "complete":
					if err != nil {
						t.Errorf("%s: %v", j.name, err)
						return
					}
					if !res.Equal(serial[j.name]) {
						t.Errorf("%s: concurrent run diverged from serial baseline (%d vs %d itemsets)",
							j.name, res.Len(), serial[j.name].Len())
					}
				case "cancel":
					// The run either finished before the deadline (tiny
					// machines) or stopped with a classified reason and a
					// well-formed partial result.
					if err != nil {
						if got := StopReason(err); got != "deadline" && got != "canceled" {
							t.Errorf("%s: stop reason %q, err %v", j.name, got, err)
						}
						if res == nil || !res.Incomplete {
							t.Errorf("%s: cancelled run without well-formed partial result", j.name)
						}
					}
				case "budget":
					if got := StopReason(err); got != "budget:itemsets" {
						t.Errorf("%s: stop reason %q, want budget:itemsets (err %v)", j.name, got, err)
						return
					}
					if res == nil || !res.Incomplete {
						t.Errorf("%s: budget-stopped run without partial result", j.name)
						return
					}
					// Partial results carry exact supports: every reported
					// itemset must agree with the serial world.
					byKey := truthKeys[j.name]
					for _, c := range res.Decoded() {
						if s, ok := byKey[c.Items.Key()]; !ok || s != c.Support {
							t.Errorf("%s: partial itemset %v support %d disagrees with truth %d",
								j.name, c.Items, c.Support, s)
							break
						}
					}
				}
			}(j, i%2 == 0)
		}
	}
	wg.Wait()

	// Every pooled run refunded its bytes on the way out.
	if used := pool.Used(); used != 0 {
		t.Fatalf("shared pool holds %d bytes after all runs closed", used)
	}
}
