// Batched vs pairwise equivalence for Apriori's counting loop: the
// prefix-blocked path must produce exactly the frequent itemsets and
// supports of a pairwise miner that combines one pair at a time, with
// and without pruning, across representations and worker counts. The
// pairwise miner lives here in test code: a serial level-wise Apriori
// over vertical.Combine, the batch-of-one helper.
package apriori

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/verify"
	"repro/internal/vertical"
)

// pairwiseMine mines rec serially, level by level: each k+1 candidate
// joins two frequent k-itemsets sharing their k−1 prefix by one exact
// pair combine, and survives if it reaches minSup.
func pairwiseMine(rec *dataset.Recoded, minSup int, kind vertical.Kind) *core.Result {
	type entry struct {
		items itemset.Itemset
		node  vertical.Node
	}
	rep := vertical.New(kind)
	res := &core.Result{MinSup: minSup, Rec: rec}
	var level []entry
	for i, n := range rep.Roots(rec) {
		level = append(level, entry{itemset.New(itemset.Item(i)), n})
	}
	for len(level) > 0 {
		var next []entry
		for i, x := range level {
			res.Counts = append(res.Counts, core.ItemsetCount{Items: x.items, Support: x.node.Support()})
			res.MaxK = max(res.MaxK, len(x.items))
			for _, y := range level[i+1:] {
				k := len(x.items)
				if !x.items[:k-1].Equal(y.items[:k-1]) {
					break // level is in lexicographic order: the prefix block ended
				}
				if c := vertical.Combine(rep, nil, x.node, y.node, 0); c.Support() >= minSup {
					next = append(next, entry{x.items.Extend(y.items[k-1]), c})
				}
			}
		}
		level = next
	}
	return res
}

func TestBatchMatchesPairwise(t *testing.T) {
	rec := classicRecoded(t, 2)
	for _, kind := range vertical.AllKinds() {
		want := pairwiseMine(rec, 2, kind)
		if ref := verify.Reference(rec, 2); !want.Equal(ref) {
			t.Fatalf("%v: pairwise miner disagrees with reference:\n%s", kind, verify.Diff(want, ref))
		}
		for _, workers := range []int{1, 4} {
			for _, prune := range []bool{true, false} {
				opt := core.DefaultOptions(kind, workers)
				opt.Prune = prune
				if got := mine(rec, 2, opt); !got.Equal(want) {
					t.Errorf("%v workers=%d prune=%v: batch != pairwise:\n%s",
						kind, workers, prune, verify.Diff(got, want))
				}
			}
		}
	}
}

func TestQuickBatchMatchesPairwise(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := &dataset.DB{Name: "rand"}
		nTrans := 5 + r.Intn(40)
		nItems := 3 + r.Intn(7)
		for i := 0; i < nTrans; i++ {
			var items []itemset.Item
			for it := 0; it < nItems; it++ {
				if r.Intn(3) > 0 {
					items = append(items, itemset.Item(it))
				}
			}
			if len(items) == 0 {
				items = append(items, 0)
			}
			db.Transactions = append(db.Transactions, itemset.New(items...))
		}
		minSup := 1 + r.Intn(nTrans/2+1)
		rec := db.Recode(minSup)
		kinds := vertical.AllKinds()
		kind := kinds[r.Intn(len(kinds))]
		opt := core.DefaultOptions(kind, []int{1, 4}[r.Intn(2)])
		return mine(rec, minSup, opt).Equal(pairwiseMine(rec, minSup, kind))
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("batch vs pairwise: %v", err)
	}
}
