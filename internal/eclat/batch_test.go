// Batched vs pairwise equivalence: the miner extends every class as
// prefix blocks through CombineManyInto, and must emit exactly the
// itemsets and supports of a pairwise miner that combines one pair at
// a time, for every representation, decomposition depth and schedule.
// The pairwise miner lives here in test code: a serial depth-first
// Eclat over vertical.Combine, the batch-of-one helper.
package eclat

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

// pairwiseMine mines rec serially, one exact pair combine per
// candidate, keeping every child that reaches minSup.
func pairwiseMine(rec *dataset.Recoded, minSup int, kind vertical.Kind) *core.Result {
	rep := vertical.New(kind)
	res := &core.Result{MinSup: minSup, Rec: rec}
	var extend func(prefix itemset.Itemset, items []itemset.Item, nodes []vertical.Node)
	extend = func(prefix itemset.Itemset, items []itemset.Item, nodes []vertical.Node) {
		for i, px := range nodes {
			cand := prefix.Extend(items[i])
			res.Counts = append(res.Counts, core.ItemsetCount{Items: cand, Support: px.Support()})
			res.MaxK = max(res.MaxK, len(cand))
			var subItems []itemset.Item
			var sub []vertical.Node
			for j := i + 1; j < len(nodes); j++ {
				if c := vertical.Combine(rep, nil, px, nodes[j], 0); c.Support() >= minSup {
					subItems, sub = append(subItems, items[j]), append(sub, c)
				}
			}
			extend(cand, subItems, sub)
		}
	}
	roots := rep.Roots(rec)
	items := make([]itemset.Item, len(roots))
	for i := range items {
		items[i] = itemset.Item(i)
	}
	extend(itemset.New(), items, roots)
	return res
}

func TestBatchMatchesPairwise(t *testing.T) {
	rec := classicRecoded(t, 2)
	for _, kind := range vertical.AllKinds() {
		want := pairwiseMine(rec, 2, kind)
		if ref := verify.Reference(rec, 2); !want.Equal(ref) {
			t.Fatalf("%v: pairwise miner disagrees with reference:\n%s", kind, verify.Diff(want, ref))
		}
		for _, depth := range []int{1, 2, 3, 0} {
			for _, workers := range []int{1, 4} {
				opt := core.DefaultOptions(kind, workers)
				opt.EclatDepth = depth
				if got := mine(rec, 2, opt); !got.Equal(want) {
					t.Errorf("%v depth=%d workers=%d: batch != pairwise:\n%s",
						kind, depth, workers, verify.Diff(got, want))
				}
			}
		}
	}
}

func TestBatchMatchesPairwiseSteal(t *testing.T) {
	// Force aggressive subtree spawning so batched combines run on
	// stolen subtrees (thief-owned arenas) too.
	old := stealSpawnWork
	stealSpawnWork = 1
	defer func() { stealSpawnWork = old }()
	rec := classicRecoded(t, 2)
	for _, kind := range vertical.AllKinds() {
		want := pairwiseMine(rec, 2, kind)
		if got := mine(rec, 2, stealOptions(kind, 4)); !got.Equal(want) {
			t.Errorf("%v steal: batch != pairwise:\n%s", kind, verify.Diff(got, want))
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
		opt.EclatDepth = 1 + r.Intn(4)
		return mine(rec, minSup, opt).Equal(pairwiseMine(rec, minSup, kind))
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("batch vs pairwise: %v", err)
	}
}
