package dataset_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/datasets"
	"repro/internal/itemset"
)

var orders = []dataset.ItemOrder{dataset.ByCode, dataset.ByFrequency}

// recodeViaMap recodes db through the sparse-map path: a copy of db
// with item 4294967295 added to its first transaction has a code space
// far too sparse for the dense table. At minSup >= 2 that one
// occurrence is infrequent, so the result must equal the dense recode
// of db itself.
func recodeViaMap(db *dataset.DB, minSup int, order dataset.ItemOrder) *dataset.Recoded {
	huge := &dataset.DB{Name: db.Name, Transactions: slices.Clone(db.Transactions)}
	huge.Transactions[0] = append(huge.Transactions[0].Clone(), 4294967295)
	return huge.RecodeOrdered(minSup, order)
}

// sameRecode reports where dense and sparse recodes differ, or "".
func sameRecode(dense, sparse *dataset.Recoded) string {
	switch {
	case !slices.Equal(dense.Items, sparse.Items):
		return "items"
	case dense.MinSup != sparse.MinSup || dense.Universe != sparse.Universe:
		return "minsup or universe"
	case dense.DB.NumTransactions() != sparse.DB.NumTransactions():
		return "transaction count"
	}
	for i, tr := range dense.DB.Transactions {
		if !tr.Equal(sparse.DB.Transactions[i]) {
			return fmt.Sprintf("transaction %d", i)
		}
	}
	return ""
}

// TestQuickRecodeDenseMatchesMap: on random databases over small and
// wide item spaces, the dense-table recode and the sparse-map recode
// agree exactly — items, supports and every transaction — under both
// code orders.
func TestQuickRecodeDenseMatchesMap(t *testing.T) {
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		space := []int{12, 200, 1000}[r.Intn(3)]
		db := &dataset.DB{Name: "rand"}
		for n := 1 + r.Intn(60); n > 0; n-- {
			items := make([]itemset.Item, r.Intn(12))
			for j := range items {
				items[j] = itemset.Item(r.Intn(space))
			}
			db.Transactions = append(db.Transactions, itemset.New(items...))
		}
		minSup := 2 + r.Intn(5)
		for _, order := range orders {
			if diff := sameRecode(db.RecodeOrdered(minSup, order), recodeViaMap(db, minSup, order)); diff != "" {
				t.Logf("seed %d space %d minSup %d order %d: %s differs", seed, space, minSup, order, diff)
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRecodeDenseMatchesMapOnGenerated runs the same equivalence on
// every generated dataset, cut to about 2,000 rows, at its default
// support and at a quarter of it.
func TestRecodeDenseMatchesMapOnGenerated(t *testing.T) {
	for _, d := range datasets.All() {
		db := d.Build(min(1, 2000/float64(d.PaperTrans)))
		for _, rel := range []float64{d.DefaultSupport, d.DefaultSupport / 4} {
			minSup := max(2, db.AbsoluteSupport(rel))
			for _, order := range orders {
				if diff := sameRecode(db.RecodeOrdered(minSup, order), recodeViaMap(db, minSup, order)); diff != "" {
					t.Errorf("%s minSup %d order %d: %s differs", d.Name, minSup, order, diff)
				}
			}
		}
	}
}
