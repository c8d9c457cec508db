package apriori

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/verify"
	"repro/internal/vertical"
)

const classic = `1 2 5
2 4
2 3
1 2 4
1 3
2 3
1 3
1 2 3 5
1 2 3
`

func classicRecoded(t *testing.T, minSup int) *dataset.Recoded {
	t.Helper()
	db, err := dataset.ReadFIMI("classic", strings.NewReader(classic))
	if err != nil {
		t.Fatal(err)
	}
	return db.Recode(minSup)
}

// The classic Han & Kamber example: minSup 2 yields these frequent sets.
func TestMineClassicExample(t *testing.T) {
	rec := classicRecoded(t, 2)
	res := mine(rec, 2, core.DefaultOptions(vertical.Tidset, 1))
	want := map[string]int{
		"{1}": 6, "{2}": 7, "{3}": 6, "{4}": 2, "{5}": 2,
		"{1, 2}": 4, "{1, 3}": 4, "{1, 5}": 2, "{2, 3}": 4, "{2, 4}": 2, "{2, 5}": 2,
		"{1, 2, 3}": 2, "{1, 2, 5}": 2,
	}
	got := res.Decoded()
	if len(got) != len(want) {
		t.Fatalf("found %d itemsets, want %d: %v", len(got), len(want), got)
	}
	for _, c := range got {
		if want[c.Items.String()] != c.Support {
			t.Errorf("%v support %d, want %d", c.Items, c.Support, want[c.Items.String()])
		}
	}
	if res.MaxK != 3 {
		t.Errorf("MaxK = %d, want 3", res.MaxK)
	}
}

func TestMineAllRepresentationsAgree(t *testing.T) {
	rec := classicRecoded(t, 2)
	ref := verify.Reference(rec, 2)
	for _, kind := range vertical.AllKinds() {
		res := mine(rec, 2, core.DefaultOptions(kind, 1))
		if !res.Equal(ref) {
			t.Errorf("%v disagrees with reference:\n%s", kind, verify.Diff(res, ref))
		}
	}
}

func TestMineParallelMatchesSerial(t *testing.T) {
	rec := classicRecoded(t, 2)
	serial := mine(rec, 2, core.DefaultOptions(vertical.Diffset, 1))
	for _, workers := range []int{2, 3, 8, 64} {
		for _, schedule := range []sched.Schedule{
			{Policy: sched.Static}, {Policy: sched.Dynamic, Chunk: 1}, {Policy: sched.Guided},
		} {
			opt := core.DefaultOptions(vertical.Diffset, workers)
			opt.Schedule, opt.HasSchedule = schedule, true
			res := mine(rec, 2, opt)
			if !res.Equal(serial) {
				t.Errorf("workers=%d %v disagrees with serial:\n%s", workers, schedule, verify.Diff(res, serial))
			}
		}
	}
}

func TestMineWithoutPruning(t *testing.T) {
	rec := classicRecoded(t, 2)
	opt := core.DefaultOptions(vertical.Tidset, 2)
	opt.Prune = false
	res := mine(rec, 2, opt)
	ref := verify.Reference(rec, 2)
	if !res.Equal(ref) {
		t.Errorf("unpruned Apriori wrong:\n%s", verify.Diff(res, ref))
	}
}

func TestMineEdgeCases(t *testing.T) {
	// Threshold above all supports: only the recode survives (nothing).
	db, _ := dataset.ReadFIMI("t", strings.NewReader("1 2\n1 2\n"))
	rec := db.Recode(3)
	res := mine(rec, 3, core.DefaultOptions(vertical.Tidset, 2))
	if res.Len() != 0 {
		t.Errorf("found %d itemsets above max support", res.Len())
	}
	// Single transaction, minSup 1: all subsets frequent.
	db2, _ := dataset.ReadFIMI("t", strings.NewReader("1 2 3\n"))
	rec2 := db2.Recode(1)
	res2 := mine(rec2, 1, core.DefaultOptions(vertical.Diffset, 1))
	if res2.Len() != 7 { // 2^3 - 1
		t.Errorf("single transaction: %d itemsets, want 7", res2.Len())
	}
	// Empty database.
	rec3 := (&dataset.DB{}).Recode(1)
	res3 := mine(rec3, 1, core.DefaultOptions(vertical.Bitvector, 4))
	if res3.Len() != 0 {
		t.Errorf("empty DB produced %d itemsets", res3.Len())
	}
	// minSup below 1 clamps.
	res4 := mine(rec2, 0, core.DefaultOptions(vertical.Tidset, 1))
	if res4.MinSup != 1 {
		t.Errorf("MinSup = %d", res4.MinSup)
	}
}

func TestCollectorRecordsPhases(t *testing.T) {
	rec := classicRecoded(t, 2)
	col := &perf.Collector{}
	opt := core.DefaultOptions(vertical.Tidset, 2)
	opt.Collector = col
	mine(rec, 2, opt)
	if len(col.Phases) < 3 { // roots + gen2 + gen3
		t.Fatalf("recorded %d phases", len(col.Phases))
	}
	gen2 := col.Phases[1]
	if gen2.Name != "apriori/gen2" || !gen2.Shared {
		t.Errorf("phase 1 = %q shared=%v", gen2.Name, gen2.Shared)
	}
	if gen2.TotalWork() == 0 || gen2.TotalRemote() == 0 {
		t.Error("gen2 recorded no work")
	}
	// Apriori phases are shared-parent: remote equals the combine reads,
	// so remote <= work.
	if gen2.TotalRemote() > gen2.TotalWork() {
		t.Error("remote exceeds work")
	}
}

func TestMemoryFootprintOrdering(t *testing.T) {
	// On dense data the diffset payloads of generations >= 2 must be
	// smaller than the tidset payloads (the paper's §V-A argument; the
	// level-1 diffsets are complements and can be large, so roots are
	// excluded as the paper's Figure 2 discussion implies).
	var sb strings.Builder
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		for it := 1; it <= 6; it++ {
			if r.Intn(10) > 0 { // each item present with probability 0.9
				sb.WriteString(" ")
				sb.WriteString([]string{"", "1", "2", "3", "4", "5", "6"}[it])
			}
		}
		sb.WriteString("\n")
	}
	db, err := dataset.ReadFIMI("dense", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Recode(db.AbsoluteSupport(0.5))
	colT, colD := &perf.Collector{}, &perf.Collector{}
	optT := core.DefaultOptions(vertical.Tidset, 1)
	optT.Collector = colT
	optD := core.DefaultOptions(vertical.Diffset, 1)
	optD.Collector = colD
	mine(rec, rec.MinSup, optT)
	mine(rec, rec.MinSup, optD)
	allocAfterRoots := func(c *perf.Collector) int64 {
		var b int64
		for _, p := range c.Phases[1:] {
			b += p.TotalAlloc()
		}
		return b
	}
	dAlloc, tAlloc := allocAfterRoots(colD), allocAfterRoots(colT)
	if dAlloc >= tAlloc {
		t.Errorf("diffset alloc %d not below tidset alloc %d on dense data", dAlloc, tAlloc)
	}
}

// Property: Apriori agrees with the exhaustive reference on random
// databases for every representation and several worker counts.
func TestQuickAgainstReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
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
		ref := verify.Reference(rec, minSup)
		kinds := vertical.AllKinds()
		kind := kinds[r.Intn(len(kinds))]
		workers := []int{1, 4}[r.Intn(2)]
		res := mine(rec, minSup, core.DefaultOptions(kind, workers))
		return res.Equal(ref)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("apriori vs reference: %v", err)
	}
}

func TestLazyMaterializeMatchesEager(t *testing.T) {
	rec := classicRecoded(t, 2)
	for _, kind := range vertical.AllKinds() {
		eager := mine(rec, 2, core.DefaultOptions(kind, 2))
		opt := core.DefaultOptions(kind, 2)
		opt.LazyMaterialize = true
		lazy := mine(rec, 2, opt)
		if !lazy.Equal(eager) {
			t.Errorf("%v: lazy disagrees with eager:\n%s", kind, verify.Diff(lazy, eager))
		}
	}
}

func TestLazyMaterializeReducesAllocation(t *testing.T) {
	// A workload with many infrequent candidates: lazy materialization
	// must allocate strictly less payload.
	var sb strings.Builder
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 80; i++ {
		for it := 1; it <= 10; it++ {
			if r.Intn(3) == 0 {
				sb.WriteString(" ")
				sb.WriteString([]string{"", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"}[it])
			}
		}
		sb.WriteString("\n")
	}
	db, err := dataset.ReadFIMI("sparse", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Recode(db.AbsoluteSupport(0.2))
	colE, colL := &perf.Collector{}, &perf.Collector{}
	optE := core.DefaultOptions(vertical.Tidset, 1)
	optE.Collector = colE
	optL := core.DefaultOptions(vertical.Tidset, 1)
	optL.Collector = colL
	optL.LazyMaterialize = true
	a := mine(rec, rec.MinSup, optE)
	b := mine(rec, rec.MinSup, optL)
	if !a.Equal(b) {
		t.Fatalf("results differ:\n%s", verify.Diff(a, b))
	}
	if colL.TotalAlloc() >= colE.TotalAlloc() {
		t.Errorf("lazy alloc %d not below eager %d", colL.TotalAlloc(), colE.TotalAlloc())
	}
}

// mine wraps Mine for the test call sites that expect an error-free
// run: no budget or cancellation is in play, so an error is a failure.
func mine(rec *dataset.Recoded, minSup int, opt core.Options) *core.Result {
	res, err := Mine(rec, minSup, opt)
	if err != nil {
		panic(err)
	}
	return res
}
