package vertical

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/itemset"
)

// paperDB is the 6-item example of the paper's Figure 2 discussion:
// items A..F mapped to 1..6. With threshold 3 only A, C, E are frequent
// (supports 4, 5, 4), and d(AC) = {3}, support(AC) = 3.
const paperExample = `1 3 4 5
1 2 3 5
3 5
1 3 4
1 2 3 5
2 3 5
1 2 5 6
`

// Note: the paper's figures are not fully reproduced in the available
// text; this database is constructed so that the documented identities
// (diffset subtraction, support arithmetic) are exercised on paper-scale
// data. The identities themselves are checked for all representations.

func exampleRecoded(t *testing.T, minSup int) *dataset.Recoded {
	t.Helper()
	db, err := dataset.ReadFIMI("paper", strings.NewReader(paperExample))
	if err != nil {
		t.Fatal(err)
	}
	return db.Recode(minSup)
}

func TestKindString(t *testing.T) {
	if Tidset.String() != "tidset" || Bitvector.String() != "bitvector" || Diffset.String() != "diffset" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind string")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("horizontal"); err == nil {
		t.Error("ParseKind accepted unknown name")
	}
}

func TestRootsSupportsAgree(t *testing.T) {
	rec := exampleRecoded(t, 3)
	for _, kind := range Kinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		if len(roots) != len(rec.Items) {
			t.Fatalf("%v: %d roots, want %d", kind, len(roots), len(rec.Items))
		}
		for i, n := range roots {
			if n.Support() != rec.Items[i].Support {
				t.Errorf("%v root %d support = %d, want %d", kind, i, n.Support(), rec.Items[i].Support)
			}
		}
	}
}

// TestCombineAgreesAcrossRepresentations: every pair and triple combined
// under each representation must report the same support — and that
// support must equal a direct horizontal count.
func TestCombineAgreesAcrossRepresentations(t *testing.T) {
	rec := exampleRecoded(t, 1)
	n := len(rec.Items)
	horizontalSupport := func(s itemset.Itemset) int {
		c := 0
		for _, tr := range rec.DB.Transactions {
			if s.IsSubsetOf(tr) {
				c++
			}
		}
		return c
	}
	for _, kind := range Kinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pair := Combine(rep, nil, roots[i], roots[j], 0)
				want := horizontalSupport(itemset.New(itemset.Item(i), itemset.Item(j)))
				if pair.Support() != want {
					t.Errorf("%v support({%d,%d}) = %d, want %d", kind, i, j, pair.Support(), want)
				}
				for k := j + 1; k < n; k++ {
					pik := Combine(rep, nil, roots[i], roots[k], 0)
					triple := Combine(rep, nil, pair, pik, 0)
					want := horizontalSupport(itemset.New(itemset.Item(i), itemset.Item(j), itemset.Item(k)))
					if triple.Support() != want {
						t.Errorf("%v support({%d,%d,%d}) = %d, want %d", kind, i, j, k, triple.Support(), want)
					}
				}
			}
		}
	}
}

func TestDiffsetPaperIdentities(t *testing.T) {
	rec := exampleRecoded(t, 1)
	rep := New(Diffset)
	tidRep := New(Tidset)
	droots := rep.Roots(rec)
	troots := tidRep.Roots(rec)
	nTrans := rec.DB.NumTransactions()
	// d(x) is the complement of t(x).
	for i := range droots {
		d := droots[i].(*DiffsetNode)
		tt := troots[i].(*TidsetNode)
		if !d.Diff.Equal(tt.TIDs.Complement(nTrans)) {
			t.Errorf("item %d: diffset != complement of tidset", i)
		}
		if d.Support() != nTrans-len(d.Diff) {
			t.Errorf("item %d: support identity broken", i)
		}
	}
	// After one combine: d(XY) = t(X) − t(Y) (duality), and the support
	// matches the tidset intersection.
	for i := 0; i < len(droots); i++ {
		for j := i + 1; j < len(droots); j++ {
			dxy := Combine(rep, nil, droots[i], droots[j], 0).(*DiffsetNode)
			tx := troots[i].(*TidsetNode).TIDs
			ty := troots[j].(*TidsetNode).TIDs
			if !dxy.Diff.Equal(tx.Diff(ty)) {
				t.Errorf("d(%d,%d) != t(%d)−t(%d)", i, j, i, j)
			}
			if dxy.Support() != tx.IntersectSize(ty) {
				t.Errorf("support(%d,%d) = %d, want %d", i, j, dxy.Support(), tx.IntersectSize(ty))
			}
		}
	}
}

// TestDiffsetShrinks: on dense data, diffsets after the first combine are
// no larger than the prefix tidset — the paper's memory argument.
func TestDiffsetFootprintSmallerOnDenseData(t *testing.T) {
	rec := exampleRecoded(t, 3)
	dRoots := New(Diffset).Roots(rec)
	tRoots := New(Tidset).Roots(rec)
	var dBytes, tBytes int
	for i := range dRoots {
		for j := i + 1; j < len(dRoots); j++ {
			dBytes += Combine(New(Diffset), nil, dRoots[i], dRoots[j], 0).Bytes()
			tBytes += Combine(New(Tidset), nil, tRoots[i], tRoots[j], 0).Bytes()
		}
	}
	if dBytes >= tBytes {
		t.Errorf("2-itemset diffsets (%dB) not smaller than tidsets (%dB) on dense data", dBytes, tBytes)
	}
}

func TestBytesAccounting(t *testing.T) {
	rec := exampleRecoded(t, 1)
	tn := New(Tidset).Roots(rec)[0].(*TidsetNode)
	if tn.Bytes() != 4*len(tn.TIDs) {
		t.Error("tidset Bytes mismatch")
	}
	bn := New(Bitvector).Roots(rec)[0].(*BitvectorNode)
	if bn.Bytes() != 8*bn.Bits.Words() {
		t.Error("bitvector Bytes mismatch")
	}
	if got := CombineCost(tn, tn); got != 2*tn.Bytes() {
		t.Errorf("CombineCost = %d", got)
	}
}

// Property test: on random databases, all three representations agree on
// the support of arbitrary combine chains.
func TestQuickRepresentationAgreement(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := &dataset.DB{Name: "rand"}
		nTrans := 10 + r.Intn(60)
		nItems := 4 + r.Intn(6)
		for i := 0; i < nTrans; i++ {
			var items []itemset.Item
			for it := 0; it < nItems; it++ {
				if r.Intn(3) > 0 {
					items = append(items, itemset.Item(it))
				}
			}
			if len(items) == 0 {
				items = append(items, itemset.Item(r.Intn(nItems)))
			}
			db.Transactions = append(db.Transactions, itemset.New(items...))
		}
		rec := db.Recode(1)
		reps := []Representation{New(Tidset), New(Bitvector), New(Diffset)}
		roots := make([][]Node, len(reps))
		for i, rep := range reps {
			roots[i] = rep.Roots(rec)
		}
		n := len(rec.Items)
		if n < 3 {
			return true
		}
		// Random descending-combine chain: {a}, then {a,b}, {a,b,c}...
		// following the sibling-join discipline (same prefix).
		a := r.Intn(n - 2)
		b := a + 1 + r.Intn(n-a-2)
		c := b + 1 + r.Intn(n-b-1)
		var sups [3]int
		for i, rep := range reps {
			ab := Combine(rep, nil, roots[i][a], roots[i][b], 0)
			ac := Combine(rep, nil, roots[i][a], roots[i][c], 0)
			abc := Combine(rep, nil, ab, ac, 0)
			sups[i] = abc.Support()
		}
		return sups[0] == sups[1] && sups[1] == sups[2]
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("representation agreement: %v", err)
	}
}

// Support counting never goes negative, even on empty-diffset chains.
func TestDiffsetEmptyChain(t *testing.T) {
	db := &dataset.DB{Name: "tiny"}
	// Two identical transactions over items 0,1,2: every subset has
	// support 2, every diffset is empty.
	db.Transactions = []dataset.Transaction{itemset.New(0, 1, 2), itemset.New(0, 1, 2)}
	rec := db.Recode(1)
	rep := New(Diffset)
	roots := rep.Roots(rec)
	ab := Combine(rep, nil, roots[0], roots[1], 0)
	ac := Combine(rep, nil, roots[0], roots[2], 0)
	abc := Combine(rep, nil, ab, ac, 0)
	if abc.Support() != 2 {
		t.Errorf("support = %d, want 2", abc.Support())
	}
	if abc.Bytes() != 0 {
		t.Errorf("empty diffset has %d bytes", abc.Bytes())
	}
}

func TestTidsetSingleTransaction(t *testing.T) {
	db := &dataset.DB{Transactions: []dataset.Transaction{itemset.New(0, 1)}}
	rec := db.Recode(1)
	for _, kind := range Kinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		pair := Combine(rep, nil, roots[0], roots[1], 0)
		if pair.Support() != 1 {
			t.Errorf("%v: support = %d, want 1", kind, pair.Support())
		}
	}
}

// TestCombineSupportMatchesCombine: the count-only kernel gives every
// kind's exact support — the oracle's, and the support of the same pair
// run through Combine — over every root pair and one level down.
func TestCombineSupportMatchesCombine(t *testing.T) {
	rec := exampleRecoded(t, 1)
	for _, kind := range AllKinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		o := newOracle(t, kind, rec, roots)
		n := len(roots)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want, _ := o.want([]int{i, j})
				if got := rep.CombineSupport(roots[i], roots[j]); got != want {
					t.Errorf("%v CombineSupport(%d,%d) = %d, want %d", kind, i, j, got, want)
				}
				if got := Combine(rep, nil, roots[i], roots[j], 0).Support(); got != want {
					t.Errorf("%v Combine(%d,%d) support = %d, want %d", kind, i, j, got, want)
				}
				pij := Combine(rep, nil, roots[i], roots[j], 0)
				for k := j + 1; k < n; k++ {
					pik := Combine(rep, nil, roots[i], roots[k], 0)
					want, _ := o.want([]int{i, j, k})
					if got := rep.CombineSupport(pij, pik); got != want {
						t.Errorf("%v deep CombineSupport(%d,%d,%d) = %d, want %d", kind, i, j, k, got, want)
					}
				}
			}
		}
	}
}
