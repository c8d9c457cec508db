package dataset

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/itemset"
	"repro/internal/tidset"
)

const sample = `1 2 5
2 4
2 3
1 2 4
1 3
2 3
1 3
1 2 3 5
1 2 3
`

func sampleDB(t *testing.T) *DB {
	t.Helper()
	db, err := ReadFIMI("sample", strings.NewReader(sample))
	if err != nil {
		t.Fatalf("ReadFIMI: %v", err)
	}
	return db
}

func TestReadFIMI(t *testing.T) {
	db := sampleDB(t)
	if db.NumTransactions() != 9 {
		t.Fatalf("NumTransactions = %d, want 9", db.NumTransactions())
	}
	if !db.Transactions[0].Equal(itemset.New(1, 2, 5)) {
		t.Errorf("transaction 0 = %v", db.Transactions[0])
	}
	if !db.Transactions[7].Equal(itemset.New(1, 2, 3, 5)) {
		t.Errorf("transaction 7 = %v", db.Transactions[7])
	}
}

func TestReadFIMIMessyInput(t *testing.T) {
	in := "  3   1  2 \r\n\n\t5 5 5\n"
	db, err := ReadFIMI("messy", strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadFIMI: %v", err)
	}
	if db.NumTransactions() != 2 {
		t.Fatalf("NumTransactions = %d, want 2", db.NumTransactions())
	}
	if !db.Transactions[0].Equal(itemset.New(1, 2, 3)) {
		t.Errorf("transaction 0 = %v", db.Transactions[0])
	}
	if !db.Transactions[1].Equal(itemset.New(5)) {
		t.Errorf("transaction 1 = %v (duplicates not removed?)", db.Transactions[1])
	}
}

func TestReadFIMIRejectsGarbage(t *testing.T) {
	for _, in := range []string{"1 x 3\n", "-4\n", "99999999999999999999\n"} {
		if _, err := ReadFIMI("bad", strings.NewReader(in)); err == nil {
			t.Errorf("ReadFIMI(%q) accepted garbage", in)
		}
	}
}

// TestReadFIMIParseErrors pins the diagnostic contract: a malformed
// token yields a *ParseError carrying the 1-based line number, the
// offending token verbatim, and a message naming the failure class.
func TestReadFIMIParseErrors(t *testing.T) {
	cases := []struct {
		in    string
		line  int
		token string
		msg   string
	}{
		{"1 2\n3 oops 4\n", 2, "oops", "bad item"},
		{"-7\n", 1, "-7", "negative item"},
		{"1\n2\n3 -0\n", 3, "-0", "negative item"},
		{"5 99999999999999999999\n", 1, "99999999999999999999", "item out of range"},
		{"\n\n1 2.5\n", 3, "2.5", "bad item"},
	}
	for _, c := range cases {
		_, err := ReadFIMI("in", strings.NewReader(c.in))
		if err == nil {
			t.Errorf("ReadFIMI(%q): no error", c.in)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("ReadFIMI(%q): error %T is not a *ParseError", c.in, err)
			continue
		}
		if pe.Line != c.line || pe.Token != c.token || pe.Msg != c.msg {
			t.Errorf("ReadFIMI(%q) = line %d token %q msg %q, want line %d token %q msg %q",
				c.in, pe.Line, pe.Token, pe.Msg, c.line, c.token, c.msg)
		}
		if !strings.Contains(err.Error(), c.token) {
			t.Errorf("ReadFIMI(%q): message %q omits the offending token", c.in, err)
		}
	}
}

// TestReadFIMILimits: each Limits axis fails fast with a typed
// *ParseError locating the breach, and inputs inside the limits parse
// identically to the unlimited reader.
func TestReadFIMILimits(t *testing.T) {
	cases := []struct {
		name string
		in   string
		lim  Limits
		line int
		msg  string
	}{
		{"line too long", "1 2 3\n" + strings.Repeat("7 ", 600) + "\n",
			Limits{MaxLineBytes: 64}, 2, "line exceeds 64 bytes"},
		{"too many transactions", "1\n2\n3\n4\n",
			Limits{MaxTransactions: 3}, 4, "transaction count exceeds limit 3"},
		{"too many items", "1 2 3\n4 5 6\n7 8 9\n",
			Limits{MaxTotalItems: 7}, 3, "total item count exceeds limit 7"},
		{"duplicates count pre-dedup", "5 5 5 5\n",
			Limits{MaxTotalItems: 3}, 1, "total item count exceeds limit 3"},
	}
	for _, c := range cases {
		_, err := ReadFIMILimits(c.name, strings.NewReader(c.in), c.lim)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v (%T) is not a *ParseError", c.name, err, err)
			continue
		}
		if pe.Line != c.line || pe.Msg != c.msg || pe.Token != "" {
			t.Errorf("%s: got line %d msg %q token %q, want line %d msg %q empty token",
				c.name, pe.Line, pe.Msg, pe.Token, c.line, c.msg)
		}
	}

	// Inside the limits: identical to the unlimited reader.
	in := "3 1 2\n9 8\n"
	lim := Limits{MaxLineBytes: 64, MaxTransactions: 10, MaxTotalItems: 10}
	got, err := ReadFIMILimits("ok", strings.NewReader(in), lim)
	if err != nil {
		t.Fatalf("in-limits input rejected: %v", err)
	}
	want, _ := ReadFIMI("ok", strings.NewReader(in))
	if got.NumTransactions() != want.NumTransactions() {
		t.Fatalf("limited reader changed the parse: %d vs %d transactions",
			got.NumTransactions(), want.NumTransactions())
	}
	for i := range want.Transactions {
		if !got.Transactions[i].Equal(want.Transactions[i]) {
			t.Fatalf("limited reader changed transaction %d", i)
		}
	}
}

// TestReadFIMILimitsBlankAndOversizeEdge: blank lines do not count
// against MaxTransactions, and a line exactly at MaxLineBytes passes.
func TestReadFIMILimitsBlankAndOversizeEdge(t *testing.T) {
	db, err := ReadFIMILimits("edge", strings.NewReader("\n\n1\n\n2\n"), Limits{MaxTransactions: 2})
	if err != nil || db.NumTransactions() != 2 {
		t.Fatalf("blank lines charged against MaxTransactions: db=%v err=%v", db, err)
	}
	exact := strings.Repeat("1", 8) // 8-byte line
	if _, err := ReadFIMILimits("edge", strings.NewReader(exact+"\n"), Limits{MaxLineBytes: 8}); err != nil {
		t.Fatalf("line exactly at MaxLineBytes rejected: %v", err)
	}
	if _, err := ReadFIMILimits("edge", strings.NewReader(exact+"9\n"), Limits{MaxLineBytes: 8}); err == nil {
		t.Fatal("line one byte over MaxLineBytes accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	db := sampleDB(t)
	var buf bytes.Buffer
	if err := WriteFIMI(&buf, db); err != nil {
		t.Fatalf("WriteFIMI: %v", err)
	}
	back, err := ReadFIMI("sample", &buf)
	if err != nil {
		t.Fatalf("ReadFIMI: %v", err)
	}
	if back.NumTransactions() != db.NumTransactions() {
		t.Fatalf("round trip changed transaction count")
	}
	for i := range db.Transactions {
		if !back.Transactions[i].Equal(db.Transactions[i]) {
			t.Errorf("transaction %d: %v != %v", i, back.Transactions[i], db.Transactions[i])
		}
	}
}

func TestComputeStats(t *testing.T) {
	db := sampleDB(t)
	s := db.ComputeStats()
	if s.NumTransactions != 9 {
		t.Errorf("NumTransactions = %d", s.NumTransactions)
	}
	if s.NumItems != 5 {
		t.Errorf("NumItems = %d, want 5", s.NumItems)
	}
	wantAvg := 23.0 / 9.0
	if s.AvgLength < wantAvg-1e-9 || s.AvgLength > wantAvg+1e-9 {
		t.Errorf("AvgLength = %v, want %v", s.AvgLength, wantAvg)
	}
	if s.MaxItem != 5 {
		t.Errorf("MaxItem = %d", s.MaxItem)
	}
	if s.SizeBytes == 0 {
		t.Error("SizeBytes = 0")
	}
}

func TestAbsoluteSupport(t *testing.T) {
	db := sampleDB(t) // 9 transactions
	cases := []struct {
		rel  float64
		want int
	}{
		{0, 1},
		{-1, 1},
		{0.2, 2}, // 1.8 -> 2
		{1.0 / 3, 3},
		{0.5, 5}, // 4.5 -> 5
		{1, 9},
	}
	for _, c := range cases {
		if got := db.AbsoluteSupport(c.rel); got != c.want {
			t.Errorf("AbsoluteSupport(%v) = %d, want %d", c.rel, got, c.want)
		}
	}
}

// TestAbsoluteSupportBoundaries pins the exact-fraction contract: a
// relative threshold computed as k/|D| must map to exactly k for every
// k, across awkward database sizes (25, 29, 41... are sizes where a
// naive Ceil(rel*n) overshoots to k+1 on one-ulp float error), and a
// threshold a hair above k/|D| must round up to k+1.
func TestAbsoluteSupportBoundaries(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 9, 10, 25, 29, 41, 100, 1000, 2999} {
		db := &DB{Transactions: make([]Transaction, n)}
		for k := 1; k <= n; k++ {
			rel := float64(k) / float64(n)
			if got := db.AbsoluteSupport(rel); got != k {
				t.Errorf("n=%d: AbsoluteSupport(%d/%d) = %d, want %d", n, k, n, got, k)
			}
		}
		// Strictly-above-k thresholds still round up.
		for _, k := range []int{1, n / 2, n - 1} {
			if k < 1 || k >= n {
				continue
			}
			rel := (float64(k) + 0.5) / float64(n)
			if got := db.AbsoluteSupport(rel); got != k+1 {
				t.Errorf("n=%d: AbsoluteSupport((%d+0.5)/%d) = %d, want %d", n, k, n, got, k+1)
			}
		}
	}
}

func TestItemCounts(t *testing.T) {
	db := sampleDB(t)
	counts := db.ItemCounts()
	want := map[itemset.Item]int{1: 6, 2: 7, 3: 6, 4: 2, 5: 2}
	for it, c := range want {
		if counts[it] != c {
			t.Errorf("count[%d] = %d, want %d", it, counts[it], c)
		}
	}
}

func TestRecode(t *testing.T) {
	db := sampleDB(t)
	r := db.Recode(3) // keeps items 1,2,3 (supports 6,7,6); drops 4,5
	if len(r.Items) != 3 {
		t.Fatalf("kept %d items, want 3", len(r.Items))
	}
	for i, want := range []struct {
		orig itemset.Item
		sup  int
	}{{1, 6}, {2, 7}, {3, 6}} {
		if r.Items[i].Original != want.orig || r.Items[i].Support != want.sup {
			t.Errorf("Items[%d] = %+v, want {%d %d}", i, r.Items[i], want.orig, want.sup)
		}
	}
	// Transaction count preserved; items remapped to 0,1,2.
	if r.DB.NumTransactions() != 9 {
		t.Fatalf("recoded has %d transactions", r.DB.NumTransactions())
	}
	if !r.DB.Transactions[0].Equal(itemset.New(0, 1)) { // was {1,2,5} -> {0,1}
		t.Errorf("recoded transaction 0 = %v", r.DB.Transactions[0])
	}
	if !r.DB.Transactions[1].Equal(itemset.New(1)) { // was {2,4} -> {1}
		t.Errorf("recoded transaction 1 = %v", r.DB.Transactions[1])
	}
	// Decode maps back.
	if got := r.Decode(itemset.New(0, 2)); !got.Equal(itemset.New(1, 3)) {
		t.Errorf("Decode = %v", got)
	}
}

func TestRecodeEdgeCases(t *testing.T) {
	db := sampleDB(t)
	// minSup beyond every support: no items survive.
	r := db.Recode(100)
	if len(r.Items) != 0 {
		t.Errorf("Recode(100) kept %d items", len(r.Items))
	}
	// minSup < 1 clamps to 1.
	r = db.Recode(0)
	if r.MinSup != 1 || len(r.Items) != 5 {
		t.Errorf("Recode(0): MinSup=%d items=%d", r.MinSup, len(r.Items))
	}
	// Empty database.
	empty := &DB{Name: "empty"}
	r = empty.Recode(1)
	if len(r.Items) != 0 || r.DB.NumTransactions() != 0 {
		t.Error("Recode of empty DB misbehaves")
	}
	s := empty.ComputeStats()
	if s.AvgLength != 0 || s.Density != 0 {
		t.Error("stats of empty DB should be zero")
	}
}

func TestTidsetOf(t *testing.T) {
	db := sampleDB(t)
	r := db.Recode(3)
	sets := r.TidsetOf()
	if len(sets) != 3 {
		t.Fatalf("TidsetOf returned %d sets", len(sets))
	}
	// item 1 (dense 0) appears in transactions 0,3,4,6,7,8
	if !sets[0].Equal(tidset.New(0, 3, 4, 6, 7, 8)) {
		t.Errorf("tidset of item 1 = %v", sets[0])
	}
	// item 2 (dense 1): 0,1,2,3,5,7,8
	if !sets[1].Equal(tidset.New(0, 1, 2, 3, 5, 7, 8)) {
		t.Errorf("tidset of item 2 = %v", sets[1])
	}
	// Each set's length equals the recorded support.
	for i, s := range sets {
		if s.Support() != r.Items[i].Support {
			t.Errorf("tidset %d support %d != recorded %d", i, s.Support(), r.Items[i].Support)
		}
	}
}

// Property: recoding never changes the support of a surviving item, and
// tidsets are consistent with the horizontal database.
func TestQuickRecodeConsistency(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := &DB{Name: "rand"}
		n := 5 + r.Intn(40)
		for i := 0; i < n; i++ {
			k := 1 + r.Intn(6)
			items := make([]itemset.Item, k)
			for j := range items {
				items[j] = itemset.Item(r.Intn(12))
			}
			db.Transactions = append(db.Transactions, itemset.New(items...))
		}
		minSup := 1 + r.Intn(5)
		rec := db.Recode(minSup)
		raw := db.ItemCounts()
		for _, fi := range rec.Items {
			if raw[fi.Original] != fi.Support || fi.Support < minSup {
				return false
			}
		}
		sets := rec.TidsetOf()
		for i, s := range sets {
			if !s.IsSorted() || s.Support() != rec.Items[i].Support {
				return false
			}
			for _, tid := range s {
				if !rec.DB.Transactions[tid].Contains(itemset.Item(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("recode consistency: %v", err)
	}
}

func TestRecodeOrderedByFrequency(t *testing.T) {
	db := sampleDB(t)
	rec := db.RecodeOrdered(2, ByFrequency)
	// Supports ascending: dense code 0 has the rarest surviving item.
	for i := 1; i < len(rec.Items); i++ {
		if rec.Items[i-1].Support > rec.Items[i].Support {
			t.Fatalf("codes not in ascending support order: %+v", rec.Items)
		}
	}
	// Transactions stay sorted in the dense space.
	for tid, tr := range rec.DB.Transactions {
		if !tr.IsSorted() {
			t.Errorf("transaction %d unsorted: %v", tid, tr)
		}
	}
	// Decode returns sorted original codes.
	if len(rec.Items) >= 2 {
		dec := rec.Decode(itemset.New(0, 1))
		if !dec.IsSorted() {
			t.Errorf("decode unsorted: %v", dec)
		}
	}
	// Tidsets remain consistent with supports.
	for i, s := range rec.TidsetOf() {
		if s.Support() != rec.Items[i].Support {
			t.Errorf("tidset %d support %d != %d", i, s.Support(), rec.Items[i].Support)
		}
	}
}

// TestArenaTransactionsAreCapacityLimited: parsed and recoded
// transactions share arenas, so appending to one must copy it, never
// overwrite the transaction stored after it.
func TestArenaTransactionsAreCapacityLimited(t *testing.T) {
	db := sampleDB(t)
	rec := db.Recode(1)
	for _, d := range []*DB{db, rec.DB} {
		for i := 0; i+1 < d.NumTransactions(); i++ {
			next := d.Transactions[i+1].Clone()
			_ = append(d.Transactions[i], 999)
			if !d.Transactions[i+1].Equal(next) {
				t.Fatalf("%s: appending to transaction %d changed transaction %d to %v",
					d.Name, i, i+1, d.Transactions[i+1])
			}
		}
	}
}

// TestArenaBlockBoundaries parses a body of well over 64K item
// occurrences — a long unsorted transaction with duplicates straddling
// a block's end, then one longer than a whole block — and requires the
// reference reader's exact result.
func TestArenaBlockBoundaries(t *testing.T) {
	var b strings.Builder
	line := func(items ...int) {
		for i, it := range items {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(it))
		}
		b.WriteByte('\n')
	}
	r := rand.New(rand.NewSource(7))
	long := func(n int) []int {
		items := make([]int, n)
		for i := range items {
			items[i] = r.Intn(3 * n)
		}
		return items
	}
	// Single-item lines fill the first block to 1000 short of its end.
	for i := 0; i < arenaBlock-1000; i++ {
		line(i % 5000)
	}
	line(long(5000)...)           // straddles the first block's end
	line(long(3 * arenaBlock)...) // outgrows a whole block
	for i := 0; i < 100; i++ {
		line(i+1, i)
	}
	input := b.String()
	got, err := ReadFIMI("big", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceReadFIMILimits("big", strings.NewReader(input), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameTransactions(t, got, want)
}

// TestReadFIMIBlankOnly: an input of nothing but blank and whitespace
// lines is an empty database, not an error.
func TestReadFIMIBlankOnly(t *testing.T) {
	db, err := ReadFIMI("blank", strings.NewReader("\n\n \t\r\n\r\n\n"))
	if err != nil || db.NumTransactions() != 0 {
		t.Fatalf("blank input: db=%v err=%v, want an empty database", db, err)
	}
}

// TestRecodeSparseFallback: a huge item code among few occurrences
// takes the map path, never a table sized by the code, and is recoded
// like any other item. recode_test.go checks both paths agree.
func TestRecodeSparseFallback(t *testing.T) {
	if !sparseCodes(4294967295, 1<<20) || sparseCodes(2112, 49046*74) {
		t.Fatal("sparseCodes misclassifies a huge sparse or a pumsb-sized dense code space")
	}
	huge := &DB{Name: "huge", Transactions: []Transaction{{1, 4294967295}, {4294967295}}}
	rec := huge.Recode(2)
	if len(rec.Items) != 1 || rec.Items[0] != (FrequentItem{4294967295, 2}) {
		t.Fatalf("huge-code recode kept %+v", rec.Items)
	}
	requireSameTransactions(t, rec.DB, &DB{Transactions: []Transaction{{0}, {0}}})
}
