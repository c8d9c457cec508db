// Package dataset implements the horizontal transaction database: the raw
// input of frequent itemset mining, as read from FIMI-repository-format
// files (one transaction per line, space-separated integer items).
//
// The package also provides the first mining pass that every algorithm in
// the paper shares: counting 1-item supports, selecting frequent items,
// and recoding the database onto a dense item space so the vertical
// representations (package vertical) can index by item.
package dataset

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/itemset"
	"repro/internal/tidset"
)

// Transaction is one basket: a sorted set of items.
type Transaction = itemset.Itemset

// DB is a horizontal transaction database.
type DB struct {
	// Name identifies the dataset in reports (e.g. "chess").
	Name string
	// Transactions holds the baskets in file order; the index of a
	// transaction is its TID.
	Transactions []Transaction
}

// NumTransactions returns |D|.
func (d *DB) NumTransactions() int { return len(d.Transactions) }

// AbsoluteSupport converts a relative support threshold (fraction of
// transactions, e.g. 0.2 for "chess@0.2") into an absolute transaction
// count, rounding up so that rel*|D| is always sufficient. A relative
// threshold of 0 maps to 1: an itemset must occur at least once.
//
// A threshold that is exactly k/|D| maps to k: the product is nudged
// down by a relative epsilon before the ceiling so that the one-ulp
// error of computing k/|D| in floating point cannot push the result to
// k+1 (which would silently drop every itemset of support exactly k).
func (d *DB) AbsoluteSupport(rel float64) int {
	if rel <= 0 {
		return 1
	}
	x := rel * float64(len(d.Transactions))
	abs := int(math.Ceil(x - x*1e-12))
	if abs < 1 {
		abs = 1
	}
	return abs
}

// Stats summarizes a database the way the paper's Table I does.
type Stats struct {
	Name            string
	NumItems        int     // distinct items appearing in D
	AvgLength       float64 // average transaction length
	NumTransactions int
	SizeBytes       int // size of the FIMI text encoding
	MaxItem         itemset.Item
	Density         float64 // avg length / distinct items: 1.0 means every item in every transaction
}

// ComputeStats scans the database once and fills a Stats.
func (d *DB) ComputeStats() Stats {
	seen := make(map[itemset.Item]struct{})
	totalLen := 0
	size := 0
	var maxItem itemset.Item
	for _, tr := range d.Transactions {
		totalLen += len(tr)
		for _, it := range tr {
			seen[it] = struct{}{}
			if it > maxItem {
				maxItem = it
			}
			// digits + separator, matching the FIMI text encoding
			size += len(strconv.FormatUint(uint64(it), 10)) + 1
		}
	}
	s := Stats{
		Name:            d.Name,
		NumItems:        len(seen),
		NumTransactions: len(d.Transactions),
		SizeBytes:       size,
		MaxItem:         maxItem,
	}
	if len(d.Transactions) > 0 {
		s.AvgLength = float64(totalLen) / float64(len(d.Transactions))
	}
	if s.NumItems > 0 {
		s.Density = s.AvgLength / float64(s.NumItems)
	}
	return s
}

// ItemCounts returns the support of every item, as a map.
func (d *DB) ItemCounts() map[itemset.Item]int {
	counts := make(map[itemset.Item]int)
	for _, tr := range d.Transactions {
		for _, it := range tr {
			counts[it]++
		}
	}
	return counts
}

// FrequentItem describes one frequent item discovered by the first pass.
type FrequentItem struct {
	Original itemset.Item // item code in the raw database
	Support  int
}

// Recoded is a database restricted to its frequent items and recoded onto
// the dense item space 0..len(Items)-1, in ascending original-item order.
// Both miners operate on a Recoded database: its TIDs and dense item codes
// are what the vertical representations are built from.
type Recoded struct {
	DB       *DB            // filtered, recoded transactions
	Items    []FrequentItem // dense code -> original item + support
	MinSup   int            // absolute threshold used
	Universe int            // number of transactions in the original DB
}

// ItemOrder selects how Recode assigns dense item codes. The mining
// result is the same set of itemsets either way (modulo decoding); the
// order changes the shape of the search tree, which the A9 ablation
// measures.
type ItemOrder int

const (
	// ByCode preserves the original item-code order (the paper's
	// "items in the itemset are sorted according to item number").
	ByCode ItemOrder = iota
	// ByFrequency assigns codes in ascending support order, the classic
	// Eclat/FP-growth optimization: rare items first keeps equivalence
	// classes small near the root, where the fan-out is widest.
	ByFrequency
)

// Recode performs the shared first mining pass: count item supports, keep
// items with support >= minSup (absolute), sort them by original item
// code, and rewrite every transaction onto the dense code space with
// infrequent items dropped. Transactions that become empty are kept (they
// still occupy a TID) so that supports remain counts over the original
// transaction universe.
func (d *DB) Recode(minSup int) *Recoded {
	return d.RecodeOrdered(minSup, ByCode)
}

// RecodeOrdered is Recode with an explicit dense-code order.
//
// Supports are counted in a dense array indexed by item code, the same
// array then serves as the code table, and every recoded transaction is
// a capacity-limited window of one exact-size arena. Only a database
// whose largest item code dwarfs its item occurrences (see sparseCodes)
// takes the map-based path instead, so a lone item 4294967295 cannot
// allocate a 16 GiB table.
func (d *DB) RecodeOrdered(minSup int, order ItemOrder) *Recoded {
	if minSup < 1 {
		minSup = 1
	}
	var maxItem itemset.Item
	occ := 0
	for _, tr := range d.Transactions {
		occ += len(tr)
		for _, it := range tr {
			maxItem = max(maxItem, it)
		}
	}
	if sparseCodes(maxItem, occ) {
		return d.recodeSparse(minSup, order)
	}
	counts := make([]int32, int(maxItem)+1)
	for _, tr := range d.Transactions {
		for _, it := range tr {
			counts[it]++
		}
	}
	items := []FrequentItem{}
	total := 0
	for it, c := range counts {
		if int(c) >= minSup {
			items = append(items, FrequentItem{Original: itemset.Item(it), Support: int(c)})
			total += int(c)
		}
	}
	if order == ByFrequency {
		slices.SortFunc(items, func(a, b FrequentItem) int {
			return cmp.Or(cmp.Compare(a.Support, b.Support), cmp.Compare(a.Original, b.Original))
		})
	}
	// The counts are spent: reuse the array as the code table, with -1
	// marking an infrequent item.
	code := counts
	for i := range code {
		code[i] = -1
	}
	for i, fi := range items {
		code[fi.Original] = int32(i)
	}
	arena := make([]itemset.Item, total)
	out := &DB{Name: d.Name, Transactions: make([]Transaction, len(d.Transactions))}
	pos := 0
	for tid, tr := range d.Transactions {
		start := pos
		for _, it := range tr {
			if c := code[it]; c >= 0 {
				arena[pos] = itemset.Item(c)
				pos++
			}
		}
		nt := arena[start:pos:pos]
		if order != ByCode {
			// Frequency order permutes the codes; restore sortedness.
			slices.Sort(nt)
		}
		out.Transactions[tid] = nt
	}
	return &Recoded{DB: out, Items: items, MinSup: minSup, Universe: len(d.Transactions)}
}

// sparseCodes reports whether a database with largest item code maxItem
// and occ item occurrences should be recoded through a map rather than
// a dense code table: true when the table would hold more than four
// entries per occurrence (plus a 1024-entry allowance for tiny inputs).
func sparseCodes(maxItem itemset.Item, occ int) bool {
	return uint64(maxItem) > 4*uint64(occ)+1024
}

// recodeSparse is RecodeOrdered over a map of item supports, for item
// code spaces too sparse for a dense table.
func (d *DB) recodeSparse(minSup int, order ItemOrder) *Recoded {
	counts := d.ItemCounts()
	var keep []itemset.Item
	for it, c := range counts {
		if c >= minSup {
			keep = append(keep, it)
		}
	}
	switch order {
	case ByFrequency:
		slices.SortFunc(keep, func(a, b itemset.Item) int {
			if c := cmp.Compare(counts[a], counts[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	default:
		slices.Sort(keep)
	}
	code := make(map[itemset.Item]itemset.Item, len(keep))
	items := make([]FrequentItem, len(keep))
	for i, it := range keep {
		code[it] = itemset.Item(i)
		items[i] = FrequentItem{Original: it, Support: counts[it]}
	}
	out := &DB{Name: d.Name, Transactions: make([]Transaction, len(d.Transactions))}
	for tid, tr := range d.Transactions {
		nt := make(Transaction, 0, len(tr))
		for _, it := range tr {
			if c, ok := code[it]; ok {
				nt = append(nt, c)
			}
		}
		if order != ByCode {
			// Frequency order permutes the codes; restore sortedness.
			slices.Sort(nt)
		}
		out.Transactions[tid] = nt
	}
	return &Recoded{DB: out, Items: items, MinSup: minSup, Universe: len(d.Transactions)}
}

// Decode maps a dense-coded itemset back to original item codes.
func (r *Recoded) Decode(s itemset.Itemset) itemset.Itemset {
	out := make(itemset.Itemset, len(s))
	for i, c := range s {
		out[i] = r.Items[c].Original
	}
	// Under ByCode recoding out is already sorted; frequency order
	// permutes the codes, so normalize.
	return itemset.New(out...)
}

// TidsetOf returns the tidset of each dense item: the inverted index that
// seeds every vertical representation.
func (r *Recoded) TidsetOf() []tidset.Set {
	sets := make([]tidset.Set, len(r.Items))
	for i := range sets {
		sets[i] = make(tidset.Set, 0, r.Items[i].Support)
	}
	for tid, tr := range r.DB.Transactions {
		for _, it := range tr {
			sets[it] = append(sets[it], tidset.TID(tid))
		}
	}
	return sets
}

// ParseError describes a malformed FIMI input — where it was found
// (1-based line number) and the offending token — or a Limits breach,
// in which case Token is empty and Msg names the exceeded limit.
// ReadFIMI returns it wrapped in nothing, so errors.As(&ParseError{})
// works directly.
type ParseError struct {
	Name  string // input name as passed to ReadFIMI
	Line  int    // 1-based line number
	Token string // the offending token, verbatim
	Msg   string // what was wrong with it
}

func (e *ParseError) Error() string {
	if e.Token == "" {
		// Limit breaches have no offending token, only a location.
		return fmt.Sprintf("dataset: %s line %d: %s", e.Name, e.Line, e.Msg)
	}
	return fmt.Sprintf("dataset: %s line %d: %s %q", e.Name, e.Line, e.Msg, e.Token)
}

// Limits bounds what ReadFIMILimits accepts from an untrusted reader,
// so a hostile or corrupt upload cannot balloon the process: a single
// enormous line, an endless stream of transactions, or a database whose
// item count alone exhausts memory all fail fast with a *ParseError
// instead of an OOM. Zero fields mean "no limit on this axis", except
// that no line may exceed 16 MiB (1<<24 bytes) whatever MaxLineBytes is.
type Limits struct {
	// MaxLineBytes caps the byte length of one input line (one
	// transaction). Longer lines fail with a *ParseError naming the
	// line, not bufio's generic token-too-long error. Zero, or a value
	// above 16 MiB, means 16 MiB.
	MaxLineBytes int
	// MaxTransactions caps the number of non-empty transactions.
	MaxTransactions int
	// MaxTotalItems caps the total item occurrences across the whole
	// database (counted before per-transaction deduplication, i.e. as
	// the attacker pays for them).
	MaxTotalItems int64
}

// maxLineCap is the longest line (16 MiB) any FIMI reader accepts; a
// longer line fails with a *ParseError even without Limits.
const maxLineCap = 1 << 24

// arenaBlock is the parse arena's block capacity in items (256 KiB).
// Blocks are never regrown: a transaction that runs off the end of a
// block moves whole into a fresh one, so each transaction is one window
// of one block.
const arenaBlock = 1 << 16

// ReadFIMI parses the FIMI repository text format: one transaction per
// line, items as whitespace-separated non-negative integers. Blank lines
// are skipped. Items within a transaction are sorted and deduplicated.
// Malformed tokens — negative items included — are rejected with a
// *ParseError carrying the 1-based line number and the token.
//
// ReadFIMI applies no limits beyond a 16 MiB (1<<24 bytes) line cap —
// a longer line fails with a *ParseError — and is for trusted inputs
// (local files, the synthetic generators); untrusted uploads go through
// ReadFIMILimits.
func ReadFIMI(name string, r io.Reader) (*DB, error) {
	return ReadFIMILimits(name, r, Limits{})
}

// ReadFIMILimits is ReadFIMI under explicit input limits; any breach
// returns a typed *ParseError locating the offending line.
//
// Items are decoded in place while each token is scanned and appended
// to an arena of blocks, so a parse allocates per block and per
// transaction-slice growth, never per token or per line.
// Each transaction is a capacity-limited window of its block: appending
// to one copies it rather than overwriting its neighbour.
func ReadFIMILimits(name string, r io.Reader, lim Limits) (*DB, error) {
	db := &DB{Name: name}
	sc := bufio.NewScanner(r)
	maxLine := maxLineCap
	if lim.MaxLineBytes > 0 && lim.MaxLineBytes < maxLine {
		maxLine = lim.MaxLineBytes
	}
	initBuf := 1 << 20
	if maxLine < initBuf {
		initBuf = maxLine
	}
	// +1 so the scanner has room for the newline that terminates a line
	// of exactly maxLine bytes; content one byte past the limit still
	// overflows the buffer and fails.
	sc.Buffer(make([]byte, 0, initBuf), maxLine+1)
	lineNo := 0
	var totalItems int64
	var blk []itemset.Item // current arena block; len = items written
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		start := len(blk) // this transaction is blk[start:]
		ascending := true
		for i := 0; i < len(line); {
			if isSpace(line[i]) {
				i++
				continue
			}
			tok := i
			var v itemset.Item
			digits := true
			for ; i < len(line) && !isSpace(line[i]); i++ {
				d := line[i] - '0'
				digits = digits && d <= 9
				v = v*10 + itemset.Item(d)
			}
			// Up to 9 plain digits cannot overflow an Item; anything
			// else is strconv's call, which keeps every ParseError.
			if !digits || i-tok > 9 {
				var err error
				if v, err = parseItem(name, lineNo, line[tok:i]); err != nil {
					return nil, err
				}
			}
			if len(blk) == cap(blk) {
				// A transaction longer than a block gets a block twice
				// its length.
				n := len(blk) - start
				nb := make([]itemset.Item, n, max(arenaBlock, 2*n))
				copy(nb, blk[start:])
				blk, start = nb, 0
			}
			if len(blk) > start && v <= blk[len(blk)-1] {
				ascending = false
			}
			blk = append(blk, v)
		}
		tr := blk[start:]
		if len(tr) == 0 {
			continue
		}
		totalItems += int64(len(tr))
		if lim.MaxTotalItems > 0 && totalItems > lim.MaxTotalItems {
			return nil, &ParseError{Name: name, Line: lineNo,
				Msg: fmt.Sprintf("total item count exceeds limit %d", lim.MaxTotalItems)}
		}
		if lim.MaxTransactions > 0 && len(db.Transactions) >= lim.MaxTransactions {
			return nil, &ParseError{Name: name, Line: lineNo,
				Msg: fmt.Sprintf("transaction count exceeds limit %d", lim.MaxTransactions)}
		}
		if !ascending {
			slices.Sort(tr)
			tr = slices.Compact(tr)
			blk = blk[:start+len(tr)]
		}
		db.Transactions = append(db.Transactions, tr[:len(tr):len(tr)])
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			// The scanner stops before yielding the oversized line, so it
			// is the one after the last line delivered.
			return nil, &ParseError{Name: name, Line: lineNo + 1,
				Msg: fmt.Sprintf("line exceeds %d bytes", maxLine)}
		}
		return nil, fmt.Errorf("dataset: %s: %v", name, err)
	}
	return db, nil
}

// isSpace reports whether c separates FIMI tokens.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// parseItem decodes a token the in-place fast path does not take (not
// 1–9 plain digits) exactly as strconv.ParseUint would, or fails with
// the *ParseError that names it.
func parseItem(name string, line int, b []byte) (itemset.Item, error) {
	tok := string(b)
	if tok[0] == '-' {
		return 0, &ParseError{Name: name, Line: line, Token: tok, Msg: "negative item"}
	}
	v, err := strconv.ParseUint(tok, 10, 32)
	if err != nil {
		msg := "bad item"
		if ne, ok := err.(*strconv.NumError); ok && ne.Err == strconv.ErrRange {
			msg = "item out of range"
		}
		return 0, &ParseError{Name: name, Line: line, Token: tok, Msg: msg}
	}
	return itemset.Item(v), nil
}

// WriteFIMI writes the database in FIMI text format.
func WriteFIMI(w io.Writer, db *DB) error {
	bw := bufio.NewWriter(w)
	for _, tr := range db.Transactions {
		for i, it := range tr {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(it), 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
