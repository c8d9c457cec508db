package main

import (
	"fmt"
	"slices"

	fim "repro"
	"repro/internal/verify"
)

// reference is a table's correct answer at one support: every frequent
// itemset with its support, kept as the order-independent digest every
// op's answer is checked against. The itemsets themselves are mined
// again only to describe a mismatch, so the benchmark's own resident
// heap is the tables' text and does not vary with the answers' size.
type reference struct {
	digest digest
	text   []byte // the table's FIMI text
	abs    int
	// planted marks a reference corrupted by plantWrong.
	planted bool
}

func newReference(text []byte, abs int, sets []fim.ItemsetCount) *reference {
	return &reference{digest: digestOf(sets), text: text, abs: abs}
}

// referenceAnswer mines db at abs with two independent serial miners,
// FP-growth and Apriori over bitvectors, requires them to agree, and
// returns the answer in original item codes and canonical order.
func referenceAnswer(db *fim.DB, abs int) ([]fim.ItemsetCount, error) {
	fp, err := fim.MineAbsolute(db, abs, fim.Options{Algorithm: fim.FPGrowth})
	if err != nil {
		return nil, fmt.Errorf("reference FP-growth: %w", err)
	}
	ap, err := fim.MineAbsolute(db, abs, fim.Options{Algorithm: fim.Apriori, Representation: fim.Bitvector})
	if err != nil {
		return nil, fmt.Errorf("reference Apriori/bitvector: %w", err)
	}
	sets := fp.Decoded()
	if d := firstDiff(sets, ap.Decoded()); d != "" {
		return nil, fmt.Errorf("reference miners disagree (FP-growth vs Apriori/bitvector): %s", d)
	}
	return sets, nil
}

// atSupport filters an answer to a higher absolute support: the answer
// there is exactly the itemsets whose support reaches it.
func atSupport(sets []fim.ItemsetCount, abs int) []fim.ItemsetCount {
	var out []fim.ItemsetCount
	for _, c := range sets {
		if c.Support >= abs {
			out = append(out, c)
		}
	}
	return out
}

// sets mines the reference answer again, with FP-growth, for a
// mismatch report.
func (r *reference) sets() []fim.ItemsetCount {
	db, err := parseTable("reference", r.text)
	if err != nil {
		panic(err) // the text parsed during set-up
	}
	res, err := fim.MineAbsolute(db, r.abs, fim.Options{Algorithm: fim.FPGrowth})
	if err != nil {
		panic(err) // the same run succeeded during set-up
	}
	sets := res.Decoded()
	if r.planted && len(sets) > 0 {
		sets = sets[1:]
	}
	return sets
}

// plantWrong makes the reference drop its first itemset, so every
// correct answer now differs from it. The benchmark's tests use it to
// show the oracle can fail.
func (r *reference) plantWrong() {
	r.planted = true
	r.digest = digestOf(r.sets())
}

// check compares an op's answer with the reference. On a mismatch it
// returns a description of the first differing itemset.
func (r *reference) check(got []fim.ItemsetCount) (bool, string) {
	if digestOf(got) == r.digest {
		return true, ""
	}
	sorted := slices.Clone(got)
	slices.SortFunc(sorted, func(a, b fim.ItemsetCount) int { return a.Items.Compare(b.Items) })
	if d := firstDiff(r.sets(), sorted); d != "" {
		return false, d
	}
	return false, "answer digest differs from the reference"
}

// crossCheck compares the two reference miners with the exhaustive
// horizontal-counting miner of internal/verify on a scaled-down copy of
// a shape. The copy is mined at the same relative support, raised as
// far as needed to keep the answer within verifyMaxSets itemsets, since
// the exhaustive miner's cost grows with the answer.
func crossCheck(s shape, seed int64, rows int, rel float64) error {
	db := s.build(seed, rows)
	abs := max(1, int(rel*float64(rows)+0.5))
	sets, err := referenceAnswer(db, abs)
	if err != nil {
		return fmt.Errorf("%s scaled to %d rows: %w", s.name, rows, err)
	}
	for len(sets) > verifyMaxSets {
		abs++
		sets = atSupport(sets, abs)
	}
	exhaustive := verify.Reference(db.Recode(abs), abs).Decoded()
	if d := firstDiff(exhaustive, sets); d != "" {
		return fmt.Errorf("%s scaled to %d rows at support %d: reference miners differ from internal/verify: %s", s.name, rows, abs, d)
	}
	return nil
}

// digest is an order-independent fingerprint of a set of (itemset,
// support) pairs: the count, and the sum and xor of a 64-bit hash of
// each pair.
type digest struct {
	n        int
	sum, xor uint64
}

func digestOf(sets []fim.ItemsetCount) digest {
	d := digest{n: len(sets)}
	for _, c := range sets {
		h := hashPair(c.Items, c.Support)
		d.sum += h
		d.xor ^= h
	}
	return d
}

// hashPair hashes one itemset and its support (FNV-1a over the values,
// finished with a SplitMix64 round).
func hashPair(items []uint32, support int) uint64 {
	h := uint64(14695981039346656037)
	for _, it := range items {
		h = (h ^ uint64(it)) * 1099511628211
	}
	h = (h ^ uint64(support)<<32 ^ uint64(len(items))) * 1099511628211
	h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
	h = (h ^ h>>27) * 0x94D049BB133111EB
	return h ^ h>>31
}

// firstDiff walks two canonical-order answers and describes the first
// itemset on which they differ, or returns "" when they are equal.
func firstDiff(want, got []fim.ItemsetCount) string {
	i, j := 0, 0
	for i < len(want) || j < len(got) {
		switch {
		case j == len(got) || (i < len(want) && want[i].Items.Compare(got[j].Items) < 0):
			return fmt.Sprintf("missing %v (support %d); %d sets wanted, %d got", want[i].Items, want[i].Support, len(want), len(got))
		case i == len(want) || want[i].Items.Compare(got[j].Items) > 0:
			return fmt.Sprintf("extra %v (support %d); %d sets wanted, %d got", got[j].Items, got[j].Support, len(want), len(got))
		case want[i].Support != got[j].Support:
			return fmt.Sprintf("support of %v: want %d, got %d", want[i].Items, want[i].Support, got[j].Support)
		}
		i++
		j++
	}
	return ""
}
