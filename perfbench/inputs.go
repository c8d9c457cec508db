package main

import (
	"bytes"
	"fmt"
	"math/rand"

	fim "repro"
	"repro/internal/dataset"
	"repro/internal/gen"
)

// shape generates one synthetic table family from a generator seed and
// a row count. The families mirror internal/datasets' definitions of
// the paper's datasets, with the seed and size left free.
type shape struct {
	name  string
	build func(seed int64, rows int) *fim.DB
}

func domains(n, d int) []gen.AttrSpec {
	out := make([]gen.AttrSpec, n)
	for i := range out {
		out[i] = gen.AttrSpec{Domain: d}
	}
	return out
}

var (
	chessLike = shape{"chess", func(seed int64, rows int) *fim.DB {
		return gen.Categorical(gen.CategoricalConfig{Name: "chess", Seed: seed, NumTransactions: rows,
			Attributes: append(domains(35, 2), gen.AttrSpec{Domain: 3}, gen.AttrSpec{Domain: 2}),
			NumGroups:  2, SharedFrac: 0.6, ConformistFrac: 0.85, WHi: 0.95, WLo: 0.45, Spread: 1.5, NonConfFactor: 0.5})
	}}
	mushroomLike = shape{"mushroom", func(seed int64, rows int) *fim.DB {
		return gen.Categorical(gen.CategoricalConfig{Name: "mushroom", Seed: seed, NumTransactions: rows,
			Attributes: append(domains(19, 5), domains(4, 6)...),
			NumGroups:  2, SharedFrac: 0.7, ConformistFrac: 0.85, WHi: 0.95, WLo: 0.5, Spread: 0.8, NonConfFactor: 0.5})
	}}
	pumsbLike = shape{"pumsb", func(seed int64, rows int) *fim.DB {
		return gen.Categorical(gen.CategoricalConfig{Name: "pumsb", Seed: seed, NumTransactions: rows,
			Attributes: append(domains(71, 29), domains(3, 18)...),
			NumGroups:  3, SharedFrac: 0.8, ConformistFrac: 0.9, WHi: 0.97, WLo: 0.25, Spread: 0.5, NonConfFactor: 0.5})
	}}
	t40Like = shape{"T40", func(seed int64, rows int) *fim.DB {
		return gen.Quest(gen.QuestConfig{Name: "T40", Seed: seed, NumTransactions: rows,
			AvgTransLen: 40, NumItems: 1000, NumPatterns: 2000, AvgPatternLen: 10, Corruption: 0.5})
	}}
	accidentsLike = shape{"accidents", func(seed int64, rows int) *fim.DB {
		return gen.Quest(gen.QuestConfig{Name: "accidents", Seed: seed, NumTransactions: rows,
			AvgTransLen: 34, NumItems: 468, NumPatterns: 500, AvgPatternLen: 12, Corruption: 0.35})
	}}
)

// tableSpec fixes one input of a workload. The generator seed comes
// from the run's --seed; the support threshold is then calibrated per
// table (see calibrate) so that a deterministic estimate of the default
// miner's work lands on target whatever the seed drew. That keeps the
// cost of a workload steady across seeds while its data varies.
type tableSpec struct {
	shape shape
	rows  int
	// floor is the lowest relative support calibration may choose.
	floor float64
	// target is the work estimate calibration aims for.
	target float64
	// maxK, when non-zero, is the largest itemset size the chosen
	// support may admit (the wide-shallow tables' "shallow").
	maxK int
}

// table is one generated, calibrated and serialized input with its
// reference answer.
type table struct {
	name string
	text []byte // FIMI serialization, what every op parses
	rows int
	abs  int // absolute support threshold
	ref  *reference
}

// deriveSeed mixes the run's seed with a stream name and index into an
// independent generator seed (FNV-1a over the name, then SplitMix64).
func deriveSeed(seed int64, stream string, i int) int64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	z := h ^ uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 1)
}

// generate builds a table's database, its lattice at the calibration
// floor, and its FIMI text.
func generate(spec tableSpec, seed int64) (*fim.DB, *lattice, []byte, error) {
	db := spec.shape.build(seed, spec.rows)
	lat, err := newLattice(db, db.AbsoluteSupport(spec.floor))
	if err != nil {
		return nil, nil, nil, err
	}
	var buf bytes.Buffer
	if err := fim.WriteFIMI(&buf, db); err != nil {
		return nil, nil, nil, fmt.Errorf("serializing %s: %w", spec.shape.name, err)
	}
	return db, lat, buf.Bytes(), nil
}

// buildTable generates and calibrates one table and computes its
// reference answer.
func buildTable(spec tableSpec, seed int64) (*table, error) {
	db, lat, text, err := generate(spec, seed)
	if err != nil {
		return nil, err
	}
	abs := lat.calibrate(spec.target, spec.maxK)
	sets, err := referenceAnswer(db, abs)
	if err != nil {
		return nil, fmt.Errorf("%s@%d: %w", spec.shape.name, abs, err)
	}
	return &table{
		name: fmt.Sprintf("%s-%d", spec.shape.name, spec.rows),
		text: text,
		rows: spec.rows,
		abs:  abs,
		ref:  newReference(text, abs, sets),
	}, nil
}

// calibrate returns the lowest absolute support, no lower than the
// lattice's floor, whose work estimate is at most target and whose
// longest itemset has at most maxK items (maxK 0: no cap). Both
// quantities fall as the support rises, so a binary search finds it.
func (l *lattice) calibrate(target float64, maxK int) int {
	lo, hi := l.floor, l.universe
	for lo < hi {
		mid := (lo + hi) / 2
		w, k := l.estimate(mid)
		if w > target || (maxK > 0 && k > maxK) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lattice is a table's frequent itemsets at the calibration floor, from
// which the answer and the work estimate at any higher support follow
// by filtering.
type lattice struct {
	universe int
	floor    int
	sets     []fim.ItemsetCount // canonical order: a prefix precedes its extensions
	index    map[string]int     // Itemset.Key() -> position in sets
}

func newLattice(db *fim.DB, floor int) (*lattice, error) {
	if floor < 1 {
		floor = 1
	}
	res, err := fim.MineAbsolute(db, floor, fim.Options{Algorithm: fim.Eclat, Representation: fim.Bitvector})
	if err != nil {
		return nil, fmt.Errorf("calibrating %s: %w", db.Name, err)
	}
	l := &lattice{universe: len(db.Transactions), floor: floor, sets: res.Decoded()}
	l.index = make(map[string]int, len(l.sets))
	for i, c := range l.sets {
		l.index[c.Items.Key()] = i
	}
	return l, nil
}

// combineSteps is the fixed cost of one combine (allocation, class
// bookkeeping, scheduling) in merge steps, fitted on the dense tables.
const combineSteps = 90

// estimate returns the work estimate of Eclat over diffsets at absolute
// support s, in merge steps, and the longest frequent itemset's size.
// Eclat combines every pair of frequent siblings in an equivalence
// class [P]; over diffsets a combine merges d(PX) and d(PY), whose sizes
// are sup(P)-sup(PX) and sup(P)-sup(PY). A class of n members with
// diffset sizes d_i therefore costs (n-1)*sum(d_i) merge steps plus
// n(n-1)/2 combines. Classes are keyed by prefix in item-code order,
// the order Eclat mines in.
func (l *lattice) estimate(s int) (float64, int) {
	type class struct {
		n    int
		diff float64
	}
	classes := make(map[int]*class) // prefix position (-1: empty prefix)
	maxK := 0
	for _, c := range l.sets {
		if c.Support < s {
			continue
		}
		maxK = max(maxK, len(c.Items))
		parent, psup := -1, l.universe
		if len(c.Items) > 1 {
			parent = l.index[c.Items[:len(c.Items)-1].Key()]
			psup = l.sets[parent].Support
		}
		cl := classes[parent]
		if cl == nil {
			cl = &class{}
			classes[parent] = cl
		}
		cl.n++
		cl.diff += float64(psup - c.Support)
	}
	w := 0.0
	for _, cl := range classes {
		n := float64(cl.n)
		w += (n-1)*cl.diff + combineSteps*n*(n-1)/2
	}
	return w, maxK
}

// shuffledBody returns the table's FIMI text with its transactions in a
// random order: a byte-distinct upload (the server's cache keys uploads
// by content hash) with exactly the same frequent itemsets and supports.
func shuffledBody(text []byte, r *rand.Rand) []byte {
	lines := bytes.SplitAfter(text, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	r.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return bytes.Join(lines, nil)
}

// parseTable parses a FIMI body and returns the database, as every op
// does first.
func parseTable(name string, text []byte) (*fim.DB, error) {
	return fim.ReadFIMI(name, bytes.NewReader(text))
}

// recodeProbe runs the recoding pass fim.Mine performs before mining,
// at the same threshold and item order, so its cost can be attributed
// from outside.
func recodeProbe(db *fim.DB, abs int, rep fim.Representation) *dataset.Recoded {
	order := dataset.ByCode
	if rep == fim.Nodeset {
		order = dataset.ByFrequency
	}
	return db.RecodeOrdered(abs, order)
}
