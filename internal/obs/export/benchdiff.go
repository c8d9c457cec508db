package export

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// Bench-regression observatory: compare fim-bench/v1 files cell by
// cell, where a cell is one (dataset, algorithm, representation,
// threads) configuration. Wall time compares as a ratio against a
// tolerance; itemset counts must match exactly — the miners are
// deterministic, so a count drift is a correctness bug, never noise.

// BenchKey identifies one benchmark cell.
type BenchKey struct {
	Dataset        string `json:"dataset"`
	Algorithm      string `json:"algorithm"`
	Representation string `json:"representation,omitempty"`
	Schedule       string `json:"schedule,omitempty"`
	Layout         string `json:"layout,omitempty"`
	Threads        int    `json:"threads"`
}

func (k BenchKey) String() string {
	rep := k.Representation
	if rep == "" {
		rep = "-"
	}
	s := fmt.Sprintf("%s/%s/%s/t%d", k.Dataset, k.Algorithm, rep, k.Threads)
	if k.Schedule != "" {
		s += "@" + k.Schedule
	}
	if k.Layout != "" {
		s += "%" + k.Layout
	}
	return s
}

// BenchCell is one cell's aggregate over its repetitions: best (min)
// wall time, worst (max) peak bytes, and the itemset count, which
// every rep of a cell must agree on.
type BenchCell struct {
	Wall     float64 `json:"wall_seconds"`
	Peak     int64   `json:"peak_bytes"`
	Itemsets int64   `json:"itemsets"`
	Reps     int     `json:"reps"`
}

// BenchCells aggregates a file's results into cells. A file whose reps
// disagree on itemset count for the same cell is internally
// inconsistent and rejected.
func BenchCells(f *BenchFile) (map[BenchKey]BenchCell, error) {
	cells := map[BenchKey]BenchCell{}
	for _, b := range f.Results {
		k := BenchKey{Dataset: b.Dataset, Algorithm: b.Algorithm,
			Representation: b.Representation, Schedule: b.Schedule,
			Layout: b.Layout, Threads: b.Threads}
		c, ok := cells[k]
		if !ok {
			cells[k] = BenchCell{Wall: b.WallSeconds, Peak: b.PeakBytes, Itemsets: b.Itemsets, Reps: 1}
			continue
		}
		if b.Itemsets != c.Itemsets {
			return nil, fmt.Errorf("export: cell %s reps disagree on itemsets (%d vs %d)", k, c.Itemsets, b.Itemsets)
		}
		if b.WallSeconds < c.Wall {
			c.Wall = b.WallSeconds
		}
		if b.PeakBytes > c.Peak {
			c.Peak = b.PeakBytes
		}
		c.Reps++
		cells[k] = c
	}
	return cells, nil
}

// BenchDelta is one cell's old-vs-new comparison.
type BenchDelta struct {
	Key             BenchKey `json:"key"`
	OldWall         float64  `json:"old_wall_seconds"`
	NewWall         float64  `json:"new_wall_seconds"`
	WallRatio       float64  `json:"wall_ratio"` // new/old; >1 slower
	OldPeak         int64    `json:"old_peak_bytes"`
	NewPeak         int64    `json:"new_peak_bytes"`
	PeakRatio       float64  `json:"peak_ratio"`
	OldItemsets     int64    `json:"old_itemsets"`
	NewItemsets     int64    `json:"new_itemsets"`
	ItemsetMismatch bool     `json:"itemset_mismatch,omitempty"`
}

// BenchDiff is the comparison of two files over their common cells.
type BenchDiff struct {
	Cells   []BenchDelta `json:"cells"`
	OnlyOld []BenchKey   `json:"only_old,omitempty"`
	OnlyNew []BenchKey   `json:"only_new,omitempty"`
}

func sortKeys(ks []BenchKey) {
	slices.SortFunc(ks, func(a, b BenchKey) int { return strings.Compare(a.String(), b.String()) })
}

// StripSchedule clears the schedule of every result, collapsing each
// schedule variant onto its base cell. It lets a file measured under a
// non-default schedule diff against a default-schedule baseline — the
// steal-vs-dynamic comparison. Only meaningful when the file holds one
// schedule per base cell; otherwise variants merge into one cell.
func StripSchedule(f *BenchFile) {
	for i := range f.Results {
		f.Results[i].Schedule = ""
	}
}

// StripLayout clears the tidset layout of every result, collapsing
// each layout variant onto its base cell — the tiled-vs-flat A/B
// comparison (-layout=tiled against a flat baseline). DiffBench's
// exact-itemset check then proves the two layouts mine byte-identical
// itemset counts on every shared cell.
func StripLayout(f *BenchFile) {
	for i := range f.Results {
		f.Results[i].Layout = ""
	}
}

// StripRepresentation clears the representation of every result,
// collapsing each representation onto its (dataset, algorithm,
// threads) base cell — the cross-representation A/B comparison
// (-rep=nodeset against a flat-tidset or tiled baseline). DiffBench's
// exact-itemset check then proves the two representations mine
// identical sets on every shared cell. Only meaningful when each file
// holds one representation per base cell.
func StripRepresentation(f *BenchFile) {
	for i := range f.Results {
		f.Results[i].Representation = ""
	}
}

// DiffBench compares old against new cell by cell. Cells present in
// only one file are listed, not compared — CI runs a dataset subset of
// the committed baseline, so one-sided cells are expected there.
func DiffBench(oldF, newF *BenchFile) (*BenchDiff, error) {
	oc, err := BenchCells(oldF)
	if err != nil {
		return nil, fmt.Errorf("old file: %w", err)
	}
	nc, err := BenchCells(newF)
	if err != nil {
		return nil, fmt.Errorf("new file: %w", err)
	}
	d := &BenchDiff{}
	for k, o := range oc {
		n, ok := nc[k]
		if !ok {
			d.OnlyOld = append(d.OnlyOld, k)
			continue
		}
		delta := BenchDelta{
			Key:     k,
			OldWall: o.Wall, NewWall: n.Wall,
			OldPeak: o.Peak, NewPeak: n.Peak,
			OldItemsets: o.Itemsets, NewItemsets: n.Itemsets,
			ItemsetMismatch: o.Itemsets != n.Itemsets,
		}
		if o.Wall > 0 {
			delta.WallRatio = n.Wall / o.Wall
		}
		if o.Peak > 0 {
			delta.PeakRatio = float64(n.Peak) / float64(o.Peak)
		}
		d.Cells = append(d.Cells, delta)
	}
	for k := range nc {
		if _, ok := oc[k]; !ok {
			d.OnlyNew = append(d.OnlyNew, k)
		}
	}
	slices.SortFunc(d.Cells, func(a, b BenchDelta) int { return strings.Compare(a.Key.String(), b.Key.String()) })
	sortKeys(d.OnlyOld)
	sortKeys(d.OnlyNew)
	if len(d.Cells) == 0 {
		return nil, fmt.Errorf("export: bench files share no cells")
	}
	return d, nil
}

// Regressions returns the cells whose wall time grew past tol
// (new/old ratio, e.g. 1.5 = 50% slower). Cells faster than old never
// regress regardless of magnitude.
func (d *BenchDiff) Regressions(tol float64) []BenchDelta {
	var out []BenchDelta
	for _, c := range d.Cells {
		if c.WallRatio > tol {
			out = append(out, c)
		}
	}
	return out
}

// ItemsetMismatches returns the cells whose itemset counts disagree —
// always a hard error for the caller, independent of any tolerance.
func (d *BenchDiff) ItemsetMismatches() []BenchDelta {
	var out []BenchDelta
	for _, c := range d.Cells {
		if c.ItemsetMismatch {
			out = append(out, c)
		}
	}
	return out
}

// FormatBenchDiff renders a fixed-width cell table with regression
// markers to w.
func FormatBenchDiff(w io.Writer, d *BenchDiff, tol float64) {
	fmt.Fprintf(w, "%-38s %10s %10s %7s %10s %8s\n",
		"cell", "old wall", "new wall", "ratio", "peak Δ", "itemsets")
	for _, c := range d.Cells {
		mark := ""
		switch {
		case c.ItemsetMismatch:
			mark = "  COUNT MISMATCH"
		case c.WallRatio > tol:
			mark = "  REGRESSION"
		}
		items := fmt.Sprintf("%d", c.NewItemsets)
		if c.ItemsetMismatch {
			items = fmt.Sprintf("%d!=%d", c.OldItemsets, c.NewItemsets)
		}
		fmt.Fprintf(w, "%-38s %9.3fs %9.3fs %6.2fx %9.2fx %8s%s\n",
			c.Key, c.OldWall, c.NewWall, c.WallRatio, c.PeakRatio, items, mark)
	}
	for _, k := range d.OnlyOld {
		fmt.Fprintf(w, "%-38s only in old file\n", k)
	}
	for _, k := range d.OnlyNew {
		fmt.Fprintf(w, "%-38s only in new file\n", k)
	}
}

// HistorySchema identifies the append-only benchmark history record.
const HistorySchema = "fim-bench-history/v1"

// HistoryEntry is one line of results/BENCH_history.jsonl: the cells
// of one benchmark run plus its provenance, so trends plot without
// re-reading every archived bench file.
type HistoryEntry struct {
	Schema          string               `json:"schema"`
	GeneratedUnixNS int64                `json:"generated_unix_ns,omitempty"`
	Label           string               `json:"label,omitempty"`
	Provenance      Provenance           `json:"provenance,omitempty"`
	Cells           map[string]BenchCell `json:"cells"`
}

// NewHistoryEntry summarizes a bench file into a history line.
func NewHistoryEntry(f *BenchFile, label string) (*HistoryEntry, error) {
	cells, err := BenchCells(f)
	if err != nil {
		return nil, err
	}
	e := &HistoryEntry{
		Schema:          HistorySchema,
		GeneratedUnixNS: f.GeneratedUnixNS,
		Label:           label,
		Provenance:      f.Provenance,
		Cells:           make(map[string]BenchCell, len(cells)),
	}
	for k, c := range cells {
		e.Cells[k.String()] = c
	}
	return e, nil
}

// AppendHistory appends one JSONL line to path, creating the file if
// absent. Append-only: existing lines are never rewritten.
func AppendHistory(path string, e *HistoryEntry) error {
	if e.Schema != HistorySchema {
		return fmt.Errorf("export: history entry schema %q, want %q", e.Schema, HistorySchema)
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// ReadHistory decodes a history JSONL stream, validating each line's
// schema tag.
func ReadHistory(r io.Reader) ([]HistoryEntry, error) {
	var out []HistoryEntry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("export: history line %d: %w", line, err)
		}
		if e.Schema != HistorySchema {
			return nil, fmt.Errorf("export: history line %d schema %q, want %q", line, e.Schema, HistorySchema)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
