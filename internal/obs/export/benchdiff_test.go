package export

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureBench builds a fim-bench/v1 file with the given per-cell wall
// times, keyed "dataset/algorithm" with fixed rep/threads.
func fixtureBench(walls map[string]float64, itemsets int64) *BenchFile {
	var results []Bench
	for cell, wall := range walls {
		parts := strings.SplitN(cell, "/", 2)
		results = append(results, Bench{
			Schema: BenchSchema, Dataset: parts[0], Algorithm: parts[1],
			Representation: "diffset", Threads: 2, Rep: 1,
			WallSeconds: wall, PeakBytes: 1 << 20, Itemsets: itemsets,
		})
	}
	return &BenchFile{Schema: BenchSchema, Results: results}
}

// TestDiffBenchDetectsSlowdown: the acceptance fixture — an injected 2x
// slowdown trips a 1.5x tolerance and passes a 3x one.
func TestDiffBenchDetectsSlowdown(t *testing.T) {
	oldF := fixtureBench(map[string]float64{"chess/eclat": 1.0, "mushroom/eclat": 0.5}, 100)
	newF := fixtureBench(map[string]float64{"chess/eclat": 2.0, "mushroom/eclat": 0.5}, 100)
	d, err := DiffBench(oldF, newF)
	if err != nil {
		t.Fatal(err)
	}
	regs := d.Regressions(1.5)
	if len(regs) != 1 || regs[0].Key.Dataset != "chess" {
		t.Fatalf("Regressions(1.5) = %+v, want the 2x chess cell", regs)
	}
	if r := regs[0].WallRatio; r < 1.99 || r > 2.01 {
		t.Errorf("wall ratio = %v, want 2.0", r)
	}
	if regs := d.Regressions(3); len(regs) != 0 {
		t.Errorf("Regressions(3) = %+v, want none", regs)
	}
	if mm := d.ItemsetMismatches(); len(mm) != 0 {
		t.Errorf("ItemsetMismatches() = %+v, want none", mm)
	}
}

// TestDiffBenchItemsetMismatch: a count drift is flagged on the cell.
func TestDiffBenchItemsetMismatch(t *testing.T) {
	oldF := fixtureBench(map[string]float64{"chess/eclat": 1.0}, 100)
	newF := fixtureBench(map[string]float64{"chess/eclat": 1.0}, 99)
	d, err := DiffBench(oldF, newF)
	if err != nil {
		t.Fatal(err)
	}
	mm := d.ItemsetMismatches()
	if len(mm) != 1 || mm[0].OldItemsets != 100 || mm[0].NewItemsets != 99 {
		t.Fatalf("ItemsetMismatches() = %+v", mm)
	}
	var buf strings.Builder
	FormatBenchDiff(&buf, d, 1.5)
	if !strings.Contains(buf.String(), "COUNT MISMATCH") {
		t.Errorf("formatted diff does not flag the mismatch:\n%s", buf.String())
	}
}

// TestDiffBenchSubset: cells on one side only are reported, never
// compared; disjoint files are an error.
func TestDiffBenchSubset(t *testing.T) {
	full := fixtureBench(map[string]float64{"chess/eclat": 1.0, "mushroom/eclat": 0.5}, 100)
	sub := fixtureBench(map[string]float64{"mushroom/eclat": 0.5}, 100)
	d, err := DiffBench(full, sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cells) != 1 || len(d.OnlyOld) != 1 || d.OnlyOld[0].Dataset != "chess" {
		t.Errorf("subset diff: cells=%d onlyOld=%v", len(d.Cells), d.OnlyOld)
	}
	disjoint := fixtureBench(map[string]float64{"pumsb/apriori": 1.0}, 7)
	if _, err := DiffBench(full, disjoint); err == nil {
		t.Error("disjoint files did not error")
	}
}

// TestBenchCellsAggregates: min wall, max peak, rep counting, and
// rejection of itemset disagreement between reps of one cell.
func TestBenchCellsAggregates(t *testing.T) {
	f := &BenchFile{Schema: BenchSchema, Results: []Bench{
		{Schema: BenchSchema, Dataset: "chess", Algorithm: "eclat", Representation: "diffset",
			Threads: 2, Rep: 1, WallSeconds: 1.0, PeakBytes: 100, Itemsets: 10},
		{Schema: BenchSchema, Dataset: "chess", Algorithm: "eclat", Representation: "diffset",
			Threads: 2, Rep: 2, WallSeconds: 0.8, PeakBytes: 300, Itemsets: 10},
	}}
	cells, err := BenchCells(f)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[BenchKey{Dataset: "chess", Algorithm: "eclat", Representation: "diffset", Threads: 2}]
	if c.Wall != 0.8 || c.Peak != 300 || c.Reps != 2 || c.Itemsets != 10 {
		t.Errorf("aggregated cell = %+v", c)
	}
	f.Results[1].Itemsets = 11
	if _, err := BenchCells(f); err == nil {
		t.Error("itemset disagreement between reps not rejected")
	}
}

// TestScheduleCellsDistinct: a schedule variant is its own cell (keyed
// with an @sched suffix), and StripSchedule collapses it onto the base
// cell so a steal-mode file diffs against a default-schedule baseline.
func TestScheduleCellsDistinct(t *testing.T) {
	f := &BenchFile{Schema: BenchSchema, Results: []Bench{
		{Schema: BenchSchema, Dataset: "chess", Algorithm: "eclat", Representation: "diffset",
			Threads: 2, Rep: 1, WallSeconds: 1.0, PeakBytes: 100, Itemsets: 10},
		{Schema: BenchSchema, Dataset: "chess", Algorithm: "eclat", Representation: "diffset",
			Schedule: "steal", Threads: 2, Rep: 1, WallSeconds: 0.7, PeakBytes: 100, Itemsets: 10},
	}}
	cells, err := BenchCells(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %+v, want the steal variant kept distinct", cells)
	}
	k := BenchKey{Dataset: "chess", Algorithm: "eclat", Representation: "diffset",
		Schedule: "steal", Threads: 2}
	if k.String() != "chess/eclat/diffset/t2@steal" {
		t.Errorf("key string = %q", k.String())
	}
	if c, ok := cells[k]; !ok || c.Wall != 0.7 {
		t.Errorf("steal cell = %+v ok=%v", c, ok)
	}

	// Stripping the schedule merges the variant into the base cell: the
	// steal results now aggregate as extra reps of the default cell.
	StripSchedule(f)
	cells, err = BenchCells(f)
	if err != nil {
		t.Fatal(err)
	}
	base := BenchKey{Dataset: "chess", Algorithm: "eclat", Representation: "diffset", Threads: 2}
	if len(cells) != 1 {
		t.Fatalf("post-strip cells = %+v, want one merged cell", cells)
	}
	if c := cells[base]; c.Wall != 0.7 || c.Reps != 2 {
		t.Errorf("merged cell = %+v, want min wall 0.7 over 2 reps", c)
	}
}

// TestHistoryAppendRead: entries append as JSONL and read back in
// order; a second append does not disturb the first.
func TestHistoryAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	f1 := fixtureBench(map[string]float64{"chess/eclat": 1.0}, 100)
	f1.GeneratedUnixNS = 111
	f2 := fixtureBench(map[string]float64{"chess/eclat": 1.1}, 100)
	f2.GeneratedUnixNS = 222
	for i, f := range []*BenchFile{f1, f2} {
		e, err := NewHistoryEntry(f, "run")
		if err != nil {
			t.Fatal(err)
		}
		if err := AppendHistory(path, e); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	r, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	entries, err := ReadHistory(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].GeneratedUnixNS != 111 || entries[1].GeneratedUnixNS != 222 {
		t.Fatalf("history = %+v", entries)
	}
	c, ok := entries[1].Cells["chess/eclat/diffset/t2"]
	if !ok || c.Wall != 1.1 {
		t.Errorf("entry cells = %+v", entries[1].Cells)
	}
}

// TestProvenanceStamped: NewBenchFile records build facts, and files
// written before the provenance fields existed still validate.
func TestProvenanceStamped(t *testing.T) {
	f := NewBenchFile([]Bench{{
		Schema: BenchSchema, Dataset: "chess", Algorithm: "eclat",
		Representation: "diffset", Threads: 1, Rep: 1, Itemsets: 1,
	}})
	if f.GoVersion == "" || f.GOMAXPROCS < 1 {
		t.Errorf("provenance = %+v", f.Provenance)
	}
	legacy := strings.NewReader(`{"schema":"fim-bench/v1","results":[
		{"schema":"fim-bench/v1","dataset":"chess","algorithm":"eclat",
		 "threads":1,"rep":1,"wall_seconds":0.1,"peak_bytes":1,"itemsets":1}]}`)
	if _, err := ReadBenchFile(legacy); err != nil {
		t.Errorf("pre-provenance file rejected: %v", err)
	}
}
