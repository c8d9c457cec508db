package export

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// BenchSchema identifies the fimbench result JSON layout (one document
// per run, an array of them per experiment file). Future PRs diff perf
// against committed BENCH_*.json baselines, so the field set is frozen
// per schema version.
const BenchSchema = "fim-bench/v1"

// Bench is one benchmark measurement: a single (dataset, algorithm,
// representation, threads) run.
type Bench struct {
	Schema         string `json:"schema"`
	Dataset        string `json:"dataset"`
	Algorithm      string `json:"algorithm"`
	Representation string `json:"representation,omitempty"`
	// Schedule names a non-default loop schedule (e.g. "steal"); empty
	// means the algorithm's own default. Files written before the field
	// existed decode with it empty, so the v1 schema is unchanged.
	Schedule string `json:"schedule,omitempty"`
	// Layout names a non-default tidset memory layout ("tiled" for the
	// tile-partitioned kernels); empty means the representation's flat
	// default. Same backward-compatibility story as Schedule: files
	// written before the field existed decode with it empty.
	Layout      string  `json:"layout,omitempty"`
	Threads     int     `json:"threads"`
	Rep         int     `json:"rep"`
	WallSeconds float64 `json:"wall_seconds"`
	PeakBytes   int64   `json:"peak_bytes"`
	Itemsets    int64   `json:"itemsets"`
}

// Provenance records where a benchmark file came from, so a regression
// flagged months later can be traced to a commit and a machine. All
// fields are optional in the schema: files written before this stamp
// existed still validate, and comparisons never key on provenance.
type Provenance struct {
	GitCommit  string `json:"git_commit,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Hostname   string `json:"hostname,omitempty"`
}

// CollectProvenance stamps the running binary's build and host facts:
// the vcs revision embedded by the Go linker (empty for non-VCS
// builds and plain `go run`), the toolchain version, GOMAXPROCS, and
// the hostname.
func CollectProvenance() Provenance {
	p := Provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if h, err := os.Hostname(); err == nil {
		p.Hostname = h
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.GitCommit = s.Value
			}
		}
	}
	return p
}

// BenchFile is the document fimbench -json writes: the schema tag, a
// generation stamp, provenance, and the measurements.
type BenchFile struct {
	Schema          string `json:"schema"`
	GeneratedUnixNS int64  `json:"generated_unix_ns,omitempty"`
	Provenance
	Results []Bench `json:"results"`
}

// NewBenchFile wraps results in a stamped document.
func NewBenchFile(results []Bench) *BenchFile {
	return &BenchFile{
		Schema:          BenchSchema,
		GeneratedUnixNS: time.Now().UnixNano(),
		Provenance:      CollectProvenance(),
		Results:         results,
	}
}

// WriteBenchFile JSON-encodes f (indented) to w.
func WriteBenchFile(w io.Writer, f *BenchFile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadBenchFile decodes and validates one benchmark document.
func ReadBenchFile(r io.Reader) (*BenchFile, error) {
	var f BenchFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, err
	}
	if err := ValidateBenchFile(&f); err != nil {
		return nil, err
	}
	return &f, nil
}

// ValidateBenchFile checks a benchmark document against the
// fim-bench/v1 schema invariants.
func ValidateBenchFile(f *BenchFile) error {
	if f.Schema != BenchSchema {
		return fmt.Errorf("export: bench schema %q, want %q", f.Schema, BenchSchema)
	}
	if len(f.Results) == 0 {
		return fmt.Errorf("export: bench file has no results")
	}
	for i, b := range f.Results {
		if b.Schema != BenchSchema {
			return fmt.Errorf("export: result %d schema %q, want %q", i, b.Schema, BenchSchema)
		}
		if b.Dataset == "" || b.Algorithm == "" {
			return fmt.Errorf("export: result %d missing dataset or algorithm", i)
		}
		if b.Threads < 1 {
			return fmt.Errorf("export: result %d threads %d below 1", i, b.Threads)
		}
		if b.Rep < 1 {
			return fmt.Errorf("export: result %d rep %d below 1", i, b.Rep)
		}
		if b.WallSeconds < 0 || b.PeakBytes < 0 || b.Itemsets < 0 {
			return fmt.Errorf("export: result %d has negative measurements", i)
		}
	}
	return nil
}
