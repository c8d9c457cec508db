package dataset_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/datasets"
)

// pumsbLike is a quarter-scale pumsb-like table (12,261 rows of 74
// items, 1,066 distinct), built once per test binary.
var pumsbLike = sync.OnceValue(func() *dataset.DB { return datasets.Pumsb(0.25) })

// Sinks keep the measured calls' results live.
var (
	dbSink  *dataset.DB
	recSink *dataset.Recoded
)

// BenchmarkReadFIMI parses the FIMI text of the pumsb-like table;
// MB/s is input bytes, and allocs/op should scale with arena blocks
// and transactions, not with tokens.
func BenchmarkReadFIMI(b *testing.B) {
	var buf bytes.Buffer
	if err := dataset.WriteFIMI(&buf, pumsbLike()); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := dataset.ReadFIMI("pumsb", bytes.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		dbSink = db
	}
}

// BenchmarkRecodeOrdered recodes the pumsb-like table at 10% support
// under both dense-code orders.
func BenchmarkRecodeOrdered(b *testing.B) {
	db := pumsbLike()
	minSup := db.AbsoluteSupport(0.1)
	for _, c := range []struct {
		name  string
		order dataset.ItemOrder
	}{{"ByCode", dataset.ByCode}, {"ByFrequency", dataset.ByFrequency}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recSink = db.RecodeOrdered(minSup, c.order)
			}
		})
	}
}
