package fim

// End-to-end tests for the span timeline and kernel counters: a real
// mine on chess with Options.SpanTrace exports valid Chrome trace-event
// JSON (one row per worker), whose busy totals cross-check against the
// event stream's phase_end load metrics, and the kernel_counters event
// reports nonzero work for the representation that ran.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/obs/export"
)

// mineTraced runs one mine with a span recorder attached alongside an
// event recorder.
func mineTraced(t *testing.T, db *DB, opt Options) (*SpanRecorder, []Event) {
	t.Helper()
	rec := &EventRecorder{}
	tr := NewSpanRecorder()
	opt.Observer = rec
	opt.SpanTrace = tr
	res, err := MineContext(context.Background(), db, 0.5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Len() == 0 {
		t.Fatal("traced mine returned no itemsets")
	}
	return tr, rec.Events()
}

// TestTraceExportChess: the acceptance path — mine chess, build the
// trace, schema-check it, count worker rows, and round-trip it through
// the JSON writer/reader.
func TestTraceExportChess(t *testing.T) {
	db, err := Dataset("chess", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	tr, events := mineTraced(t, db, Options{
		Algorithm: Eclat, Representation: Tidset, Workers: workers,
	})
	tf := export.BuildTrace(tr)
	if err := export.ValidateTrace(tf); err != nil {
		t.Fatalf("trace schema: %v", err)
	}
	rows := tf.WorkerRows()
	if len(rows) == 0 || len(rows) > workers {
		t.Fatalf("worker rows %v for a %d-worker run", rows, workers)
	}
	// Every worker that reported busy time in the event stream has its
	// own timeline row.
	busy := map[int]bool{}
	for _, e := range events {
		if e.Type == EventPhaseEnd {
			for _, l := range e.Load {
				if l.BusyNS > 0 {
					busy[l.Worker] = true
				}
			}
		}
	}
	rowSet := map[int]bool{}
	for _, tid := range rows {
		rowSet[tid-1] = true
	}
	for w := range busy {
		if !rowSet[w] {
			t.Errorf("worker %d has busy time but no timeline row (rows %v)", w, rows)
		}
	}

	var buf bytes.Buffer
	if err := export.WriteTrace(&buf, tf); err != nil {
		t.Fatal(err)
	}
	back, err := export.ReadTraceFile(&buf)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.TraceEvents) != len(tf.TraceEvents) {
		t.Errorf("round trip kept %d of %d trace events", len(back.TraceEvents), len(tf.TraceEvents))
	}
}

// TestTraceCrossCheck: the trace's per-worker chunk totals agree with
// the phase_end load metrics within the validator's 5% bound — both
// sinks are fed the same measured durations.
func TestTraceCrossCheck(t *testing.T) {
	db, err := Dataset("chess", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Apriori, Eclat} {
		tr, events := mineTraced(t, db, Options{
			Algorithm: algo, Representation: Diffset, Workers: 4,
		})
		tf := export.BuildTrace(tr)
		if err := export.CrossCheckTrace(tf, events, 0.05); err != nil {
			t.Errorf("%v: %v", algo, err)
		}
	}
}

// TestKernelCountersEmitted: an observed run ends with one
// kernel_counters event whose contents match the representation that
// ran.
func TestKernelCountersEmitted(t *testing.T) {
	db := runctlDB(t)
	cases := []struct {
		rep  Representation
		want string
	}{
		{Tidset, "tids_compared"},
		{Bitvector, "words_anded"},
		{Diffset, "tids_compared"},
		{Tiled, "summary_words_anded"},
	}
	for _, c := range cases {
		_, err, events := mineRecorded(t, db, Options{
			Algorithm: Eclat, Representation: c.rep, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		var counters map[string]int64
		n := 0
		for _, e := range events {
			if e.Type == EventKernelCounters {
				counters = e.Counters
				n++
			}
		}
		if n != 1 {
			t.Fatalf("%v: %d kernel_counters events, want 1", c.rep, n)
		}
		if counters[c.want] <= 0 {
			t.Errorf("%v: counter %q = %d, want > 0 (counters: %v)", c.rep, c.want, counters[c.want], counters)
		}
	}
}

// TestSpanTraceResultUnchanged: attaching the span recorder does not
// change the mining answer.
func TestSpanTraceResultUnchanged(t *testing.T) {
	db := runctlDB(t)
	ref, err := Mine(db, 0.5, Options{Algorithm: Eclat, Representation: Tidset, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewSpanRecorder()
	res, err := Mine(db, 0.5, Options{Algorithm: Eclat, Representation: Tidset, Workers: 4, SpanTrace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(ref) {
		t.Error("traced run disagrees with untraced reference")
	}
	if len(tr.Spans()) == 0 {
		t.Error("span recorder saw no spans")
	}
}
