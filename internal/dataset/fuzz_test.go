package dataset

import (
	"errors"
	"strings"
	"testing"
)

// requireSameParse fails t unless ReadFIMILimits and the reference
// reader agree on input under lim: both reject with the same error
// (every *ParseError field included), or both accept the same
// transactions. It returns ReadFIMILimits' result.
func requireSameParse(t *testing.T, input string, lim Limits) (*DB, error) {
	t.Helper()
	got, err := ReadFIMILimits("fuzz", strings.NewReader(input), lim)
	want, werr := referenceReadFIMILimits("fuzz", strings.NewReader(input), lim)
	if (err == nil) != (werr == nil) {
		t.Fatalf("accept/reject differs from the reference: got err %v, reference err %v", err, werr)
	}
	if werr != nil {
		var pe, wpe *ParseError
		if errors.As(err, &pe) != errors.As(werr, &wpe) || err.Error() != werr.Error() {
			t.Fatalf("error %v (%T) differs from the reference's %v (%T)", err, err, werr, werr)
		}
		if wpe != nil && *pe != *wpe {
			t.Fatalf("ParseError %+v differs from the reference's %+v", *pe, *wpe)
		}
		return nil, err
	}
	requireSameTransactions(t, got, want)
	return got, nil
}

// requireSameTransactions fails t unless got and want hold the same
// transactions in the same order.
func requireSameTransactions(t *testing.T, got, want *DB) {
	t.Helper()
	if got.NumTransactions() != want.NumTransactions() {
		t.Fatalf("%d transactions, reference has %d", got.NumTransactions(), want.NumTransactions())
	}
	for i := range want.Transactions {
		if !got.Transactions[i].Equal(want.Transactions[i]) {
			t.Fatalf("transaction %d = %v, reference has %v", i, got.Transactions[i], want.Transactions[i])
		}
	}
}

// FuzzReadFIMI checks the reader never panics, agrees with the
// reference reader on every input, and that every accepted database is
// well-formed (sorted, deduplicated transactions) and round-trips
// through WriteFIMI.
func FuzzReadFIMI(f *testing.F) {
	f.Add("1 2 3\n4 5\n")
	f.Add("")
	f.Add("  7   7 7\n\n\n9\n")
	f.Add("999999999 0\n")
	f.Add("1 x\n")
	f.Add("-1\n")
	f.Add("\t\r\n 3\r\n")
	f.Add("4294967295\n")            // max uint32 item
	f.Add("4294967296\n")            // one past: out of range
	f.Add("99999999999999999999\n")  // far out of range
	f.Add("-0\n")                    // negative zero token
	f.Add("1 -2 3\n")                // negative mid-transaction
	f.Add("2.5\n")                   // non-integer token
	f.Add("+3\n")                    // explicit plus sign
	f.Add("0x10\n")                  // hex prefix
	f.Add("1\x002\n")                // NUL inside a token
	f.Add("7 \t 8\r")                // trailing CR without LF
	f.Add(" \t \r \n")               // whitespace-only lines
	f.Add("1234567890\n")            // 10 digits in range: strconv's path
	f.Add("0000000007\n")            // 10 digits, leading zeros
	f.Add("4294967295 4294967295\n") // duplicate max item
	f.Add("9999999999\n")            // 10 digits out of range
	f.Fuzz(func(t *testing.T, input string) {
		db, err := requireSameParse(t, input, Limits{})
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, tr := range db.Transactions {
			if len(tr) == 0 {
				t.Fatal("empty transaction accepted")
			}
			if !tr.IsSorted() {
				t.Fatalf("unsorted transaction: %v", tr)
			}
		}
		var buf strings.Builder
		if err := WriteFIMI(&buf, db); err != nil {
			t.Fatalf("WriteFIMI: %v", err)
		}
		back, err := ReadFIMI("fuzz2", strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.NumTransactions() != db.NumTransactions() {
			t.Fatalf("round trip changed size: %d vs %d", back.NumTransactions(), db.NumTransactions())
		}
		for i := range db.Transactions {
			if !back.Transactions[i].Equal(db.Transactions[i]) {
				t.Fatalf("round trip changed transaction %d", i)
			}
		}
	})
}

// FuzzReadFIMILimits checks the hardened reader never panics, agrees
// with the reference reader, never accepts a database outside its
// limits, and fails limit breaches with a typed *ParseError — the
// untrusted-upload contract the serving layer depends on.
func FuzzReadFIMILimits(f *testing.F) {
	// Seeds around each limit boundary.
	f.Add("1 2 3\n4 5\n", 32, 4, int64(8))
	f.Add(strings.Repeat("7 ", 40)+"\n", 16, 0, int64(0))              // line over MaxLineBytes
	f.Add("1\n2\n3\n4\n5\n", 0, 3, int64(0))                           // transactions over limit
	f.Add("1 2 3 4 5 6 7 8 9 10\n", 0, 0, int64(5))                    // items over limit
	f.Add("5 5 5 5\n", 0, 0, int64(3))                                 // dedup must not evade the item cap
	f.Add("11111111\n", 8, 0, int64(0))                                // line exactly at the cap
	f.Add("\n\n\n9\n", 4, 1, int64(1))                                 // blank lines are free
	f.Add("4294967295 0\n-1\n", 64, 8, int64(16))                      // parse error under limits
	f.Add(strings.Repeat("1\n", 100), 0, 99, int64(0))                 // one past MaxTransactions
	f.Add("1 2\n"+strings.Repeat("3 ", 1000)+"\n", 1024, 10, int64(3)) // item cap binds before line cap
	f.Add("1234567890 0000000007\n", 22, 1, int64(2))                  // 10-digit tokens at the caps
	f.Add("4294967295 4294967295\n9999999999\n", 0, 0, int64(0))       // dedup, then out of range
	f.Fuzz(func(t *testing.T, input string, maxLine, maxTrans int, maxItems int64) {
		// Keep limits in a sane range so the fuzzer explores behaviour,
		// not int overflow of the limits themselves.
		if maxLine < 0 || maxTrans < 0 || maxItems < 0 {
			return
		}
		lim := Limits{MaxLineBytes: maxLine, MaxTransactions: maxTrans, MaxTotalItems: maxItems}
		db, err := requireSameParse(t, input, lim)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) && strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("limit breach not a *ParseError: %v", err)
			}
			return
		}
		// Accepted: the database must actually be inside the limits.
		if maxTrans > 0 && db.NumTransactions() > maxTrans {
			t.Fatalf("accepted %d transactions over limit %d", db.NumTransactions(), maxTrans)
		}
		var items int64
		for _, tr := range db.Transactions {
			if maxLine > 0 && len(tr)*2-1 > maxLine+1 {
				t.Fatalf("accepted a transaction longer than any legal line")
			}
			items += int64(len(tr))
		}
		if maxItems > 0 && items > maxItems {
			t.Fatalf("accepted %d items over limit %d", items, maxItems)
		}
	})
}
