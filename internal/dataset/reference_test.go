package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/itemset"
)

// referenceReadFIMILimits is the straightforward FIMI reader the
// arena parser replaced, kept verbatim as the oracle the differential
// fuzzers and arena tests hold ReadFIMILimits to: one string per
// token, one items slice per line, itemset.New to sort and dedup.
func referenceReadFIMILimits(name string, r io.Reader, lim Limits) (*DB, error) {
	db := &DB{Name: name}
	sc := bufio.NewScanner(r)
	maxLine := 1 << 24
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
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		var items []itemset.Item
		i := 0
		for i < len(line) {
			// skip whitespace
			for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
				i++
			}
			if i >= len(line) {
				break
			}
			start := i
			for i < len(line) && line[i] != ' ' && line[i] != '\t' && line[i] != '\r' {
				i++
			}
			tok := string(line[start:i])
			if tok[0] == '-' {
				return nil, &ParseError{Name: name, Line: lineNo, Token: tok, Msg: "negative item"}
			}
			v, err := strconv.ParseUint(tok, 10, 32)
			if err != nil {
				msg := "bad item"
				if ne, ok := err.(*strconv.NumError); ok && ne.Err == strconv.ErrRange {
					msg = "item out of range"
				}
				return nil, &ParseError{Name: name, Line: lineNo, Token: tok, Msg: msg}
			}
			items = append(items, itemset.Item(v))
		}
		if len(items) == 0 {
			continue
		}
		totalItems += int64(len(items))
		if lim.MaxTotalItems > 0 && totalItems > lim.MaxTotalItems {
			return nil, &ParseError{Name: name, Line: lineNo,
				Msg: fmt.Sprintf("total item count exceeds limit %d", lim.MaxTotalItems)}
		}
		if lim.MaxTransactions > 0 && len(db.Transactions) >= lim.MaxTransactions {
			return nil, &ParseError{Name: name, Line: lineNo,
				Msg: fmt.Sprintf("transaction count exceeds limit %d", lim.MaxTransactions)}
		}
		db.Transactions = append(db.Transactions, itemset.New(items...))
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
