package wal_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mtier/internal/core"
	"mtier/internal/dispatch"
	"mtier/internal/workload"
)

// The crash harness damages a small journal and a small lease ledger in
// every way a crash or bitrot can, through the formats' own open calls:
// cut at every byte offset (power loss mid-append), and every byte
// flipped (storage corruption). Its oracle splits lines itself rather
// than trusting the scanner under test.

// lineSpan locates one newline-terminated line of a log image.
type lineSpan struct{ start, end int } // end is just past the newline

func spans(t *testing.T, data []byte) []lineSpan {
	t.Helper()
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatal("log image does not end in a newline")
	}
	var out []lineSpan
	start := 0
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			continue
		}
		out = append(out, lineSpan{start, start + len(line)})
		start += len(line)
	}
	return out
}

// wholeLines returns how many lines end at or before cut, and the
// offset where the last of them ends.
func wholeLines(lines []lineSpan, cut int) (n, end int) {
	for _, l := range lines {
		if l.end > cut {
			break
		}
		n, end = n+1, l.end
	}
	return n, end
}

// flip is one single-byte corruption of a log image.
type flip struct {
	pos     int
	line    int // 0-based index of the damaged line
	data    []byte
	tornEnd bool // the flip hit the final newline: the last line is now a tail
}

// location is the position the open error must name: the damaged line,
// or — when the flip turned the line's first byte into a newline — the
// remainder that now starts on the next line.
func (f flip) location(lines []lineSpan) string {
	line, off := f.line+1, lines[f.line].start
	if f.data[f.pos] == '\n' && f.pos == off {
		line, off = line+1, f.pos+1
	}
	return fmt.Sprintf("line %d (byte offset %d)", line, off)
}

// forEachFlip calls fn with every byte position of data flipped under
// each mask, one at a time.
func forEachFlip(data []byte, lines []lineSpan, fn func(flip), masks ...byte) {
	d := append([]byte(nil), data...)
	for _, m := range masks {
		for i, l := range lines {
			for p := l.start; p < l.end; p++ {
				d[p] ^= m
				fn(flip{pos: p, line: i, data: d, tornEnd: p == len(d)-1})
				d[p] ^= m
			}
		}
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(st.Size())
}

// journalImage writes a three-record sweep journal and returns its
// bytes, keys and result payloads in line order.
func journalImage(t *testing.T, dir string) (data []byte, keys []string, results [][]byte) {
	t.Helper()
	path := filepath.Join(dir, "journal-src.jsonl")
	j, err := core.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := core.Config{Kind: core.Torus3D, Endpoints: 8, Workload: workload.AllReduce, Params: workload.Params{Seed: seed}}
		res, err := core.Run(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		key, err := core.CellKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(key, res); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		keys, results = append(keys, key), append(results, b)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, keys, results
}

// TestJournalCrashCuts: a journal cut at any byte offset opens with
// exactly the whole lines before the cut, and the rest is truncated
// away; ReadJournal sees the same records and leaves the file alone.
func TestJournalCrashCuts(t *testing.T) {
	dir := t.TempDir()
	data, keys, _ := journalImage(t, dir)
	lines := spans(t, data)
	path := filepath.Join(dir, "sweep.jsonl")
	for cut := 0; cut <= len(data); cut++ {
		whole, end := wholeLines(lines, cut)
		writeFile(t, path, data[:cut])
		cells, err := core.ReadJournal(path)
		if err != nil {
			t.Fatalf("cut %d: ReadJournal: %v", cut, err)
		}
		if len(cells) != whole || fileSize(t, path) != cut {
			t.Fatalf("cut %d: ReadJournal kept %d records and left %d bytes, want %d and %d", cut, len(cells), fileSize(t, path), whole, cut)
		}
		j, err := core.OpenJournal(path)
		if err != nil {
			t.Fatalf("cut %d: OpenJournal: %v", cut, err)
		}
		if j.Len() != whole {
			t.Fatalf("cut %d: OpenJournal kept %d records, want %d", cut, j.Len(), whole)
		}
		for _, key := range keys[:whole] {
			if _, ok := j.Cached(key); !ok {
				t.Fatalf("cut %d: record %.12s… lost", cut, key)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fileSize(t, path); got != end {
			t.Fatalf("cut %d: file is %d bytes after open, want %d", cut, got, end)
		}
	}
}

// TestJournalCrashFlips: a journal with any one byte flipped is either
// rejected with the damaged line and offset — by OpenJournal, and as the
// first issue of VerifyJournal — or accepted only with every record
// intact. The result payload is checksummed, so the one thing a flip can
// change undetected is a record's key.
func TestJournalCrashFlips(t *testing.T) {
	dir := t.TempDir()
	data, keys, results := journalImage(t, dir)
	lines := spans(t, data)
	path := filepath.Join(dir, "sweep.jsonl")
	forEachFlip(data, lines, func(f flip) {
		writeFile(t, path, f.data)
		rep, err := core.VerifyJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		j, err := core.OpenJournal(path)
		if err != nil {
			want := f.location(lines)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("flip at %d: error %q does not name %s", f.pos, err, want)
			}
			if rep.Clean() || fmt.Sprintf("line %d (byte offset %d)", rep.Issues[0].Line, rep.Issues[0].Offset) != want {
				t.Fatalf("flip at %d: OpenJournal rejected %s but VerifyJournal reported %+v", f.pos, want, rep.Issues)
			}
			return
		}
		j.Close()
		if !rep.Clean() {
			t.Fatalf("flip at %d: OpenJournal accepted what VerifyJournal rejected: %+v", f.pos, rep.Issues)
		}
		cells, err := core.ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := len(keys)
		if f.tornEnd {
			wantLen--
		}
		if len(cells) != wantLen {
			t.Fatalf("flip at %d: accepted %d records, want %d", f.pos, len(cells), wantLen)
		}
		seen := make(map[int]bool)
		for key, res := range cells {
			i := slices.Index(keys, key)
			if i < 0 {
				i = f.line // only the damaged record's key can have changed
			}
			if seen[i] || (f.tornEnd && i == f.line) {
				t.Fatalf("flip at %d: record %d accepted twice or from a torn tail", f.pos, i)
			}
			seen[i] = true
			b, err := json.Marshal(res)
			if err != nil || !bytes.Equal(b, results[i]) {
				t.Fatalf("flip at %d: record %d accepted with a changed payload", f.pos, i)
			}
		}
	}, 0x01, 0x80)
}

// ledgerImage writes a small lease ledger and returns its bytes and
// records in line order.
func ledgerImage(t *testing.T, dir string) ([]byte, []dispatch.Record) {
	t.Helper()
	path := filepath.Join(dir, "ledger-src.jsonl")
	l, recs, err := dispatch.OpenLedger(path)
	if err != nil || len(recs) != 0 {
		t.Fatalf("fresh ledger: %v, %d records", err, len(recs))
	}
	key := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	want := []dispatch.Record{
		{Op: dispatch.OpLease, Key: key, Worker: 1},
		{Op: dispatch.OpRenew, Key: key, Worker: 1},
		{Op: dispatch.OpAbandon, Key: key, Worker: 1, Reason: "lease expired"},
		{Op: dispatch.OpLease, Key: key, Worker: 2},
		{Op: dispatch.OpPoison, Key: key, Reason: "panic: boom", Stack: "goroutine 1 [running]:"},
		{Op: dispatch.OpComplete, Key: key, Worker: 3},
	}
	for i := range want {
		if err := l.Append(want[i]); err != nil {
			t.Fatal(err)
		}
		want[i].Schema = dispatch.LedgerSchema
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, want
}

// TestLedgerCrashCuts: a ledger cut at any byte offset opens with
// exactly the whole lines before the cut, and the rest is truncated
// away.
func TestLedgerCrashCuts(t *testing.T) {
	dir := t.TempDir()
	data, want := ledgerImage(t, dir)
	lines := spans(t, data)
	path := filepath.Join(dir, "ledger.jsonl")
	for cut := 0; cut <= len(data); cut++ {
		whole, end := wholeLines(lines, cut)
		writeFile(t, path, data[:cut])
		l, recs, err := dispatch.OpenLedger(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if len(recs) != whole {
			t.Fatalf("cut %d: kept %d records, want %d", cut, len(recs), whole)
		}
		for i := range recs {
			if recs[i] != want[i] {
				t.Fatalf("cut %d: record %d is %+v, want %+v", cut, i, recs[i], want[i])
			}
		}
		if got := fileSize(t, path); got != end {
			t.Fatalf("cut %d: file is %d bytes after open, want %d", cut, got, end)
		}
	}
}

var hexKey = regexp.MustCompile(`^[0-9a-f]{64}$`)

// validLease restates the ledger's record rules independently of
// dispatch.ParseRecord.
func validLease(r dispatch.Record) bool {
	switch r.Op {
	case dispatch.OpLease, dispatch.OpRenew, dispatch.OpComplete, dispatch.OpAbandon:
		if r.Worker < 1 {
			return false
		}
	case dispatch.OpPoison:
	default:
		return false
	}
	return r.Schema == dispatch.LedgerSchema && hexKey.MatchString(r.Key)
}

// TestLedgerCrashFlips: a ledger with any one byte flipped is either
// rejected with the damaged line and offset, or accepted with every
// other record intact and the damaged one still a valid record. Ledger
// records carry no checksum, so a flip inside a field's value (a key
// digit, a worker number, a reason) can legitimately survive.
func TestLedgerCrashFlips(t *testing.T) {
	dir := t.TempDir()
	data, want := ledgerImage(t, dir)
	lines := spans(t, data)
	path := filepath.Join(dir, "ledger.jsonl")
	forEachFlip(data, lines, func(f flip) {
		writeFile(t, path, f.data)
		l, recs, err := dispatch.OpenLedger(path)
		if err != nil {
			if loc := f.location(lines); !strings.Contains(err.Error(), loc) {
				t.Fatalf("flip at %d: error %q does not name %s", f.pos, err, loc)
			}
			return
		}
		l.Close()
		wantLen := len(want)
		if f.tornEnd {
			wantLen--
		}
		if len(recs) != wantLen {
			t.Fatalf("flip at %d (%q): accepted %d records, want %d", f.pos, f.data[lines[f.line].start:lines[f.line].end], len(recs), wantLen)
		}
		for i, r := range recs {
			if i == f.line {
				if !validLease(r) {
					t.Fatalf("flip at %d: accepted an invalid record %+v", f.pos, r)
				}
			} else if r != want[i] {
				t.Fatalf("flip at %d: undamaged record %d changed to %+v", f.pos, i, r)
			}
		}
	}, 0x01, 0x80)
}
