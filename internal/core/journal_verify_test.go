package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// appendCell runs cfg serially and appends its result to the journal at
// path (creating it if needed), returning the cell key.
func appendCell(t *testing.T, path string, cfg Config) string {
	t.Helper()
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, err := CellKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var j *Journal
	if _, serr := os.Stat(path); os.IsNotExist(serr) {
		j, err = CreateJournal(path)
	} else {
		j, err = OpenJournal(path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(key, res); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return key
}

// TestJournalCorruptErrorLocation: a corrupt interior record must be
// reported with the line number and byte offset of the offending line,
// so an operator can inspect the journal without bisecting it by hand.
func TestJournalCorruptErrorLocation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	appendCell(t, path, journalConfig(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := len(data)
	// Line 2 is garbage, terminated; line 3 is another valid record
	// (never reached — interior corruption is a hard stop).
	corrupted := append(append(append([]byte{}, data...), []byte("not json\n")...), data...)
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenJournal(path)
	if err == nil {
		t.Fatal("OpenJournal accepted interior corruption")
	}
	for _, want := range []string{"line 2", "byte offset " + strconv.Itoa(recLen)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("corruption error %q does not name %q", err, want)
		}
	}
}

// TestJournalSumMismatch: every record carries a sha256 of its result
// payload; a record whose payload no longer matches its sum (bitrot,
// hand-editing) must be rejected by OpenJournal and ReadJournal, and
// reported — with its key — by VerifyJournal.
func TestJournalSumMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	key := appendCell(t, path, journalConfig(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec JournalRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Sum == "" {
		t.Fatal("journal record carries no sum")
	}
	// Flip one hex digit of the stored sum.
	flip := byte('0')
	if rec.Sum[0] == '0' {
		flip = '1'
	}
	rec.Sum = string(flip) + rec.Sum[1:]
	tampered, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(tampered, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenJournal(path); err == nil {
		t.Error("OpenJournal accepted a checksum mismatch")
	}
	if _, err := ReadJournal(path); err == nil {
		t.Error("ReadJournal accepted a checksum mismatch")
	}
	rep, err := VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Issues) != 1 {
		t.Fatalf("verification found %d issue(s), want exactly 1", len(rep.Issues))
	}
	if rep.Issues[0].Key != key {
		t.Errorf("issue names key %q, want %q", rep.Issues[0].Key, key)
	}
	if rep.Records != 1 || rep.Checksummed != 0 {
		t.Errorf("report counts records=%d checksummed=%d, want 1/0", rep.Records, rep.Checksummed)
	}
}

// TestJournalLegacySumlessRecord: records written before per-record
// checksums carry no sum; they load fine but count as unverified.
func TestJournalLegacySumlessRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	appendCell(t, path, journalConfig(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec JournalRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Sum = ""
	legacy, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(legacy, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal rejected a legacy sum-less record: %v", err)
	}
	if j.Len() != 1 {
		t.Fatalf("journal has %d cells, want 1", j.Len())
	}
	j.Close()
	rep, err := VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Records != 1 || rep.Checksummed != 0 {
		t.Errorf("legacy record verified as records=%d checksummed=%d issues=%d, want 1/0/0",
			rep.Records, rep.Checksummed, len(rep.Issues))
	}
}

// TestVerifyJournalWalksPastIssues: unlike OpenJournal, standalone
// verification keeps going after a bad record — one corrupt line must
// not hide the rest of the file — reports the crash-truncated tail
// length, and never modifies the file.
func TestVerifyJournalWalksPastIssues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	appendCell(t, path, journalConfig(1))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tail := `{"schema":"mtier/sweep-jou`
	mixed := append(append(append([]byte{}, good...), []byte("garbage line\n")...), good...)
	mixed = append(mixed, []byte(tail)...)
	if err := os.WriteFile(path, mixed, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 {
		t.Errorf("verification walked %d valid records, want 2 (must continue past the bad line)", rep.Records)
	}
	if rep.Checksummed != 2 {
		t.Errorf("verification checksummed %d records, want 2", rep.Checksummed)
	}
	if len(rep.Issues) != 1 {
		t.Fatalf("verification found %d issue(s), want 1", len(rep.Issues))
	}
	if rep.Issues[0].Line != 2 {
		t.Errorf("issue at line %d, want 2", rep.Issues[0].Line)
	}
	if rep.TailBytes != len(tail) {
		t.Errorf("report has %d tail bytes, want %d", rep.TailBytes, len(tail))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, mixed) {
		t.Error("VerifyJournal modified the file")
	}
}

// TestReadJournalTolerantTail: read-only loading repairs nothing but
// tolerates a crash-truncated final line, like OpenJournal does.
func TestReadJournalTolerantTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	key := appendCell(t, path, journalConfig(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"mtier/sw`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[key] == nil {
		t.Fatalf("ReadJournal returned %d cells, want the 1 valid record", len(cells))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("ReadJournal modified the file")
	}
}

// TestMergeJournals: per-worker journals splice into one canonical
// journal in the exact key order requested; a cell completed by two
// workers must carry bit-identical (environment- and timing-stripped)
// fingerprints — that is the whole safety argument for same-seed lease
// re-execution — and keys no source held are listed as missing.
func TestMergeJournals(t *testing.T) {
	dir := t.TempDir()
	cfgs := []Config{journalConfig(1), journalConfig(2), journalConfig(3)}
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		k, err := CellKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	srcA := filepath.Join(dir, "worker-0001.jsonl")
	srcB := filepath.Join(dir, "worker-0002.jsonl")
	appendCell(t, srcA, cfgs[0])
	appendCell(t, srcA, cfgs[1])
	// Worker B re-ran cell 1 (a reclaimed lease) in a separate
	// execution: timings differ, the canonical fingerprint must not.
	appendCell(t, srcB, cfgs[1])
	appendCell(t, srcB, cfgs[2])

	dst := filepath.Join(dir, "merged.jsonl")
	merged, rep, err := MergeJournals(dst, keys, []string{srcA, srcB})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 3 || rep.Duplicates != 1 || len(rep.Missing) != 0 {
		t.Fatalf("merge report records=%d duplicates=%d missing=%d, want 3/1/0",
			rep.Records, rep.Duplicates, len(rep.Missing))
	}
	for _, k := range keys {
		if _, ok := merged.Cached(k); !ok {
			t.Errorf("merged journal is missing cell %.12s…", k)
		}
	}
	merged.Close()
	// The merged file lists cells in the canonical key order, not in
	// per-worker completion order.
	data, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	var gotOrder []string
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		gotOrder = append(gotOrder, rec.Key)
	}
	if len(gotOrder) != len(keys) {
		t.Fatalf("merged journal has %d records, want %d", len(gotOrder), len(keys))
	}
	for i, k := range keys {
		if gotOrder[i] != k {
			t.Fatalf("merged record %d is %.12s…, want canonical order %.12s…", i, gotOrder[i], k)
		}
	}

	// A missing key is reported, in order, not invented.
	extra, err := CellKey(journalConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	m2, rep2, err := MergeJournals(filepath.Join(dir, "merged2.jsonl"), append(keys, extra), []string{srcA, srcB})
	if err != nil {
		t.Fatal(err)
	}
	m2.Close()
	if len(rep2.Missing) != 1 || rep2.Missing[0] != extra {
		t.Fatalf("merge missing=%v, want exactly [%.12s…]", rep2.Missing, extra)
	}
}

// TestMergeJournalsReplacesFile: merging over an existing merged journal
// replaces the file by rename — a reader holding the old file keeps the
// old inode, and a crash mid-merge cannot leave a half-truncated journal —
// and leaves no temporary file behind.
func TestMergeJournalsReplacesFile(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(1)
	key, err := CellKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "worker-0001.jsonl")
	appendCell(t, src, cfg)
	dst := filepath.Join(dir, "merged.jsonl")
	if err := os.WriteFile(dst, []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(dst)
	if err != nil {
		t.Fatal(err)
	}
	merged, rep, err := MergeJournals(dst, []string{key}, []string{src})
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Records != 1 {
		t.Fatalf("merge wrote %d records, want 1", rep.Records)
	}
	if _, ok := merged.Cached(key); !ok {
		t.Fatalf("merged journal does not serve cell %.12s…", key)
	}
	after, err := os.Stat(dst)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Fatal("merged.jsonl was rewritten in place; want a new file renamed over it")
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("merge left temporary files behind: %v", left)
	}
}

// TestMergeJournalsDivergence: two journals claiming the same key with
// different results is the one unforgivable state — the merge must
// refuse rather than pick a winner.
func TestMergeJournalsDivergence(t *testing.T) {
	dir := t.TempDir()
	cfgA, cfgB := journalConfig(1), journalConfig(2)
	keyA, err := CellKey(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	srcA := filepath.Join(dir, "worker-0001.jsonl")
	srcB := filepath.Join(dir, "worker-0002.jsonl")
	appendCell(t, srcA, cfgA)
	// Journal B records cfgB's result under cfgA's key — a divergent
	// duplicate, as if a worker ran a skewed binary.
	resB, err := Run(cfgB, nil)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := CreateJournal(srcB)
	if err != nil {
		t.Fatal(err)
	}
	if err := jb.Append(keyA, resB); err != nil {
		t.Fatal(err)
	}
	jb.Close()

	_, _, err = MergeJournals(filepath.Join(dir, "merged.jsonl"), []string{keyA}, []string{srcA, srcB})
	if err == nil {
		t.Fatal("MergeJournals accepted divergent duplicates")
	}
	if !strings.Contains(err.Error(), "divergence") {
		t.Errorf("divergence error %q does not say so", err)
	}
}
