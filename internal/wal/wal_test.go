package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// readLines opens the log at path and returns its kept records.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	var got []string
	l, err := Open(path, func(_, _ int, raw []byte) error {
		got = append(got, string(raw))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAppendFailsClosed: once a write fails, the log refuses every later
// append, even through a healthy descriptor, so the torn bytes the
// failed write left stay an unterminated tail the next Open repairs
// instead of becoming a corrupt interior line.
func TestAppendFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{`{"n":1}`, `{"n":2}`} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	good := l.f
	// A write that fails part-way leaves torn bytes behind it.
	if _, err := good.WriteString(`{"n":3,"to`); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.f = ro
	if err := l.Append([]byte(`{"n":3}`)); err == nil {
		t.Fatal("append through a read-only descriptor succeeded")
	}
	ro.Close()
	l.f = good
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{"n":4}`)); err == nil {
		t.Fatal("append after a failed append succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("refused append changed the file:\n%q\n%q", before, after)
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close of a failed log reported success")
	}

	if got := readLines(t, path); strings.Join(got, " ") != `{"n":1} {"n":2}` {
		t.Fatalf("reopened log kept %q, want the two records written before the failure", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{\"n\":1}\n{\"n\":2}\n" {
		t.Fatalf("torn tail not truncated: %q", data)
	}
}

// TestCreateSyncsDirectory: creating a log fsyncs its directory, and a
// failed directory sync fails the create.
func TestCreateSyncsDirectory(t *testing.T) {
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	var synced []string
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return nil
	}
	dir := t.TempDir()
	l, err := Create(filepath.Join(dir, "log.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("Create synced directories %q, want [%q]", synced, dir)
	}

	syncDir = func(string) error { return errors.New("injected") }
	if _, err := Create(filepath.Join(dir, "other.jsonl")); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Create ignored a failed directory sync: %v", err)
	}
}

// TestConcurrentAppends: appends from many goroutines land as whole,
// separate lines.
func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := l.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := readLines(t, path)
	sort.Strings(got)
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf(`{"n":%d}`, i)
	}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("concurrent appends read back as %q", got)
	}
}

// TestWriteFileReplacesAtomically: a successful WriteFile replaces the
// document and syncs its directory; a failed one leaves the previous
// document and no temporary file behind.
func TestWriteFileReplacesAtomically(t *testing.T) {
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	var synced []string
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return nil
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFile(path, write("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, write("second")); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 2 || synced[0] != dir {
		t.Fatalf("WriteFile synced directories %q, want [%q %q]", synced, dir, dir)
	}
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return errors.New("injected")
	})
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("WriteFile ignored a failed write: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "second" {
		t.Fatalf("document after a failed replace = %q, %v; want %q", b, err, "second")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed replace, want only the document", len(entries))
	}
}
