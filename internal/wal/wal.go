// Package wal is the append-only JSONL log under every durable file in
// mtier: sweep journals, worker journals, the merged journal and the
// dispatch lease ledger. It owns the crash discipline; callers own only
// their record schema.
//
// A record is one line, written and fsync'd before Append returns, so on
// disk a record is either whole and newline-terminated or an
// unterminated tail left by a crash mid-append. Open truncates such a
// torn tail away; any complete line its caller rejects is interior
// corruption and an error naming the line and byte offset, because
// dropping an interior record would silently lose durable history.
// After a failed write or sync the log refuses every later append, so
// torn bytes stay a tail instead of becoming an interior line. Creating
// a log also fsyncs its directory, so the new file's entry survives
// power loss along with the records in it.
//
// WriteFile applies the same discipline to whole documents: a reader
// sees either the previous file or the complete new one, never a
// partial write.
package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// LineFunc receives one complete, non-blank line: its 1-based line
// number, the byte offset of its first byte, and its content with
// surrounding whitespace trimmed. A non-nil return stops the scan; Open
// and Read report it anchored to that line and offset.
type LineFunc func(line, offset int, raw []byte) error

// Log is an open append-only log. Append and Close are safe for
// concurrent use.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// err is the first write or sync failure; once set, every later
	// append returns it.
	err error
}

// Create starts an empty log at path, truncating any previous file
// there, and makes both the file and its directory entry durable before
// returning.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: syncing %s: %w", path, err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: syncing the directory of %s: %w", path, err)
	}
	return &Log{f: f, path: path}, nil
}

// Open scans the existing log at path through fn, truncates an
// unterminated tail away, and returns the log positioned for appending.
// A missing file is an error (matching fs.ErrNotExist).
func Open(path string, fn LineFunc) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	valid, err := scan(path, data, fn)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// The next append's fsync makes the truncation durable; until then a
	// reappearing tail is simply repaired again.
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncating the torn tail of %s: %w", path, err)
	}
	return &Log{f: f, path: path}, nil
}

// Read scans the log at path through fn without modifying the file. It
// returns the length of the unterminated tail Open would truncate.
func Read(path string, fn LineFunc) (tail int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	valid, err := scan(path, data, fn)
	return len(data) - valid, err
}

// scan walks data line by line, handing each complete non-blank line to
// fn, and returns the byte offset just past the last newline-terminated
// line. An unterminated tail is never handed to fn.
func scan(path string, data []byte, fn LineFunc) (valid int, err error) {
	line := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		line++
		raw := bytes.TrimSpace(data[off : off+nl])
		start := off
		off += nl + 1
		if len(raw) > 0 {
			if err := fn(line, start, raw); err != nil {
				return valid, fmt.Errorf("wal: %s: line %d (byte offset %d): %w", path, line, start, err)
			}
		}
		valid = off
	}
	return valid, nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Append durably writes one record: rec plus a newline, fsync'd before
// Append returns. rec must not contain a newline.
func (l *Log) Append(rec []byte) error {
	line := append(rec[:len(rec):len(rec)], '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: %s is closed", l.path)
	}
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(line); err != nil {
		l.err = fmt.Errorf("wal: appending to %s: %w", l.path, err)
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: syncing %s: %w", l.path, err)
		return l.err
	}
	return nil
}

// Close syncs and closes the log. Closing a log whose append failed
// returns that failure; closing twice is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.err
	if err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// WriteFile replaces the document at path with what write produces: it
// writes a temporary file in the same directory, fsyncs it, renames it
// over path and fsyncs the directory. A failure before the rename
// removes the temporary file and leaves path as it was.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		return fmt.Errorf("wal: writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("wal: writing %s: %w", path, err)
	}
	if err := f.Chmod(0o644); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: closing %s: %w", path, err)
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("wal: syncing the directory of %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory, making the entries of files just created
// in it durable. It is a variable so the package test can observe it.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
