package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"mtier/internal/obs"
	"mtier/internal/topo"
	"mtier/internal/wal"
)

// JournalSchema identifies the sweep-journal document format: one JSON
// record per line, each holding one completed cell keyed by the sha256 of
// its configuration. Bump the suffix on breaking changes.
const JournalSchema = "mtier/sweep-journal/v1"

// JournalRecord is one line of a sweep journal: a completed cell's
// deterministic key and its full result. The result round-trips through
// JSON exactly (encoding/json preserves float64 bit patterns), so a
// record spliced into a resumed sweep reproduces the original run record
// fingerprint byte for byte. Sum is the hex sha256 of the result's
// canonical JSON — an end-to-end integrity checksum over the payload,
// verified on every open and by VerifyJournal; records written before
// the field existed omit it and load checksum-unverified.
type JournalRecord struct {
	Schema string     `json:"schema"`
	Key    string     `json:"key"`
	Sum    string     `json:"sum,omitempty"`
	Result *RunResult `json:"result"`
}

// CellKey returns the deterministic identity of one sweep cell: the hex
// sha256 of the cell's canonical JSON configuration (family, size, (t,u)
// point, workload, seed, simulator options and fault spec — everything
// that determines the result). Two processes given the same flags derive
// the same keys, which is what lets a resumed sweep recognise the cells
// a previous run already completed — and what lets distributed workers
// lease, re-run and merge cells idempotently.
func CellKey(cfg Config) (string, error) {
	key, err := canonicalKey(cfg)
	if err != nil {
		return "", fmt.Errorf("core: keying cell config: %w", err)
	}
	return key, nil
}

// resultSum computes a record's integrity checksum: the hex sha256 of the
// result's canonical JSON form. Unmarshal followed by Marshal reproduces
// the original bytes (struct fields emit in declaration order, float64s
// round-trip exactly), so the sum re-verifies after any number of
// load/append cycles.
func resultSum(res *RunResult) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Journal is a durable checkpoint log for sweeps: each completed cell is
// appended as one fsync'd JSONL record on a wal.Log, and a journal
// reopened with OpenJournal serves those cells from cache so a resumed
// sweep only runs what is missing. Append and Cached are safe for
// concurrent use from sweep workers.
type Journal struct {
	mu    sync.Mutex
	log   *wal.Log
	cache map[string]*RunResult
}

// CreateJournal starts a fresh journal at path, truncating any previous
// file there. The file exists (empty) as soon as CreateJournal returns,
// so a campaign killed before its first completed cell still leaves a
// resumable journal behind.
func CreateJournal(path string) (*Journal, error) {
	log, err := wal.Create(path)
	if err != nil {
		return nil, err
	}
	return &Journal{log: log, cache: make(map[string]*RunResult)}, nil
}

// parseJournalRecord decodes and structurally validates one journal line.
func parseJournalRecord(raw []byte) (*JournalRecord, error) {
	var rec JournalRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("core: corrupt journal record: %v", err)
	}
	if rec.Schema != JournalSchema || rec.Key == "" || rec.Result == nil {
		return nil, fmt.Errorf("core: journal record has schema %q (want %q) or a missing key/result", rec.Schema, JournalSchema)
	}
	return &rec, nil
}

// checkRecordSum re-derives a record's integrity checksum and compares it
// to the stored one. Records without a sum (written before the field
// existed) pass unverified.
func checkRecordSum(rec *JournalRecord) error {
	if rec.Sum == "" {
		return nil
	}
	sum, err := resultSum(rec.Result)
	if err != nil {
		return fmt.Errorf("core: re-hashing journal record: %v", err)
	}
	if sum != rec.Sum {
		return fmt.Errorf("core: journal checksum mismatch: record says sha256 %.12s…, payload hashes to %.12s…", rec.Sum, sum)
	}
	return nil
}

// loadRecords returns the line handler OpenJournal and ReadJournal share:
// every record must parse and re-verify its checksum, and a later record
// for a key replaces an earlier one, matching the append-wins semantics
// of the in-memory cache.
func loadRecords(cache map[string]*RunResult) wal.LineFunc {
	return func(_, _ int, raw []byte) error {
		rec, err := parseJournalRecord(raw)
		if err != nil {
			return err
		}
		if err := checkRecordSum(rec); err != nil {
			return err
		}
		cache[rec.Key] = rec.Result
		return nil
	}
}

// OpenJournal loads an existing journal for resumption: every complete
// record populates the cache, and the file is reopened for appending so
// the resumed sweep extends the same journal. A partial final line — the
// remnant of a crash mid-append — is discarded and truncated away;
// corruption anywhere earlier (malformed JSON, a wrong schema, or a
// record whose payload no longer hashes to its stored checksum) is an
// error naming the offending line and byte offset, since silently
// dropping interior records would resurrect already-completed work. A
// missing file is an error.
func OpenJournal(path string) (*Journal, error) {
	cache := make(map[string]*RunResult)
	log, err := wal.Open(path, loadRecords(cache))
	if err != nil {
		return nil, err
	}
	return &Journal{log: log, cache: cache}, nil
}

// ReadJournal loads a journal read-only: complete records are returned
// keyed by cell key, an unterminated tail is ignored (the file is not
// modified, unlike OpenJournal's repair), and interior corruption is an
// error with line and byte offset.
func ReadJournal(path string) (map[string]*RunResult, error) {
	cache := make(map[string]*RunResult)
	if _, err := wal.Read(path, loadRecords(cache)); err != nil {
		return nil, err
	}
	return cache, nil
}

// Path returns the journal's file path (for resume hints).
func (j *Journal) Path() string { return j.log.Path() }

// Len returns the number of cached (already completed) cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cache)
}

// Cached returns the journaled result for a cell key, if present.
func (j *Journal) Cached(key string) (*RunResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	res, ok := j.cache[key]
	return res, ok
}

// Append durably records one completed cell: the record is written as a
// single line — carrying the sha256 of its result payload — and fsync'd
// before Append returns, so a completed cell survives any subsequent
// crash. The result also enters the in-memory cache, making Append
// idempotent across a sweep's lifetime.
func (j *Journal) Append(key string, res *RunResult) error {
	line, err := encodeRecord(key, res)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(line); err != nil {
		return err
	}
	j.cache[key] = res
	return nil
}

// encodeRecord renders one journal line, without its newline: the
// record of key and res, carrying the sha256 of the result payload.
func encodeRecord(key string, res *RunResult) ([]byte, error) {
	sum, err := resultSum(res)
	if err != nil {
		return nil, fmt.Errorf("core: hashing journal record: %w", err)
	}
	line, err := json.Marshal(JournalRecord{Schema: JournalSchema, Key: key, Sum: sum, Result: res})
	if err != nil {
		return nil, fmt.Errorf("core: marshaling journal record: %w", err)
	}
	return line, nil
}

// Close syncs and closes the journal file. The cache stays readable, so
// reports assembled after a sweep can still splice cached cells.
func (j *Journal) Close() error { return j.log.Close() }

// JournalIssue is one problem VerifyJournal found, anchored to the line
// and byte offset it occurred at.
type JournalIssue struct {
	Line   int    `json:"line"`
	Offset int    `json:"offset"`
	Key    string `json:"key,omitempty"`
	Detail string `json:"detail"`
}

// JournalReport summarises a standalone journal verification.
type JournalReport struct {
	Path string `json:"path"`
	// Records is the number of structurally valid records.
	Records int `json:"records"`
	// Checksummed counts records that carried a sum and re-verified; the
	// difference Records-Checksummed are legacy records without one.
	Checksummed int `json:"checksummed"`
	// TailBytes is the length of an unterminated final line (a crash
	// remnant OpenJournal would repair), 0 for a cleanly terminated file.
	TailBytes int `json:"tail_bytes,omitempty"`
	// Issues lists every corrupt, mis-schema'd or checksum-mismatched
	// record. Unlike OpenJournal, verification keeps walking past them so
	// one bad line does not hide the rest.
	Issues []JournalIssue `json:"issues,omitempty"`
}

// Clean reports whether the journal verified without issues.
func (r *JournalReport) Clean() bool { return len(r.Issues) == 0 }

// VerifyJournal walks a journal standalone — without running or resuming
// any sweep — and checks every record: JSON well-formedness, schema,
// key/result presence, and the per-record sha256 of the result payload.
// Unlike OpenJournal it does not stop at the first problem and never
// modifies the file; the report lists every issue with its line number
// and byte offset. The error return is reserved for I/O failures —
// corruption is reported, not returned.
func VerifyJournal(path string) (*JournalReport, error) {
	rep := &JournalReport{Path: path}
	tail, err := wal.Read(path, func(line, offset int, raw []byte) error {
		rec, err := parseJournalRecord(raw)
		if err != nil {
			rep.Issues = append(rep.Issues, JournalIssue{Line: line, Offset: offset, Detail: err.Error()})
			return nil
		}
		rep.Records++
		if rec.Sum == "" {
			return nil
		}
		if err := checkRecordSum(rec); err != nil {
			rep.Issues = append(rep.Issues, JournalIssue{Line: line, Offset: offset, Key: rec.Key, Detail: err.Error()})
			return nil
		}
		rep.Checksummed++
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.TailBytes = tail
	return rep, nil
}

// MergeReport summarises a MergeJournals splice.
type MergeReport struct {
	// Records is the number of cells written to the merged journal.
	Records int
	// Duplicates counts cells completed by more than one source journal —
	// the fingerprint-verified fallout of lease reclaims that re-ran a
	// cell whose original worker had already (or concurrently) finished
	// it.
	Duplicates int
	// Missing lists the requested keys no source journal held, in order.
	Missing []string
}

// MergeJournals splices per-worker journals into one canonical journal:
// every source is loaded (tolerating crash-truncated tails), cells are
// written to dst in the exact order of keys — the canonical cell order
// of the campaign — and the result is a journal any single-process sweep
// can resume from. dst is replaced by temp file and rename (wal.WriteFile),
// so a crash mid-merge leaves any previous dst intact, and the returned
// journal is dst reopened for appending.
//
// The merge is verifying: when two sources both completed a cell (a
// reclaimed lease whose original worker also finished), their run-record
// fingerprints — timing- and environment-stripped — must be
// byte-identical. Any divergence is an error, not a warning: cells are
// deterministic functions of their keyed configuration, so two honest
// executions cannot disagree, and a disagreement means the distributed
// campaign must not be reported as equivalent to a serial run.
func MergeJournals(dst string, keys []string, srcs []string) (*Journal, *MergeReport, error) {
	merged := make(map[string]*RunResult)
	fps := make(map[string][]byte)
	rep := &MergeReport{}
	for _, src := range srcs {
		cells, err := ReadJournal(src)
		if err != nil {
			return nil, nil, err
		}
		for key, res := range cells {
			fp, err := ResultFingerprint(res)
			if err != nil {
				return nil, nil, fmt.Errorf("core: fingerprinting %s from %s: %w", key, src, err)
			}
			if prev, ok := fps[key]; ok {
				rep.Duplicates++
				if !bytes.Equal(prev, fp) {
					return nil, nil, fmt.Errorf("core: merge divergence on cell %.12s…: %s disagrees with an earlier journal — the distributed run is not bit-identical and must not be reported as such", key, src)
				}
				continue
			}
			merged[key] = res
			fps[key] = fp
		}
	}
	err := wal.WriteFile(dst, func(w io.Writer) error {
		for _, key := range keys {
			res, ok := merged[key]
			if !ok {
				rep.Missing = append(rep.Missing, key)
				continue
			}
			line, err := encodeRecord(key, res)
			if err != nil {
				return err
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return err
			}
			rep.Records++
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	j, err := OpenJournal(dst)
	if err != nil {
		return nil, nil, err
	}
	return j, rep, nil
}

// ResultFingerprint renders a result's run record with timings and
// environment stripped — the form in which two executions of the same
// cell, on different worker processes or machines, must agree byte for
// byte. MergeJournals compares duplicate completions with it and the
// dispatch coordinator's serial-oracle verification re-derives it.
func ResultFingerprint(res *RunResult) ([]byte, error) {
	rec := res.Record()
	rec.Env = obs.Environment{}
	return rec.Fingerprint()
}

// runCellJournaled executes one sweep cell through the journal: a cell
// whose key is already journaled is served from cache (bit-identically —
// the cached result carries the resolved config and full result the
// original run produced), otherwise the cell runs and its result is
// durably appended before being reported. cached tells the caller whether
// the result was spliced from the journal.
func runCellJournaled(ctx context.Context, j *Journal, cfg Config, top topo.Topology) (res *RunResult, cached bool, err error) {
	var key string
	if j != nil {
		key, err = CellKey(cfg)
		if err != nil {
			return nil, false, err
		}
		if res, ok := j.Cached(key); ok {
			return res, true, nil
		}
	}
	res, err = RunContext(ctx, cfg, top)
	if err != nil {
		return nil, false, err
	}
	if j != nil {
		if err := j.Append(key, res); err != nil {
			return nil, false, err
		}
	}
	return res, false, nil
}
