// Package dispatch implements the crash-tolerant distributed sweep
// protocol: a coordinator enumerates a campaign's cells in canonical
// CellKey order, leases them to worker processes over a stdin/stdout
// line protocol, records every lease transition in an fsync'd ledger,
// and splices the per-worker journals back into one merged journal
// whose fingerprint is verified against the serial oracle.
//
// Robustness is the product. A worker SIGKILLed mid-cell leaves only a
// truncated journal tail, which every reader tolerates; its lease
// expires (or its exit is observed) and the cell is re-leased to
// another worker, which re-runs it with the same seed — cells are
// deterministic functions of their keyed configuration, so the re-run
// is bit-identical and duplicate completions are verified, not feared.
// A cell that takes down K distinct worker incarnations is quarantined
// as poisoned: its error and stack are recorded in the ledger, the
// campaign continues without it, and the coordinator reports failure at
// the end rather than aborting the surviving grid.
package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"mtier/internal/wal"
)

// LedgerSchema identifies the lease-ledger document format: one JSON
// record per line describing a lease transition, fsync'd per append
// like core.Journal. Bump the suffix on breaking changes.
const LedgerSchema = "mtier/sweep-lease/v1"

// Ledger operations. The coordinator is the ledger's only writer; the
// record stream is the durable story of who held which cell when, and
// what became of it.
const (
	// OpLease grants a cell to a worker incarnation.
	OpLease = "lease"
	// OpRenew extends a lease after a heartbeat (throttled — not every
	// heartbeat hits the disk).
	OpRenew = "renew"
	// OpComplete marks a cell durably finished in some worker journal.
	OpComplete = "complete"
	// OpAbandon releases a lease without completion: the worker failed
	// the cell, exited, or let the lease expire. The reason says which.
	OpAbandon = "abandon"
	// OpPoison quarantines a cell that struck out K distinct workers;
	// the record carries the last failure's error and stack.
	OpPoison = "poison"
)

// Record is one line of the lease ledger.
type Record struct {
	Schema string `json:"schema"`
	Op     string `json:"op"`
	// Key is the cell's core.CellKey — 64 lowercase hex digits.
	Key string `json:"key"`
	// Worker is the incarnation number the operation concerns; poison
	// records omit it (the strikes came from several).
	Worker int `json:"worker,omitempty"`
	// Reason annotates abandon (why the lease was released) and poison
	// (the last failure's error text).
	Reason string `json:"reason,omitempty"`
	// Stack is the failing cell's recovered panic stack, if any.
	Stack string `json:"stack,omitempty"`
}

// ParseRecord decodes and validates one ledger line. It is the single
// gate every record passes on read — and the fuzz target's entry point.
func ParseRecord(raw []byte) (*Record, error) {
	var rec Record
	// Unmarshal, unlike a Decoder, rejects data after the first JSON
	// value: two records merged by a corrupted newline must not read as
	// the first one alone.
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("dispatch: corrupt ledger record: %v", err)
	}
	if rec.Schema != LedgerSchema {
		return nil, fmt.Errorf("dispatch: ledger record has schema %q, want %q", rec.Schema, LedgerSchema)
	}
	switch rec.Op {
	case OpLease, OpRenew, OpComplete, OpAbandon:
		if rec.Worker <= 0 {
			return nil, fmt.Errorf("dispatch: ledger %s record needs a positive worker incarnation, got %d", rec.Op, rec.Worker)
		}
	case OpPoison:
	default:
		return nil, fmt.Errorf("dispatch: ledger record has unknown op %q", rec.Op)
	}
	if len(rec.Key) != 64 {
		return nil, fmt.Errorf("dispatch: ledger record key %q is not a 64-hex cell key", rec.Key)
	}
	for _, c := range rec.Key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return nil, fmt.Errorf("dispatch: ledger record key %q is not a 64-hex cell key", rec.Key)
		}
	}
	return &rec, nil
}

// Ledger is the coordinator's durable lease log: one fsync'd JSONL
// record per lease transition on a wal.Log, the same crash discipline as
// core.Journal.
type Ledger struct {
	log *wal.Log
}

// OpenLedger opens (creating if absent) the ledger at path for
// appending and returns every durable record already in it — the state
// a restarted coordinator recovers from. A partial final line, the
// remnant of a coordinator crash mid-append, is truncated away; interior
// corruption is an error naming the line and byte offset, because
// silently dropping lease history could resurrect a poisoned cell.
func OpenLedger(path string) (*Ledger, []Record, error) {
	var recs []Record
	log, err := wal.Open(path, func(_, _ int, raw []byte) error {
		rec, err := ParseRecord(raw)
		if err != nil {
			return err
		}
		recs = append(recs, *rec)
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) {
		log, err = wal.Create(path)
	}
	if err != nil {
		return nil, nil, err
	}
	return &Ledger{log: log}, recs, nil
}

// Append durably writes one lease transition: a single line, fsync'd
// before Append returns.
func (l *Ledger) Append(rec Record) error {
	rec.Schema = LedgerSchema
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("dispatch: marshaling ledger record: %w", err)
	}
	return l.log.Append(line)
}

// Path returns the ledger's file path.
func (l *Ledger) Path() string { return l.log.Path() }

// Close syncs and closes the ledger file.
func (l *Ledger) Close() error { return l.log.Close() }
