package cli

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"mtier/internal/core"
	"mtier/internal/dispatch"
	"mtier/internal/obs"
)

// CampaignFlags are the flags of the campaign commands (mtsweep,
// mtfault): per-cell outputs, checkpointing, cell supervision, and the
// distributed-dispatch surface.
type CampaignFlags struct {
	Records     string
	Progress    bool
	Journal     string
	Resume      string
	CellTimeout time.Duration
	Retries     int
	MemBudget   int64
	Dispatch    *dispatch.CLIFlags
}

// AddCampaignFlags registers the campaign flags on fs.
func AddCampaignFlags(fs *flag.FlagSet) *CampaignFlags {
	f := &CampaignFlags{Dispatch: dispatch.AddCLIFlags(fs)}
	fs.StringVar(&f.Records, "records", "", "append one JSON run record per cell to this file (JSONL)")
	fs.BoolVar(&f.Progress, "progress", true, "render a live progress line on stderr")
	fs.StringVar(&f.Journal, "journal", "", "checkpoint every completed cell to this JSONL journal (fresh file)")
	fs.StringVar(&f.Resume, "resume", "", "resume from this journal: skip already-completed cells and keep appending to it")
	fs.DurationVar(&f.CellTimeout, "celltimeout", 0, "per-cell deadline (0 = none); timed-out cells are retried")
	fs.IntVar(&f.Retries, "retries", 0, "extra same-seed attempts for a cell that exceeds -celltimeout")
	fs.Int64Var(&f.MemBudget, "membudget", 0, "soft heap budget in bytes (0 = off); concurrency is shed while over it")
	return f
}

// Campaign is one campaign run's crash-safety plumbing and outputs.
type Campaign struct {
	p *Process
	// Runner supervises the cells (-celltimeout, -retries, -membudget).
	Runner core.RunnerOptions
	// Journal checkpoints completed cells; nil without -journal/-resume.
	Journal *core.Journal
	// Sink receives every cell's run record.
	Sink *Sink
}

// OpenCampaign validates the campaign flags, then opens the checkpoint
// journal and the record sink; fingerprint makes the sink collect cell
// fingerprints.
func (p *Process) OpenCampaign(f *CampaignFlags, fingerprint bool) (*Campaign, error) {
	c := &Campaign{p: p, Runner: core.RunnerOptions{
		CellTimeout:    f.CellTimeout,
		MaxRetries:     f.Retries,
		MemBudgetBytes: f.MemBudget,
		Logf:           p.Logf,
	}}
	if err := c.Runner.Validate(); err != nil {
		return nil, err
	}
	switch {
	case f.Journal != "" && f.Resume != "":
		return nil, fmt.Errorf("-journal and -resume are mutually exclusive: -resume already appends to the journal it loads")
	case f.Dispatch.WorkersExec > 0 && (f.Journal != "" || f.Resume != ""):
		return nil, fmt.Errorf("-journal/-resume conflict with -workers-exec: the campaign dir's per-worker journals and merged journal replace them")
	case f.Dispatch.WorkersExec > 0 && f.Dispatch.Dir == "":
		return nil, fmt.Errorf("-workers-exec needs -dispatch-dir for the lease ledger and per-worker journals")
	}
	var err error
	if c.Sink, err = openSink(f.Records, fingerprint); err != nil {
		return nil, err
	}
	switch {
	case f.Resume != "":
		c.Journal, err = core.OpenJournal(f.Resume)
		if err == nil {
			fmt.Fprintf(os.Stderr, "%s: resuming from %s (%d cell(s) already completed)\n", p.Prog, f.Resume, c.Journal.Len())
		}
	case f.Journal != "":
		c.Journal, err = core.CreateJournal(f.Journal)
	}
	if err != nil {
		c.Sink.Close()
		return nil, err
	}
	return c, nil
}

// Close ends the campaign with err, the run's outcome: it closes the
// sink and the journal, and after a cancellation prints how to resume.
// It returns err, or else the first close failure, for Process.Exit.
func (c *Campaign) Close(err error) error {
	if cerr := c.Sink.Close(); err == nil {
		err = cerr
	}
	if c.Journal == nil {
		return err
	}
	if cerr := c.Journal.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing journal: %w", cerr)
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: %d cell(s) checkpointed — resume with: %s <same flags> -resume %s\n",
			c.p.Prog, c.Journal.Len(), c.p.Prog, c.Journal.Path())
	}
	return err
}

// Sink is a campaign's per-cell output: the -records JSONL stream and,
// for -fingerprint, each cell's record fingerprint. Cells complete
// concurrently, so Add serialises. The first encoding, write, flush or
// close error is sticky and Close returns it: a failed output fails the
// command instead of leaving a silently truncated file or digest.
type Sink struct {
	mu  sync.Mutex
	out io.Closer // the records file; nil without -records
	w   *bufio.Writer
	fps map[string][]byte // nil unless fingerprinting
	err error
}

// openSink creates the records file (none when path is "") and, when
// fingerprint is set, collects fingerprints for Fingerprint.
func openSink(path string, fingerprint bool) (*Sink, error) {
	s := &Sink{}
	if fingerprint {
		s.fps = make(map[string][]byte)
	}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		s.out, s.w = f, bufio.NewWriter(f)
	}
	return s, nil
}

// Add writes rec as one records line and files its fingerprint under
// key, which orders it in the digest.
func (s *Sink) Add(key string, rec *obs.RunRecord) {
	if s.w == nil && s.fps == nil {
		return
	}
	var line, fp []byte
	var err error
	if s.w != nil {
		if line, err = rec.MarshalLine(); err != nil {
			err = fmt.Errorf("encoding record %s: %w", key, err)
		}
	}
	if err == nil && s.fps != nil {
		if fp, err = rec.Fingerprint(); err != nil {
			err = fmt.Errorf("fingerprinting record %s: %w", key, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err == nil && s.w != nil {
		if _, err = s.w.Write(line); err != nil {
			err = fmt.Errorf("writing records: %w", err)
		}
	}
	if err != nil {
		s.err = err
		return
	}
	if s.fps != nil {
		s.fps[key] = fp
	}
}

// Close flushes and closes the records file and returns the sink's first
// error.
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.out != nil {
		if err := s.w.Flush(); err != nil && s.err == nil {
			s.err = fmt.Errorf("flushing records: %w", err)
		}
		if err := s.out.Close(); err != nil && s.err == nil {
			s.err = fmt.Errorf("closing records: %w", err)
		}
		s.out = nil
	}
	return s.err
}

// Fingerprint is the digest over every added cell's fingerprint in
// sorted-key order, independent of the order cells completed in.
func (s *Sink) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.fps))
	for k := range s.fps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fps := make([][]byte, len(keys))
	for i, k := range keys {
		fps[i] = s.fps[k]
	}
	return obs.Digest(fps...)
}
