package dispatch

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"mtier/internal/core"
	"mtier/internal/obs"
)

// CLIFlags is the flag surface the dispatching CLIs (mtsweep, mtfault)
// share: the coordinator knobs and the -worker trio their spawned
// incarnations run under.
type CLIFlags struct {
	WorkersExec   int
	Dir           string
	LeaseTTL      time.Duration
	PoisonAfter   int
	DrainGrace    time.Duration
	Verify        string
	Worker        bool
	WorkerID      int
	WorkerJournal string
}

// AddCLIFlags registers the dispatch flags on a CLI's flag set.
func AddCLIFlags(fs *flag.FlagSet) *CLIFlags {
	f := &CLIFlags{}
	fs.IntVar(&f.WorkersExec, "workers-exec", 0, "distributed campaign: spawn this many worker processes of the same binary and lease cells to them")
	fs.StringVar(&f.Dir, "dispatch-dir", "", "campaign state directory for -workers-exec: lease ledger, per-worker journals, merged journal; re-running with the same dir resumes")
	fs.DurationVar(&f.LeaseTTL, "lease-ttl", 30*time.Second, "reclaim a leased cell whose worker has not heartbeat within this window")
	fs.IntVar(&f.PoisonAfter, "poison-after", 2, "quarantine a cell after it strikes this many distinct worker incarnations")
	fs.DurationVar(&f.DrainGrace, "drain-grace", 10*time.Second, "per-stage worker shutdown grace before escalating EOF/SIGTERM to SIGKILL")
	fs.StringVar(&f.Verify, "dispatch-verify", "sample", "post-merge serial-oracle verification: off | sample | full")
	fs.BoolVar(&f.Worker, "worker", false, "run as a dispatch worker: lease cells over stdin/stdout (spawned by -workers-exec; not for direct use)")
	fs.IntVar(&f.WorkerID, "worker-id", 0, "worker incarnation number (set by the coordinator)")
	fs.StringVar(&f.WorkerJournal, "worker-journal", "", "worker's private journal path (set by the coordinator)")
	return f
}

// WorkerMode reports whether this process was spawned as a worker.
func (f *CLIFlags) WorkerMode() bool { return f.Worker }

// RunWorkerMain runs the worker protocol loop and returns the process
// exit code. prog names the parent CLI for log prefixes.
func (f *CLIFlags) RunWorkerMain(prog string, simWorkers int) int {
	return WorkerMain(WorkerOptions{
		ID:          f.WorkerID,
		JournalPath: f.WorkerJournal,
		SimWorkers:  simWorkers,
		Prog:        fmt.Sprintf("%s[w%d]", prog, f.WorkerID),
	})
}

// SelfSpawner builds the Spawner the CLIs use: re-exec this binary in
// -worker mode, forwarding extraArgs (the simulation-affecting flags the
// worker should inherit, e.g. -workers). Worker stderr is passed
// through; stdin/stdout belong to the protocol.
func SelfSpawner(extraArgs []string) (Spawner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("dispatch: resolving own binary: %w", err)
	}
	return func(worker int, journalPath string) (*exec.Cmd, error) {
		args := []string{
			"-worker",
			"-worker-id", strconv.Itoa(worker),
			"-worker-journal", journalPath,
		}
		args = append(args, extraArgs...)
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		return cmd, nil
	}, nil
}

// PrintReport renders the campaign summary and, when cells were
// quarantined, the triage listing with each cell's last error and
// recovered stack. It returns the process exit code the CLI should end
// with: 0 for a clean campaign, 1 when any cell is poisoned.
func PrintReport(w io.Writer, prog string, rep *Report) int {
	fmt.Fprintf(w, "%s: distributed campaign: %d/%d cells merged (%d resumed, %d duplicates verified, %d leases reclaimed, %d expired, %d workers spawned, %d cells oracle-verified)\n",
		prog, rep.Completed, rep.Cells, rep.Resumed, rep.Duplicates, rep.Reclaimed, rep.Expired, rep.Spawned, rep.Verified)
	if len(rep.Poisoned) == 0 {
		return 0
	}
	fmt.Fprintf(w, "%s: %d cell(s) QUARANTINED — the campaign is incomplete and its fingerprint is not comparable to a serial run:\n", prog, len(rep.Poisoned))
	for _, pc := range rep.Poisoned {
		fmt.Fprintf(w, "  poisoned %s (key %.12s…) after striking worker(s) %v: %s\n", pc.Label, pc.Key, pc.Workers, pc.Reason)
		if pc.Stack != "" {
			fmt.Fprintf(w, "    last stack:\n")
			for _, ln := range splitLines(pc.Stack, 12) {
				fmt.Fprintf(w, "      %s\n", ln)
			}
		}
	}
	fmt.Fprintf(w, "%s: triage: re-run one poisoned cell serially to reproduce, e.g. with the cell's workload/topology flags; the merged journal %s still holds every healthy cell\n",
		prog, rep.MergedPath)
	return 1
}

// Campaign is the coordinator side of a dispatching CLI: it runs cfgs as
// a distributed campaign — leased to -workers-exec worker processes of
// this binary, merged, verified and reported — and then replays the
// merged journal through replay. The replay is the command's unchanged
// serial code path with every cell spliced from the journal, so its
// tables, records and fingerprint come from the same code as a
// single-process run. meter advances once per cell; prog prefixes the
// log lines.
func (f *CLIFlags) Campaign(ctx context.Context, prog string, cfgs []core.Config, simWorkers int,
	metrics *obs.Registry, meter *obs.ProgressMeter, replay func(merged *core.Journal) error) error {
	cells, err := Cells(cfgs)
	if err != nil {
		return err
	}
	mode, err := ParseVerifyMode(f.Verify)
	if err != nil {
		return err
	}
	spawn, err := SelfSpawner([]string{"-workers", strconv.Itoa(simWorkers)})
	if err != nil {
		return err
	}
	rep, err := Run(ctx, cells, Options{
		Dir:         f.Dir,
		Workers:     f.WorkersExec,
		LeaseTTL:    f.LeaseTTL,
		PoisonAfter: f.PoisonAfter,
		DrainGrace:  f.DrainGrace,
		Verify:      mode,
		Spawn:       spawn,
		Metrics:     metrics,
		Meter:       meter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "\n"+prog+": "+format+"\n", args...)
		},
	})
	meter.Finish()
	if err != nil {
		if ctx.Err() != nil && !errors.Is(err, ctx.Err()) {
			err = fmt.Errorf("%w: %v", ctx.Err(), err)
		}
		return err
	}
	if PrintReport(os.Stderr, prog, rep) != 0 {
		return fmt.Errorf("campaign incomplete: %d cell(s) quarantined", len(rep.Poisoned))
	}
	merged, err := core.OpenJournal(rep.MergedPath)
	if err != nil {
		return fmt.Errorf("reopening merged journal: %w", err)
	}
	defer merged.Close()
	if err := replay(merged); err != nil {
		return fmt.Errorf("replaying merged campaign: %w", err)
	}
	return nil
}

func splitLines(s string, max int) []string {
	var out []string
	start := 0
	for i := 0; i < len(s) && len(out) < max; i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) && len(out) < max {
		out = append(out, s[start:])
	}
	return out
}
