// Command mtsweep reproduces Figures 4 and 5 of the paper: for each
// workload it sweeps the 12 (t,u) hybrid configurations of NestGHC and
// NestTree plus the fattree and torus references, and prints the
// normalised execution time panel (fattree = 1).
//
// Tables and CSV go to stdout; a live progress line (cells done/total,
// current cell, ETA) is rendered on stderr so redirected output stays
// clean.
//
// Campaigns are crash-safe: -journal checkpoints every completed cell to
// an fsync'd JSONL file (schema mtier/sweep-journal/v1), the first
// SIGINT/SIGTERM cancels the sweep gracefully (in-flight cells stop at
// their next epoch, the journal stays durable, a resume hint is printed)
// and -resume replays a journal, re-simulating only the missing cells —
// the resumed campaign's -fingerprint is byte-identical to an
// uninterrupted run's. -celltimeout/-retries bound and retry individual
// cells; a panicking cell fails alone without taking down its siblings.
//
// Usage:
//
//	mtsweep -set heavy -n 2048                 # Figure 4
//	mtsweep -set light -n 2048                 # Figure 5
//	mtsweep -workload bisection -csv           # one panel, CSV
//	mtsweep -set light -records cells.jsonl    # per-cell run records
//	mtsweep -set light -journal sweep.jsonl    # checkpointed campaign
//	mtsweep -set light -resume sweep.jsonl     # finish an interrupted one
//	mtsweep -spec spec.yaml -n 2048            # open-system campaign
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"mtier/internal/core"
	"mtier/internal/dispatch"
	"mtier/internal/flow"
	"mtier/internal/obs"
	"mtier/internal/report"
	"mtier/internal/sched"
	"mtier/internal/workload"
)

func main() {
	var (
		n           = flag.Int("n", 2048, "total number of QFDBs (endpoints)")
		setName     = flag.String("set", "", "workload set: heavy (Fig 4) | light (Fig 5) | all")
		wName       = flag.String("workload", "", "single workload to sweep")
		tasks       = flag.Int("tasks", 0, "task count (0 = workload default)")
		msg         = flag.Float64("msg", 0, "base message size in bytes (0 = workload default)")
		seed        = flag.Int64("seed", 1, "workload seed")
		eps         = flag.Float64("eps", 0.01, "completion batching window")
		cellWorkers = flag.Int("cellworkers", 0, "parallel cells (0 = NumCPU)")
		workers     = flag.Int("workers", 1, "intra-run worker threads per cell; results are identical for every value (0 = GOMAXPROCS)")
		specPath    = flag.String("spec", "", "open-system campaign: run this multi-client workload spec over every topology of the set")
		allocName   = flag.String("alloc", "firstfit", "allocation policy for -spec campaigns: firstfit|randomfit")
		shared      = flag.Bool("shared", false, "replay each -spec cell's schedule on a shared fabric")
		csv         = flag.Bool("csv", false, "emit CSV")
		progress    = flag.Bool("progress", true, "render a live progress line on stderr")
		records     = flag.String("records", "", "append one JSON run record per cell to this file (JSONL)")
		exact       = flag.Bool("exact", false, "use the reference full-recompute waterfill instead of the incremental engine")
		journalPath = flag.String("journal", "", "checkpoint every completed cell to this JSONL journal (fresh file)")
		resumePath  = flag.String("resume", "", "resume from this journal: skip already-completed cells and keep appending to it")
		cellTimeout = flag.Duration("celltimeout", 0, "per-cell deadline (0 = none); timed-out cells are retried")
		retries     = flag.Int("retries", 0, "extra same-seed attempts for a cell that exceeds -celltimeout")
		memBudget   = flag.Int64("membudget", 0, "soft heap budget in bytes (0 = off); concurrency is shed while over it")
		fpr         = flag.Bool("fingerprint", false, "print a sha256 over the canonical run records of all cells (determinism / resume check)")
		obsAddr     = flag.String("obslisten", "", "serve /metrics, /progress and pprof on this address (e.g. :9090)")
		jverify     = flag.String("journal-verify", "", "verify this sweep journal standalone (schema, per-record sha256, crash tail) and exit; no sweep runs")
		material    = flag.Bool("materialize", false, "force the materialised (stored-table) topology representation; results are bit-identical to the default implicit one")
	)
	prof := obs.AddProfileFlags(flag.CommandLine)
	disp := dispatch.AddCLIFlags(flag.CommandLine)
	flag.Parse()

	if *jverify != "" {
		os.Exit(verifyJournalCLI(*jverify))
	}

	if *material {
		topoRep = core.RepMaterialized
	}
	if disp.WorkerMode() {
		os.Exit(disp.RunWorkerMain("mtsweep", *workers))
	}

	var kinds []workload.Kind
	var spec *workload.OpenSpec
	var alloc sched.AllocPolicy
	var err error
	if *specPath != "" {
		// Open-system campaign: the spec's clients define the workload
		// mix, so the closed-system workload selectors do not apply.
		if *setName != "" || *wName != "" {
			die(fmt.Errorf("-spec replaces -set/-workload: the spec's clients define the job mix"))
		}
		if *journalPath != "" || *resumePath != "" {
			die(fmt.Errorf("-journal/-resume do not support -spec campaigns yet"))
		}
		if spec, err = workload.LoadSpec(*specPath); err != nil {
			die(err)
		}
		if alloc, err = sched.ParseAllocPolicy(*allocName); err != nil {
			die(err)
		}
	} else {
		switch {
		case *wName != "":
			k, err := workload.ParseKind(*wName)
			if err != nil {
				die(err)
			}
			kinds = []workload.Kind{k}
		case *setName == "heavy":
			kinds = workload.HeavyKinds()
		case *setName == "light":
			kinds = workload.LightKinds()
		case *setName == "all" || *setName == "":
			kinds = workload.Kinds()
		default:
			die(fmt.Errorf("unknown set %q (valid: heavy, light, all)", *setName))
		}
	}

	runner := core.RunnerOptions{
		CellTimeout:    *cellTimeout,
		MaxRetries:     *retries,
		MemBudgetBytes: *memBudget,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "\nmtsweep: "+format+"\n", args...)
		},
	}
	// Flag validation up front, in the same early-exit style as the
	// -workload parsing above: an unreadable journal or a nonsensical
	// timeout must fail before the topology set is built.
	if err := runner.Validate(); err != nil {
		die(err)
	}
	journal, err := openJournal(*journalPath, *resumePath)
	if err != nil {
		die(err)
	}

	ctx, stopSignals := core.SignalContext(context.Background(), "mtsweep", os.Stderr)
	defer stopSignals()

	stop, err := prof.Start()
	if err != nil {
		die(err)
	}
	var srv *obs.Server
	var metrics *obs.Registry
	if *obsAddr != "" {
		metrics = obs.NewRegistry()
		if srv, err = obs.NewServer(*obsAddr, metrics); err != nil {
			die(err)
		}
		defer srv.Close()
		fmt.Fprintln(os.Stderr, "mtsweep: observability endpoint on http://"+srv.Addr())
	}
	panelOpt := core.PanelOptions{
		Seed:     *seed,
		Tasks:    *tasks,
		MsgBytes: *msg,
		Workers:  *cellWorkers,
		Sim:      flow.Options{RelEpsilon: *eps, ExactRecompute: *exact, Workers: *workers, Metrics: metrics},
		Runner:   runner,
		Journal:  journal,
	}
	if disp.WorkersExec > 0 {
		switch {
		case spec != nil:
			die(fmt.Errorf("-workers-exec does not support -spec campaigns yet"))
		case *journalPath != "" || *resumePath != "":
			die(fmt.Errorf("-journal/-resume conflict with -workers-exec: the campaign dir's per-worker journals and merged journal replace them"))
		case disp.Dir == "":
			die(fmt.Errorf("-workers-exec needs -dispatch-dir for the lease ledger and per-worker journals"))
		}
		code := sweepDispatch(ctx, disp, kinds, *n, *cellWorkers, *workers, *csv, *progress, *records, *fpr, srv, metrics, panelOpt)
		stop()
		os.Exit(code)
	}
	if spec != nil {
		err = sweepSpec(ctx, spec, *n, alloc, *shared, *csv, *progress, *records, *fpr, srv, panelOpt)
	} else {
		err = sweep(ctx, kinds, *n, *cellWorkers, *csv, *progress, *records, *fpr, srv, panelOpt)
	}
	if journal != nil {
		if cerr := journal.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "mtsweep: closing journal:", cerr)
		}
	}
	stop()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "mtsweep:", err)
			if journal != nil {
				fmt.Fprintf(os.Stderr, "mtsweep: %d cell(s) checkpointed — resume with: mtsweep <same flags> -resume %s\n",
					journal.Len(), journal.Path())
			}
			os.Exit(core.SignalExitCode)
		}
		die(err)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "mtsweep:", err)
	os.Exit(1)
}

// openJournal resolves the -journal/-resume pair: -journal starts a
// fresh checkpoint file, -resume loads an existing one (rejecting
// unreadable or corrupt files up front) and keeps appending to it.
func openJournal(journalPath, resumePath string) (*core.Journal, error) {
	switch {
	case journalPath != "" && resumePath != "":
		return nil, fmt.Errorf("-journal and -resume are mutually exclusive: -resume already appends to the journal it loads")
	case resumePath != "":
		j, err := core.OpenJournal(resumePath)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "mtsweep: resuming from %s (%d cell(s) already completed)\n", resumePath, j.Len())
		return j, nil
	case journalPath != "":
		return core.CreateJournal(journalPath)
	default:
		return nil, nil
	}
}

// topoRep is the topology representation for set builds, flipped to
// RepMaterialized by -materialize. Cell results are bit-identical either
// way; only build time and memory move.
var topoRep = core.RepAuto

func sweep(ctx context.Context, kinds []workload.Kind, n, cellWorkers int, csv, progress bool, records string, fpr bool, srv *obs.Server, opt core.PanelOptions) error {
	start := time.Now()
	set, err := core.BuildSetRep(ctx, n, cellWorkers, topoRep)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mtsweep: built %d-endpoint topology set in %v\n", n, time.Since(start))

	// One meter spans the whole sweep so the ETA covers all panels.
	var meter *obs.ProgressMeter
	if progress {
		meter = obs.NewProgressMeter(os.Stderr, len(kinds)*core.PanelCells(set))
	} else if srv != nil {
		// No terminal line wanted, but /progress should still serve: an
		// inert meter (nil writer) tracks counts without drawing.
		meter = obs.NewProgressMeter(nil, len(kinds)*core.PanelCells(set))
	}
	if srv != nil {
		srv.SetProgress(meter)
	}

	sink, err := openRecordSink(records)
	if err != nil {
		return err
	}
	defer sink.Close()

	// Per-cell fingerprints keyed by cell identity: cells complete
	// concurrently, so the digest is assembled in sorted-key order at the
	// end to stay independent of scheduling.
	var fpMu sync.Mutex
	fps := make(map[string][]byte)

	for _, k := range kinds {
		w := k
		opt.OnCell = func(kind core.TopoKind, pt core.Point, res *core.RunResult, cached bool) {
			label := fmt.Sprintf("%s %s", w, kind)
			if pt != (core.Point{}) {
				label += " " + pt.Label()
			}
			if cached {
				meter.StepCached(label)
			} else {
				meter.Step(label)
			}
			if sink != nil || fpr {
				line, err := res.Record().MarshalLine()
				if err == nil && fpr {
					fp, ferr := res.Record().Fingerprint()
					if ferr == nil {
						fpMu.Lock()
						fps[fmt.Sprintf("%s/%s/%s", w, kind, pt.Label())] = fp
						fpMu.Unlock()
					}
				}
				if sink != nil {
					if err == nil {
						sink.Write(line)
					} else {
						fmt.Fprintln(os.Stderr, "\nmtsweep: encoding record:", err)
					}
				}
			}
		}
		fig, err := core.PanelContext(ctx, set, w, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		if meter != nil {
			// Clear the live line before the table lands on stdout, in case
			// both streams share a terminal.
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
		emit(fig, csv)
	}
	meter.Finish()
	if fpr {
		printFingerprint(fps)
	}
	return nil
}

// sweepSpec runs the open-system campaign: one multi-client job stream
// (a pure function of the spec, so every cell schedules the identical
// arrivals) placed onto every topology of the set — differences between
// rows are purely architectural.
func sweepSpec(ctx context.Context, spec *workload.OpenSpec, n int, alloc sched.AllocPolicy, shared, csv, progress bool, records string, fpr bool, srv *obs.Server, opt core.PanelOptions) error {
	start := time.Now()
	set, err := core.BuildSetRep(ctx, n, opt.Workers, topoRep)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mtsweep: built %d-endpoint topology set in %v\n", n, time.Since(start))

	var meter *obs.ProgressMeter
	if progress {
		meter = obs.NewProgressMeter(os.Stderr, core.PanelCells(set))
	} else if srv != nil {
		meter = obs.NewProgressMeter(nil, core.PanelCells(set))
	}
	if srv != nil {
		srv.SetProgress(meter)
	}

	sink, err := openRecordSink(records)
	if err != nil {
		return err
	}
	defer sink.Close()

	var fpMu sync.Mutex
	fps := make(map[string][]byte)

	tab, err := core.OpenPanelContext(ctx, set, spec, core.OpenPanelOptions{
		Alloc:        alloc,
		Sim:          opt,
		SharedFabric: shared,
		OnCell: func(cell *core.OpenCell) {
			label := fmt.Sprint(cell.Kind)
			if cell.Pt != (core.Point{}) {
				label += " " + cell.Pt.Label()
			}
			meter.Step(label)
			if sink == nil && !fpr {
				return
			}
			rec := cell.Record(core.OpenConfig{
				Kind:       cell.Kind,
				Endpoints:  n,
				T:          cell.Pt.T,
				U:          cell.Pt.U,
				Allocation: alloc,
				Spec:       spec,
			})
			if fpr {
				if fp, ferr := rec.Fingerprint(); ferr == nil {
					fpMu.Lock()
					fps[fmt.Sprintf("%s/%s", cell.Kind, cell.Pt.Label())] = fp
					fpMu.Unlock()
				}
			}
			if sink != nil {
				if line, lerr := rec.MarshalLine(); lerr == nil {
					sink.Write(line)
				} else {
					fmt.Fprintln(os.Stderr, "\nmtsweep: encoding record:", lerr)
				}
			}
		},
	})
	if err != nil {
		return err
	}
	if meter != nil {
		fmt.Fprint(os.Stderr, "\r\033[K")
	}
	if csv {
		_ = tab.WriteCSV(os.Stdout)
	} else {
		_ = tab.WriteText(os.Stdout)
		fmt.Println()
	}
	meter.Finish()
	if fpr {
		printFingerprint(fps)
	}
	return nil
}

// recordSink streams one JSON line per completed cell to a JSONL file,
// serialising concurrent writers. A nil sink discards everything.
type recordSink struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

func openRecordSink(path string) (*recordSink, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &recordSink{f: f, w: bufio.NewWriter(f)}, nil
}

func (s *recordSink) Write(line []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(line); err != nil {
		fmt.Fprintln(os.Stderr, "\nmtsweep: writing record:", err)
	}
}

func (s *recordSink) Close() {
	if s == nil {
		return
	}
	if err := s.w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "mtsweep: flushing records:", err)
	}
	if err := s.f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mtsweep: closing records:", err)
	}
}

// printFingerprint digests the per-cell fingerprints in sorted-key order
// (cells complete concurrently) and prints the campaign checksum.
func printFingerprint(fps map[string][]byte) {
	keys := make([]string, 0, len(fps))
	for k := range fps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write(fps[k])
	}
	fmt.Printf("fingerprint %x\n", h.Sum(nil))
}

func emit(fig *report.Figure, csv bool) {
	tab := fig.Table()
	if csv {
		_ = tab.WriteCSV(os.Stdout)
	} else {
		_ = tab.WriteText(os.Stdout)
		fmt.Println()
	}
}
