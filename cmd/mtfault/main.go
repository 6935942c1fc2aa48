// Command mtfault sweeps link-fault fractions over a set of topologies
// and reports how each fabric degrades: normalised execution time and
// flow reachability versus the fraction of failed cables. Fault sets are
// nested across fractions (the failed cables at 1% are a subset of those
// at 2% for the same seed), so reachability is monotonically
// non-increasing along each curve and every sweep is reproducible bit
// for bit from its seeds.
//
// Tables and CSV go to stdout; a live progress line is rendered on
// stderr so redirected output stays clean. -fingerprint emits a single
// sha256 over the canonical (phase-timing-free) run records of every
// cell, the determinism check CI compares across two same-seed runs.
//
// Campaigns are crash-safe: -journal checkpoints every completed cell to
// an fsync'd JSONL file, the first SIGINT/SIGTERM cancels gracefully and
// prints a resume hint, and -resume replays the journal so only missing
// cells are re-simulated — with a byte-identical -fingerprint.
// -celltimeout/-retries bound and retry individual cells.
//
// Usage:
//
//	mtfault -n 4096 -topos torus,fattree,nesttree,nestghc
//	mtfault -fractions 0.01,0.02,0.05,0.1 -model clustered
//	mtfault -topos nestghc -t 2 -u 4 -workload allreduce -csv
//	mtfault -records cells.jsonl -fingerprint
//	mtfault -journal sweep.jsonl               # checkpointed campaign
//	mtfault -resume sweep.jsonl                # finish an interrupted one
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
	"strconv"
	"strings"
	"sync"

	"mtier/internal/core"
	"mtier/internal/dispatch"
	"mtier/internal/fault"
	"mtier/internal/flow"
	"mtier/internal/obs"
	"mtier/internal/report"
	"mtier/internal/workload"
)

func main() {
	var (
		n           = flag.Int("n", 4096, "total number of QFDBs (endpoints)")
		topos       = flag.String("topos", "torus,fattree,nesttree,nestghc", "comma-separated topology kinds to sweep")
		t           = flag.Int("t", 4, "subtorus nodes per dimension (hybrid families)")
		u           = flag.Int("u", 4, "one uplink per u QFDBs (hybrid families)")
		fractions   = flag.String("fractions", "0.01,0.02,0.05,0.1", "comma-separated link-fault fractions (0 is always included as the baseline)")
		modelName   = flag.String("model", "random", "failure model: random | clustered | targeted")
		clusters    = flag.Int("clusters", 1, "failure epicenters of the clustered model")
		faultSeed   = flag.Int64("faultseed", 1, "fault-draw seed")
		wName       = flag.String("workload", "allreduce", "workload to run per cell")
		tasks       = flag.Int("tasks", 0, "task count (0 = workload default)")
		msg         = flag.Float64("msg", 0, "base message size in bytes (0 = workload default)")
		seed        = flag.Int64("seed", 1, "workload seed")
		eps         = flag.Float64("eps", 0.01, "completion batching window")
		cellWorkers = flag.Int("cellworkers", 0, "parallel cells (0 = NumCPU)")
		workers     = flag.Int("workers", 1, "intra-run worker threads per cell; results are identical for every value (0 = GOMAXPROCS)")
		csv         = flag.Bool("csv", false, "emit CSV")
		progress    = flag.Bool("progress", true, "render a live progress line on stderr")
		records     = flag.String("records", "", "append one JSON run record per cell to this file (JSONL)")
		fpr         = flag.Bool("fingerprint", false, "print a sha256 over the canonical run records of all cells (determinism check)")
		journalPath = flag.String("journal", "", "checkpoint every completed cell to this JSONL journal (fresh file)")
		resumePath  = flag.String("resume", "", "resume from this journal: skip already-completed cells and keep appending to it")
		cellTimeout = flag.Duration("celltimeout", 0, "per-cell deadline (0 = none); timed-out cells are retried")
		retries     = flag.Int("retries", 0, "extra same-seed attempts for a cell that exceeds -celltimeout")
		memBudget   = flag.Int64("membudget", 0, "soft heap budget in bytes (0 = off); concurrency is shed while over it")
		obsAddr     = flag.String("obslisten", "", "serve /metrics, /progress and pprof on this address (e.g. :9090)")
		material    = flag.Bool("materialize", false, "force the materialised (stored-table) topology representation; results are bit-identical to the default implicit one")
	)
	prof := obs.AddProfileFlags(flag.CommandLine)
	disp := dispatch.AddCLIFlags(flag.CommandLine)
	flag.Parse()

	if disp.WorkerMode() {
		os.Exit(disp.RunWorkerMain("mtfault", *workers))
	}
	w, err := workload.ParseKind(*wName)
	if err != nil {
		die(err)
	}
	model, err := fault.ParseModel(*modelName)
	if err != nil {
		die(err)
	}
	rep := core.RepAuto
	if *material {
		rep = core.RepMaterialized
	}
	specs, err := parseTopos(*topos, *n, *t, *u, rep)
	if err != nil {
		die(err)
	}
	fracs, err := parseFractions(*fractions)
	if err != nil {
		die(err)
	}
	runner := core.RunnerOptions{
		CellTimeout:    *cellTimeout,
		MaxRetries:     *retries,
		MemBudgetBytes: *memBudget,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "\nmtfault: "+format+"\n", args...)
		},
	}
	if err := runner.Validate(); err != nil {
		die(err)
	}
	journal, err := openJournal(*journalPath, *resumePath)
	if err != nil {
		die(err)
	}

	ctx, stopSignals := core.SignalContext(context.Background(), "mtfault", os.Stderr)
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
		fmt.Fprintln(os.Stderr, "mtfault: observability endpoint on http://"+srv.Addr())
	}
	degOpt := core.DegradationOptions{
		Model:     model,
		FaultSeed: *faultSeed,
		Clusters:  *clusters,
		Workload:  w,
		Params:    workload.Params{Tasks: *tasks, Seed: *seed, MsgBytes: *msg},
		Sim:       flow.Options{RelEpsilon: *eps, Workers: *workers, Metrics: metrics},
		Workers:   *cellWorkers,
		Runner:    runner,
		Journal:   journal,
	}
	if disp.WorkersExec > 0 {
		switch {
		case *journalPath != "" || *resumePath != "":
			die(fmt.Errorf("-journal/-resume conflict with -workers-exec: the campaign dir's per-worker journals and merged journal replace them"))
		case disp.Dir == "":
			die(fmt.Errorf("-workers-exec needs -dispatch-dir for the lease ledger and per-worker journals"))
		}
		code := faultDispatch(ctx, disp, specs, fracs, *workers, *csv, *progress, *records, *fpr, srv, metrics, degOpt)
		stop()
		os.Exit(code)
	}
	err = run(ctx, specs, fracs, *csv, *progress, *records, *fpr, srv, degOpt)
	if journal != nil {
		if cerr := journal.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "mtfault: closing journal:", cerr)
		}
	}
	stop()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "mtfault:", err)
			if journal != nil {
				fmt.Fprintf(os.Stderr, "mtfault: %d cell(s) checkpointed — resume with: mtfault <same flags> -resume %s\n",
					journal.Len(), journal.Path())
			}
			os.Exit(core.SignalExitCode)
		}
		die(err)
	}
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
		fmt.Fprintf(os.Stderr, "mtfault: resuming from %s (%d cell(s) already completed)\n", resumePath, j.Len())
		return j, nil
	case journalPath != "":
		return core.CreateJournal(journalPath)
	default:
		return nil, nil
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "mtfault:", err)
	os.Exit(1)
}

// parseTopos resolves the -topos list into validated TopoSpecs, applying
// the (t, u) design point to the hybrid families only.
func parseTopos(list string, n, t, u int, rep core.Representation) ([]core.TopoSpec, error) {
	var specs []core.TopoSpec
	for _, name := range strings.Split(list, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		kind, err := core.ParseTopoKind(name)
		if err != nil {
			return nil, err
		}
		spec := core.TopoSpec{Kind: kind, Endpoints: n, Rep: rep}
		switch kind {
		case core.NestTree, core.NestGHC:
			spec.T, spec.U = t, u
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no topologies in %q", list)
	}
	return specs, nil
}

// parseFractions parses the -fractions list.
func parseFractions(list string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad fraction %q: %w", s, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func run(ctx context.Context, specs []core.TopoSpec, fracs []float64, csv, progress bool, records string, fpr bool, srv *obs.Server, opt core.DegradationOptions) error {
	var meter *obs.ProgressMeter
	nFracs := len(fracs)
	hasZero := false
	for _, f := range fracs {
		if f == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		nFracs++
	}
	if progress {
		meter = obs.NewProgressMeter(os.Stderr, len(specs)*nFracs)
	} else if srv != nil {
		// Writer-less meter: /progress still serves counts without a
		// terminal line.
		meter = obs.NewProgressMeter(nil, len(specs)*nFracs)
	}
	if srv != nil {
		srv.SetProgress(meter)
	}

	var recMu sync.Mutex
	var recW *bufio.Writer
	if records != "" {
		f, err := os.Create(records)
		if err != nil {
			return err
		}
		recW = bufio.NewWriter(f)
		defer func() {
			if err := recW.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "mtfault: flushing records:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mtfault: closing records:", err)
			}
		}()
	}

	opt.OnCell = func(spec core.TopoSpec, fraction float64, res *core.RunResult, cached bool) {
		label := fmt.Sprintf("%s @%g%%", spec.Kind, fraction*100)
		if cached {
			meter.StepCached(label)
		} else {
			meter.Step(label)
		}
		if recW != nil {
			line, err := res.Record().MarshalLine()
			recMu.Lock()
			defer recMu.Unlock()
			if err == nil {
				_, err = recW.Write(line)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "\nmtfault: writing record:", err)
			}
		}
	}

	rep, err := core.DegradationSweepContext(ctx, specs, fracs, opt)
	if err != nil {
		return err
	}
	if meter != nil {
		fmt.Fprint(os.Stderr, "\r\033[K")
		meter.Finish()
	}

	emit(rep.Table(), csv)
	if !csv {
		emit(rep.NormTimeFigure().Table(), false)
		emit(rep.ReachabilityFigure().Table(), false)
	}
	if fpr {
		sum, err := fingerprint(rep)
		if err != nil {
			return err
		}
		fmt.Printf("fingerprint %x\n", sum)
	}
	return nil
}

// fingerprint hashes the canonical (phase-timing-free) run record of
// every cell in deterministic order: two same-seed sweeps must produce
// the same digest, which the CI fault-smoke job asserts.
func fingerprint(rep *core.DegradationReport) ([]byte, error) {
	h := sha256.New()
	// Series are already in spec order; cells in ascending fraction order.
	for _, series := range rep.Series {
		cells := append([]core.DegradationCell(nil), series...)
		sort.Slice(cells, func(a, b int) bool { return cells[a].Fraction < cells[b].Fraction })
		for _, c := range cells {
			fp, err := c.Result.Record().Fingerprint()
			if err != nil {
				return nil, err
			}
			h.Write(fp)
		}
	}
	return h.Sum(nil), nil
}

func emit(tab *report.Table, csv bool) {
	if csv {
		_ = tab.WriteCSV(os.Stdout)
	} else {
		_ = tab.WriteText(os.Stdout)
		fmt.Println()
	}
}
