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
	"flag"
	"fmt"
	"os"
	"time"

	"mtier/internal/cli"
	"mtier/internal/core"
	"mtier/internal/flow"
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
		exact       = flag.Bool("exact", false, "use the reference full-recompute waterfill instead of the incremental engine")
		fpr         = flag.Bool("fingerprint", false, "print a sha256 over the canonical run records of all cells (determinism / resume check)")
		jverify     = flag.String("journal-verify", "", "verify this sweep journal standalone (schema, per-record sha256, crash tail) and exit; no sweep runs")
	)
	p := cli.New("mtsweep", flag.CommandLine)
	cf := cli.AddCampaignFlags(flag.CommandLine)
	flag.Parse()

	if cf.Dispatch.WorkerMode() {
		p.Exit(cli.Status(cf.Dispatch.RunWorkerMain("mtsweep", *workers)))
	}
	ctx := p.Start(0)
	if *jverify != "" {
		p.Exit(verifyJournal(*jverify))
	}

	var kinds []workload.Kind
	var spec *workload.OpenSpec
	var alloc sched.AllocPolicy
	var err error
	if *specPath != "" {
		// Open-system campaign: the spec's clients define the workload
		// mix, so the closed-system workload selectors do not apply.
		switch {
		case *setName != "" || *wName != "":
			p.Exit(fmt.Errorf("-spec replaces -set/-workload: the spec's clients define the job mix"))
		case cf.Journal != "" || cf.Resume != "":
			p.Exit(fmt.Errorf("-journal/-resume do not support -spec campaigns yet"))
		case cf.Dispatch.WorkersExec > 0:
			p.Exit(fmt.Errorf("-workers-exec does not support -spec campaigns yet"))
		}
		spec, err = workload.LoadSpec(*specPath)
		p.Check(err)
		alloc, err = sched.ParseAllocPolicy(*allocName)
		p.Check(err)
	} else {
		switch {
		case *wName != "":
			k, err := workload.ParseKind(*wName)
			p.Check(err)
			kinds = []workload.Kind{k}
		case *setName == "heavy":
			kinds = workload.HeavyKinds()
		case *setName == "light":
			kinds = workload.LightKinds()
		case *setName == "all" || *setName == "":
			kinds = workload.Kinds()
		default:
			p.Exit(fmt.Errorf("unknown set %q (valid: heavy, light, all)", *setName))
		}
	}

	// Flag validation up front: an unreadable journal or a nonsensical
	// timeout must fail before the topology set is built.
	camp, err := p.OpenCampaign(cf, *fpr)
	p.Check(err)
	r := &run{p: p, sink: camp.Sink, n: *n, csv: *csv}
	opt := core.PanelOptions{
		Seed:     *seed,
		Tasks:    *tasks,
		MsgBytes: *msg,
		Workers:  *cellWorkers,
		Sim:      flow.Options{RelEpsilon: *eps, ExactRecompute: *exact, Workers: *workers, Metrics: p.Metrics},
		Runner:   camp.Runner,
		Journal:  camp.Journal,
	}
	switch {
	case spec != nil:
		err = r.sweepSpec(spec, alloc, *shared, cf.Progress, opt)
	case cf.Dispatch.WorkersExec > 0:
		var cfgs []core.Config
		for _, w := range kinds {
			for _, cell := range core.PanelGrid(*n, core.PaperPoints(), w, opt) {
				cfgs = append(cfgs, cell.Config)
			}
		}
		err = cf.Dispatch.Campaign(ctx, "mtsweep", cfgs, *workers, p.Metrics, p.Meter(len(cfgs), cf.Progress),
			func(merged *core.Journal) error {
				opt.Journal = merged
				return r.sweep(kinds, false, opt)
			})
	default:
		err = r.sweep(kinds, cf.Progress, opt)
	}
	if err == nil && *fpr {
		fmt.Printf("fingerprint %s\n", camp.Sink.Fingerprint())
	}
	p.Exit(camp.Close(err))
}

// run is one mtsweep invocation's fixed inputs.
type run struct {
	p    *cli.Process
	sink *cli.Sink
	n    int
	csv  bool
}

func (r *run) buildSet(workers int) (*core.TopoSet, error) {
	start := time.Now()
	set, err := core.BuildSetContext(r.p.Ctx, r.n, workers)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "mtsweep: built %d-endpoint topology set in %v\n", r.n, time.Since(start))
	return set, nil
}

// sweep runs one closed-system panel per workload kind; draw renders the
// live progress line.
func (r *run) sweep(kinds []workload.Kind, draw bool, opt core.PanelOptions) error {
	set, err := r.buildSet(opt.Workers)
	if err != nil {
		return err
	}
	// One meter spans the whole sweep so the ETA covers all panels.
	meter := r.p.Meter(len(kinds)*core.PanelCells(set), draw)
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
			// Cells complete concurrently: the sink digests them in
			// sorted-key order to stay independent of scheduling.
			r.sink.Add(fmt.Sprintf("%s/%s/%s", w, kind, pt.Label()), res.Record())
		}
		fig, err := core.PanelContext(r.p.Ctx, set, w, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		// Clear the live line before the table lands on stdout, in case
		// both streams share a terminal.
		meter.Clear()
		if err := cli.Emit(fig.Table(), r.csv); err != nil {
			return err
		}
	}
	meter.Finish()
	return nil
}

// sweepSpec runs the open-system campaign: one multi-client job stream
// (a pure function of the spec, so every cell schedules the identical
// arrivals) placed onto every topology of the set — differences between
// rows are purely architectural.
func (r *run) sweepSpec(spec *workload.OpenSpec, alloc sched.AllocPolicy, shared, draw bool, opt core.PanelOptions) error {
	set, err := r.buildSet(opt.Workers)
	if err != nil {
		return err
	}
	meter := r.p.Meter(core.PanelCells(set), draw)
	tab, err := core.OpenPanelContext(r.p.Ctx, set, spec, core.OpenPanelOptions{
		Alloc:        alloc,
		Sim:          opt,
		SharedFabric: shared,
		OnCell: func(cell *core.OpenCell) {
			label := fmt.Sprint(cell.Kind)
			if cell.Pt != (core.Point{}) {
				label += " " + cell.Pt.Label()
			}
			meter.Step(label)
			r.sink.Add(fmt.Sprintf("%s/%s", cell.Kind, cell.Pt.Label()), cell.Record(core.OpenConfig{
				Kind:       cell.Kind,
				Endpoints:  r.n,
				T:          cell.Pt.T,
				U:          cell.Pt.U,
				Allocation: alloc,
				Spec:       spec,
			}))
		},
	})
	if err != nil {
		return err
	}
	meter.Clear()
	if err := cli.Emit(tab, r.csv); err != nil {
		return err
	}
	meter.Finish()
	return nil
}

// verifyJournal is the -journal-verify mode: walk one journal
// standalone, report every issue with its line number and byte offset,
// and fail when any record failed.
func verifyJournal(path string) error {
	rep, err := core.VerifyJournal(path)
	if err != nil {
		return err
	}
	fmt.Printf("journal %s: %d record(s), %d checksummed, %d issue(s), %d tail byte(s)\n",
		rep.Path, rep.Records, rep.Checksummed, len(rep.Issues), rep.TailBytes)
	if rep.TailBytes > 0 {
		fmt.Println("  note: unterminated final line (crash remnant) — resuming via -resume repairs it")
	}
	for _, is := range rep.Issues {
		fmt.Printf("  line %d (byte offset %d): %s\n", is.Line, is.Offset, is.Detail)
	}
	if !rep.Clean() {
		return cli.Status(1)
	}
	return nil
}
