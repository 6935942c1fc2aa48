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
	"flag"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mtier/internal/cli"
	"mtier/internal/core"
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
		fpr         = flag.Bool("fingerprint", false, "print a sha256 over the canonical run records of all cells (determinism check)")
	)
	p := cli.New("mtfault", flag.CommandLine)
	cf := cli.AddCampaignFlags(flag.CommandLine)
	flag.Parse()

	if cf.Dispatch.WorkerMode() {
		p.Exit(cli.Status(cf.Dispatch.RunWorkerMain("mtfault", *workers)))
	}
	ctx := p.Start(0)
	w, err := workload.ParseKind(*wName)
	p.Check(err)
	model, err := fault.ParseModel(*modelName)
	p.Check(err)
	specs, err := parseTopos(*topos, *n, *t, *u)
	p.Check(err)
	fracs, err := parseFractions(*fractions)
	p.Check(err)
	camp, err := p.OpenCampaign(cf, false)
	p.Check(err)

	opt := core.DegradationOptions{
		Model:     model,
		FaultSeed: *faultSeed,
		Clusters:  *clusters,
		Workload:  w,
		Params:    workload.Params{Tasks: *tasks, Seed: *seed, MsgBytes: *msg},
		Sim:       flow.Options{RelEpsilon: *eps, Workers: *workers, Metrics: p.Metrics},
		Workers:   *cellWorkers,
		Runner:    camp.Runner,
		Journal:   camp.Journal,
	}
	r := &run{p: p, sink: camp.Sink, specs: specs, fracs: fracs, csv: *csv, fpr: *fpr}
	grid, err := core.DegradationGrid(specs, fracs, opt)
	if err == nil && cf.Dispatch.WorkersExec > 0 {
		cfgs := make([]core.Config, len(grid))
		for i, pt := range grid {
			cfgs[i] = pt.Config
		}
		err = cf.Dispatch.Campaign(ctx, "mtfault", cfgs, *workers, p.Metrics, p.Meter(len(cfgs), cf.Progress),
			func(merged *core.Journal) error {
				opt.Journal = merged
				return r.sweep(len(grid), false, opt)
			})
	} else if err == nil {
		err = r.sweep(len(grid), cf.Progress, opt)
	}
	p.Exit(camp.Close(err))
}

// parseTopos resolves the -topos list into validated TopoSpecs, applying
// the (t, u) design point to the hybrid families only.
func parseTopos(list string, n, t, u int) ([]core.TopoSpec, error) {
	var specs []core.TopoSpec
	for _, name := range strings.Split(list, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		kind, err := core.ParseTopoKind(name)
		if err != nil {
			return nil, err
		}
		spec := core.TopoSpec{Kind: kind, Endpoints: n}
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

// run is one mtfault invocation's fixed inputs.
type run struct {
	p     *cli.Process
	sink  *cli.Sink
	specs []core.TopoSpec
	fracs []float64
	csv   bool
	fpr   bool
}

// sweep runs the degradation sweep; cells is its grid size, the
// progress meter's total, and draw renders the live progress line.
func (r *run) sweep(cells int, draw bool, opt core.DegradationOptions) error {
	meter := r.p.Meter(cells, draw)
	opt.OnCell = func(spec core.TopoSpec, fraction float64, res *core.RunResult, cached bool) {
		label := fmt.Sprintf("%s @%g%%", spec.Kind, fraction*100)
		if cached {
			meter.StepCached(label)
		} else {
			meter.Step(label)
		}
		r.sink.Add(label, res.Record())
	}
	rep, err := core.DegradationSweepContext(r.p.Ctx, r.specs, r.fracs, opt)
	if err != nil {
		return err
	}
	meter.Clear()
	meter.Finish()

	tabs := []*report.Table{rep.Table()}
	if !r.csv {
		tabs = append(tabs, rep.NormTimeFigure().Table(), rep.ReachabilityFigure().Table())
	}
	for _, tab := range tabs {
		if err := cli.Emit(tab, r.csv); err != nil {
			return err
		}
	}
	if !r.fpr {
		return nil
	}
	// The digest covers every cell's canonical (phase-timing-free) run
	// record in deterministic order — series in spec order, cells in
	// ascending fraction order — so two same-seed sweeps must agree, which
	// the CI fault-smoke job asserts.
	var fps [][]byte
	for _, series := range rep.Series {
		cells := append([]core.DegradationCell(nil), series...)
		sort.Slice(cells, func(a, b int) bool { return cells[a].Fraction < cells[b].Fraction })
		for _, c := range cells {
			fp, err := c.Result.Record().Fingerprint()
			if err != nil {
				return err
			}
			fps = append(fps, fp)
		}
	}
	fmt.Printf("fingerprint %s\n", obs.Digest(fps...))
	return nil
}
