package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mtier/internal/fault"
	"mtier/internal/flow"
	"mtier/internal/place"
	"mtier/internal/report"
	"mtier/internal/topo"
	"mtier/internal/workload"
)

// DegradationOptions configures a resilience sweep: one workload run per
// (topology, link-fault fraction) cell, all faults drawn from one seed.
type DegradationOptions struct {
	// Model selects the failure generator (default fault.Random).
	Model fault.Model
	// FaultSeed drives every fault draw; the workload seed lives in Params.
	FaultSeed int64
	// Clusters is the Clustered model's epicenter count (default 1).
	Clusters int
	// Workload and its parameters, as in Config.
	Workload workload.Kind
	Params   workload.Params
	// Placement maps tasks to endpoints (Config's default applies).
	Placement place.Policy
	// Sim tunes the engine (Run's defaults apply).
	Sim flow.Options
	// Workers bounds sweep concurrency (0 = NumCPU).
	Workers int
	// OnCell, when non-nil, is invoked once per finished cell — the hook
	// behind CLI progress and per-cell run records. Called concurrently
	// from worker goroutines; implementations must be goroutine-safe.
	// Cells spliced from a resume journal fire it too; cached reports
	// whether the cell came from the journal.
	OnCell func(spec TopoSpec, fraction float64, res *RunResult, cached bool)
	// Runner supervises cell execution: panic isolation, per-cell
	// deadlines with bounded retry, aggregated errors, and the optional
	// memory watchdog.
	Runner RunnerOptions
	// Journal, when non-nil, checkpoints the sweep: completed cells are
	// durably appended and already-journaled cells are spliced from
	// cache instead of re-simulated.
	Journal *Journal
}

// DegradationCell is one finished cell of a degradation sweep.
type DegradationCell struct {
	Spec     TopoSpec
	Fraction float64 // link-fault fraction of this cell
	// Reachability is the fraction of the workload's flows that were
	// delivered: 1 - disconnected/total. Fault sets are nested across
	// fractions (see fault.Generate), so for a fixed seed this is
	// monotonically non-increasing in Fraction.
	Reachability float64
	// NormTime is the cell's makespan divided by the same topology's
	// pristine (fraction 0) makespan.
	NormTime float64
	Result   *RunResult
}

// DegradationReport is the outcome of a degradation sweep: for each
// topology, one cell per fault fraction in ascending order.
type DegradationReport struct {
	Fractions []float64
	Series    [][]DegradationCell // indexed [spec][fraction]
}

// DegradationPoint is one enumerated cell of a degradation sweep: its
// grid coordinates and the fully assembled simulation config, in the
// same shape PanelCell gives figure sweeps — the unit a distributed
// dispatcher leases and CellKey identifies.
type DegradationPoint struct {
	Spec     TopoSpec
	Fraction float64
	Config   Config
}

// NormalizeFractions validates and canonicalises a fraction list the way
// DegradationSweep does: sorted ascending, the pristine baseline 0
// prepended when absent, duplicates and out-of-range values rejected.
func NormalizeFractions(fractions []float64) ([]float64, error) {
	fracs := append([]float64(nil), fractions...)
	sort.Float64s(fracs)
	if len(fracs) == 0 || fracs[0] != 0 {
		fracs = append([]float64{0}, fracs...)
	}
	for i, f := range fracs {
		if f < 0 || f > 1 || math.IsNaN(f) {
			return nil, fmt.Errorf("core: fault fraction %g out of [0, 1]", f)
		}
		if i > 0 && f == fracs[i-1] {
			return nil, fmt.Errorf("core: duplicate fault fraction %g", f)
		}
	}
	return fracs, nil
}

// DegradationGrid enumerates the cells of a degradation sweep in
// canonical order — specs outermost, fractions ascending within each —
// with configs exactly matching what DegradationSweepContext submits, so
// CellKey over a grid point matches the journal key the in-process sweep
// writes.
func DegradationGrid(specs []TopoSpec, fractions []float64, opt DegradationOptions) ([]DegradationPoint, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: degradation sweep needs at least one topology")
	}
	model := opt.Model
	if model == "" {
		model = fault.Random
	}
	fracs, err := NormalizeFractions(fractions)
	if err != nil {
		return nil, err
	}
	cells := make([]DegradationPoint, 0, len(specs)*len(fracs))
	for _, spec := range specs {
		for _, frac := range fracs {
			cfg := Config{
				Kind:      spec.Kind,
				Endpoints: spec.Endpoints,
				T:         spec.T,
				U:         spec.U,
				Workload:  opt.Workload,
				Params:    opt.Params,
				Placement: opt.Placement,
				Sim:       opt.Sim,
			}
			if frac > 0 {
				cfg.Faults = &fault.Spec{
					Model:        model,
					LinkFraction: frac,
					Seed:         opt.FaultSeed,
					Clusters:     opt.Clusters,
				}
			}
			cells = append(cells, DegradationPoint{Spec: spec, Fraction: frac, Config: cfg})
		}
	}
	return cells, nil
}

// DegradationSweep runs the workload over every (topology, fraction)
// cell and reports how each fabric degrades. Fraction 0 (the pristine
// baseline every cell normalises against) is added when absent; the
// fractions are swept in ascending order. Each topology is built once
// and shared across its cells; each cell generates its own fault set
// from (opt.Model, opt.FaultSeed, fraction), so the failed components at
// a smaller fraction are a subset of those at a larger one and the
// degradation curves are monotone in reachability by construction.
func DegradationSweep(specs []TopoSpec, fractions []float64, opt DegradationOptions) (*DegradationReport, error) {
	return DegradationSweepContext(context.Background(), specs, fractions, opt)
}

// DegradationSweepContext is DegradationSweep under a context and the
// supervised runner: cancellation stops dispatching cells and aborts
// in-flight ones at their next epoch boundary, panics fail only their
// own cell, and — with opt.Journal set — completed cells are durably
// checkpointed so an interrupted sweep resumes without re-simulating.
func DegradationSweepContext(ctx context.Context, specs []TopoSpec, fractions []float64, opt DegradationOptions) (*DegradationReport, error) {
	cells, err := DegradationGrid(specs, fractions, opt)
	if err != nil {
		return nil, err
	}
	fracs := make([]float64, 0, len(cells)/len(specs))
	for _, c := range cells[:len(cells)/len(specs)] {
		fracs = append(fracs, c.Fraction)
	}

	// Build each topology once; its cells share the instance (Run wraps
	// it per cell, so the bare topology is never mutated).
	tops := make([]topo.Topology, len(specs))
	err = runCells(ctx, len(specs), opt.Workers, RunnerOptions{}, func(_ context.Context, i int) error {
		t, err := Build(specs[i])
		if err != nil {
			return fmt.Errorf("core: building %s: %w", specs[i].Kind, err)
		}
		tops[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &DegradationReport{Fractions: fracs, Series: make([][]DegradationCell, len(specs))}
	for i := range rep.Series {
		rep.Series[i] = make([]DegradationCell, len(fracs))
	}
	err = runCells(ctx, len(cells), opt.Workers, opt.Runner, func(ctx context.Context, c int) error {
		si, fi := c/len(fracs), c%len(fracs)
		spec, frac := cells[c].Spec, cells[c].Fraction
		res, cached, err := runCellJournaled(ctx, opt.Journal, cells[c].Config, tops[si])
		if err != nil {
			return fmt.Errorf("core: %s at fault fraction %g: %w", spec.Kind, frac, err)
		}
		reach := 1.0
		if res.Flows > 0 {
			reach = 1 - float64(res.Result.DisconnectedFlows)/float64(res.Flows)
		}
		rep.Series[si][fi] = DegradationCell{
			Spec:         spec,
			Fraction:     frac,
			Reachability: reach,
			Result:       res,
		}
		if opt.OnCell != nil {
			opt.OnCell(spec, frac, res, cached)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si := range rep.Series {
		base := rep.Series[si][0].Result.Result.Makespan
		if base <= 0 {
			return nil, fmt.Errorf("core: pristine makespan is %g for %s", base, specs[si].Kind)
		}
		for fi := range rep.Series[si] {
			rep.Series[si][fi].NormTime = rep.Series[si][fi].Result.Result.Makespan / base
		}
	}
	return rep, nil
}

// fractionLabel renders a fault fraction as the sweep's x-axis label.
func fractionLabel(f float64) string { return fmt.Sprintf("%g%%", f*100) }

// seriesLabel names one topology's curve.
func seriesLabel(s TopoSpec) string {
	switch s.Kind {
	case NestTree, NestGHC:
		return fmt.Sprintf("%s(%d,%d)", kindLegend(s.Kind), s.T, s.U)
	default:
		return kindLegend(s.Kind)
	}
}

// NormTimeFigure renders normalised execution time vs. fault fraction,
// one series per topology.
func (r *DegradationReport) NormTimeFigure() *report.Figure {
	fig := report.NewFigure("Degradation — normalised execution time", "link-fault fraction", "Norm. execution time")
	for _, series := range r.Series {
		for _, c := range series {
			fig.Add(seriesLabel(c.Spec), fractionLabel(c.Fraction), c.NormTime)
		}
	}
	return fig
}

// ReachabilityFigure renders flow reachability vs. fault fraction, one
// series per topology.
func (r *DegradationReport) ReachabilityFigure() *report.Figure {
	fig := report.NewFigure("Degradation — reachability", "link-fault fraction", "Delivered flow fraction")
	for _, series := range r.Series {
		for _, c := range series {
			fig.Add(seriesLabel(c.Spec), fractionLabel(c.Fraction), c.Reachability)
		}
	}
	return fig
}

// Table renders the sweep in long form, one row per cell — the CSV/JSON
// shape downstream tooling consumes. The instance column carries the
// degraded topology name, whose fault label records the resolved set
// (e.g. "faults[random,c12,s0,e0,seed7]").
func (r *DegradationReport) Table() *report.Table {
	t := report.NewTable("Degradation sweep",
		"topology", "fault_fraction", "makespan_s", "norm_time", "reachability",
		"rerouted_flows", "disconnected_flows", "instance")
	for _, series := range r.Series {
		for _, c := range series {
			t.AddRow(seriesLabel(c.Spec), fmt.Sprintf("%g", c.Fraction),
				report.FormatFloat(c.Result.Result.Makespan),
				report.FormatFloat(c.NormTime),
				report.FormatFloat(c.Reachability),
				c.Result.Result.ReroutedFlows,
				c.Result.Result.DisconnectedFlows,
				c.Result.Topology)
		}
	}
	return t
}
