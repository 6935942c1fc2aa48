package core

import (
	"context"
	"fmt"
	"sync"

	"mtier/internal/cost"
	"mtier/internal/flow"
	"mtier/internal/metrics"
	"mtier/internal/report"
	"mtier/internal/topo"
	"mtier/internal/topo/nest"
	"mtier/internal/workload"
)

// TopoSet holds one instance of every topology of the study so sweeps can
// share them: the reference torus and fattree, plus a NestTree and a
// NestGHC per (t,u) point. Topologies are read-only after construction and
// safe for concurrent routing.
type TopoSet struct {
	Endpoints int
	Points    []Point
	refs      map[TopoKind]topo.Topology
	hybrids   map[TopoKind]map[Point]topo.Topology
}

// BuildSet constructs the full topology set for n endpoints, building
// instances concurrently.
func BuildSet(n int, workers int) (*TopoSet, error) {
	return BuildSetContext(context.Background(), n, workers)
}

// BuildSetContext is BuildSet under a context: cancellation stops
// dispatching new build jobs, so an interrupted campaign does not finish
// constructing a hundred-thousand-endpoint topology set first.
func BuildSetContext(ctx context.Context, n int, workers int) (*TopoSet, error) {
	s := &TopoSet{
		Endpoints: n,
		Points:    PaperPoints(),
		refs:      make(map[TopoKind]topo.Topology),
		hybrids: map[TopoKind]map[Point]topo.Topology{
			NestTree: {},
			NestGHC:  {},
		},
	}
	type job struct {
		kind TopoKind
		pt   Point
		ref  bool
	}
	jobs := []job{{kind: Torus3D, ref: true}, {kind: Fattree, ref: true}}
	for _, pt := range s.Points {
		jobs = append(jobs, job{kind: NestTree, pt: pt}, job{kind: NestGHC, pt: pt})
	}
	var mu sync.Mutex
	err := runCells(ctx, len(jobs), workers, RunnerOptions{}, func(_ context.Context, i int) error {
		j := jobs[i]
		t, err := Build(TopoSpec{Kind: j.kind, Endpoints: n, T: j.pt.T, U: j.pt.U})
		if err != nil {
			return fmt.Errorf("core: building %s %s: %w", j.kind, j.pt.Label(), err)
		}
		mu.Lock()
		defer mu.Unlock()
		if j.ref {
			s.refs[j.kind] = t
		} else {
			s.hybrids[j.kind][j.pt] = t
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Lookup returns the instance for a family (and point, for hybrids),
// reporting whether the set actually holds one — the safe variant of Get
// for points outside the set's design grid.
func (s *TopoSet) Lookup(kind TopoKind, pt Point) (topo.Topology, bool) {
	if t, ok := s.refs[kind]; ok {
		return t, true
	}
	t, ok := s.hybrids[kind][pt]
	return t, ok
}

// Get returns the instance for a family (and point, for hybrids), or nil
// when the set holds none. Prefer Lookup, whose explicit miss report
// turns an unknown design point into an error instead of a nil
// dereference deep inside a sweep.
func (s *TopoSet) Get(kind TopoKind, pt Point) topo.Topology {
	t, _ := s.Lookup(kind, pt)
	return t
}

// distanceStats measures one Table-1 cell. Past exhaustive reach it
// prefers the closed-form Static path: the table needs only the mean and
// the diameter, so a 131,072-endpoint row costs O(subtorus) arithmetic
// instead of millions of sampled routes. Families without both closed
// forms fall back to sampled Distances.
func distanceStats(top topo.Topology, opt metrics.Options) metrics.DistanceStats {
	limit := opt.ExhaustiveLimit
	if limit == 0 {
		limit = metrics.DefaultExhaustiveLimit
	}
	if top.NumEndpoints() > limit {
		if st, ok := metrics.Static(top); ok {
			return st
		}
	}
	return metrics.Distances(top, opt)
}

// Table1 reproduces Table 1: average distance under uniform traffic and
// diameter for every hybrid configuration, with the fattree and torus
// references appended.
func Table1(set *TopoSet, samples int, seed int64) (*report.Table, error) {
	return Table1Context(context.Background(), set, samples, seed, 0)
}

// Table1Context is Table1 under a context; cancellation takes effect
// between distance-measurement cells. workers bounds both the concurrent
// measurement cells and each measurement's internal worker pool (0 =
// NumCPU, 1 = fully serial). Exhaustive measurements are identical for
// every worker count; sampled estimates are a deterministic function of
// (seed, workers), since each worker samples from its own sub-stream.
func Table1Context(ctx context.Context, set *TopoSet, samples int, seed int64, workers int) (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Table 1 — average distance and diameter (N=%d)", set.Endpoints),
		"(t,u)", "AvgDist NestGHC", "AvgDist NestTree", "Diam NestGHC", "Diam NestTree")
	opt := metrics.Options{Samples: samples, Seed: seed, Workers: workers}
	type row struct {
		ghc, tree metrics.DistanceStats
	}
	rows := make([]row, len(set.Points))
	err := runCells(ctx, len(set.Points)*2, workers, RunnerOptions{}, func(_ context.Context, i int) error {
		pt := set.Points[i/2]
		kind := NestGHC
		if i%2 != 0 {
			kind = NestTree
		}
		top, ok := set.Lookup(kind, pt)
		if !ok {
			return fmt.Errorf("core: topology set has no %s %s instance", kind, pt.Label())
		}
		if i%2 == 0 {
			rows[i/2].ghc = distanceStats(top, opt)
		} else {
			rows[i/2].tree = distanceStats(top, opt)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, pt := range set.Points {
		t.AddRow(pt.Label(),
			fmt.Sprintf("%.2f", rows[i].ghc.Mean), fmt.Sprintf("%.2f", rows[i].tree.Mean),
			rows[i].ghc.Max, rows[i].tree.Max)
	}
	ftTop, ok := set.Lookup(Fattree, Point{})
	if !ok {
		return nil, fmt.Errorf("core: topology set has no fattree reference instance")
	}
	toTop, ok := set.Lookup(Torus3D, Point{})
	if !ok {
		return nil, fmt.Errorf("core: topology set has no torus reference instance")
	}
	ft := distanceStats(ftTop, opt)
	to := distanceStats(toTop, opt)
	t.AddRow("Fattree (ref)", fmt.Sprintf("%.2f", ft.Mean), "-", ft.Max, "-")
	t.AddRow("Torus3D (ref)", fmt.Sprintf("%.2f", to.Mean), "-", to.Max, "-")
	return t, nil
}

// Table2 reproduces Table 2: upper-tier switch counts and estimated cost
// and power overheads for every hybrid configuration, plus the standalone
// fattree reference.
func Table2(n int, model cost.Model) (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Table 2 — switches and cost/power overhead (N=%d)", n),
		"(t,u)", "Switches NestGHC", "Switches NestTree",
		"Cost% NestGHC", "Cost% NestTree", "Power% NestGHC", "Power% NestTree")
	for _, pt := range PaperPoints() {
		var est [2]cost.Estimate
		for i, kind := range []nest.UpperKind{nest.UpperGHC, nest.UpperTree} {
			h, err := nest.BuildCube(kind, pt.T, pt.U, n)
			if err != nil {
				return nil, err
			}
			e, err := cost.ForNest(h, model)
			if err != nil {
				return nil, err
			}
			est[i] = e
		}
		t.AddRow(pt.Label(), est[0].Switches, est[1].Switches,
			fmt.Sprintf("%.2f", est[0].CostOverheadPct), fmt.Sprintf("%.2f", est[1].CostOverheadPct),
			fmt.Sprintf("%.2f", est[0].PowerOverheadPct), fmt.Sprintf("%.2f", est[1].PowerOverheadPct))
	}
	// The standalone fattree as upper bound: every QFDB uplinked.
	ft, err := Build(TopoSpec{Kind: Fattree, Endpoints: n})
	if err != nil {
		return nil, err
	}
	fab, ok := ft.(topo.Fabric)
	if !ok {
		return nil, fmt.Errorf("core: fattree does not expose fabric accounting")
	}
	e, err := cost.ForFabric(fab, n, n, model)
	if err != nil {
		return nil, err
	}
	t.AddRow("Fattree (ref)", "-", e.Switches, "-",
		fmt.Sprintf("%.2f", e.CostOverheadPct), "-", fmt.Sprintf("%.2f", e.PowerOverheadPct))
	return t, nil
}

// PanelOptions configures one workload panel of Figure 4/5.
type PanelOptions struct {
	// Seed drives workload randomness.
	Seed int64
	// Tasks overrides the default task count.
	Tasks int
	// MsgBytes overrides the default message size.
	MsgBytes float64
	// Workers bounds sweep concurrency (0 = NumCPU).
	Workers int
	// Sim tunes the engine (RelEpsilon defaults to 0.01).
	Sim flow.Options
	// OnCell, when non-nil, is invoked once per finished cell with the
	// cell's identity and full result — the hook behind sweep progress
	// reporting and per-cell run records. It may be called concurrently
	// from the sweep's worker goroutines; implementations must be
	// goroutine-safe. Cells spliced from a resume journal fire it too, so
	// progress meters and record streams stay complete across a resume;
	// cached reports whether the cell came from the journal (progress
	// meters use it to keep cached splices out of the ETA estimate).
	OnCell func(kind TopoKind, pt Point, res *RunResult, cached bool)
	// Runner supervises cell execution: panic isolation, per-cell
	// deadlines with bounded retry, aggregated errors, and the optional
	// memory watchdog. The zero value still isolates panics and
	// aggregates errors.
	Runner RunnerOptions
	// Journal, when non-nil, checkpoints the sweep: each completed cell
	// is durably appended, and cells already journaled (from a previous
	// interrupted run) are spliced from cache instead of re-simulated.
	Journal *Journal
}

// PanelCells returns the number of cells one panel simulates: two hybrid
// series over the design points plus the two references. Multiply by the
// workload count for a whole sweep's total (progress meters need it up
// front).
func PanelCells(set *TopoSet) int { return 2*len(set.Points) + 2 }

// PanelCell is one enumerated cell of a workload panel: its position in
// the design grid and the fully assembled simulation config — the unit a
// distributed dispatcher leases, a worker runs, and CellKey identifies.
type PanelCell struct {
	Kind   TopoKind
	Pt     Point
	Config Config
}

// PanelGrid enumerates the cells of one workload panel in canonical
// order — the order PanelContext runs (and a merged distributed campaign
// splices) them: both hybrid series across the design points, then the
// fattree and torus references. The configs are exactly those
// PanelContext submits, so CellKey over a grid cell matches the journal
// key the in-process sweep writes; a coordinator can therefore enumerate
// a campaign without building a single topology.
func PanelGrid(endpoints int, points []Point, w workload.Kind, opt PanelOptions) []PanelCell {
	var cells []PanelCell
	for _, pt := range points {
		cells = append(cells, PanelCell{Kind: NestGHC, Pt: pt}, PanelCell{Kind: NestTree, Pt: pt})
	}
	cells = append(cells, PanelCell{Kind: Fattree}, PanelCell{Kind: Torus3D})
	for i := range cells {
		c := &cells[i]
		c.Config = Config{
			Kind:      c.Kind,
			Endpoints: endpoints,
			T:         c.Pt.T,
			U:         c.Pt.U,
			Workload:  w,
			Params:    workload.Params{Tasks: opt.Tasks, Seed: opt.Seed, MsgBytes: opt.MsgBytes},
			Sim:       opt.Sim,
		}
	}
	return cells
}

// Panel runs one workload over every topology of the set and returns the
// figure panel: normalised execution time (fattree = 1) per (t,u) point,
// with one series per topology family.
func Panel(set *TopoSet, w workload.Kind, opt PanelOptions) (*report.Figure, error) {
	return PanelContext(context.Background(), set, w, opt)
}

// PanelContext is Panel under a context and the supervised runner: cells
// run with panic isolation, optional per-cell deadlines and retry, and —
// with opt.Journal set — durable checkpointing, so an interrupted or
// partially failed panel can be resumed without re-simulating its
// completed cells.
func PanelContext(ctx context.Context, set *TopoSet, w workload.Kind, opt PanelOptions) (*report.Figure, error) {
	cells := PanelGrid(set.Endpoints, set.Points, w, opt)

	makespans := make([]float64, len(cells))
	err := runCells(ctx, len(cells), opt.Workers, opt.Runner, func(ctx context.Context, i int) error {
		c := cells[i]
		top, ok := set.Lookup(c.Kind, c.Pt)
		if !ok {
			return fmt.Errorf("core: topology set has no %s %s instance", c.Kind, c.Pt.Label())
		}
		res, cached, err := runCellJournaled(ctx, opt.Journal, c.Config, top)
		if err != nil {
			return err
		}
		makespans[i] = res.Result.Makespan
		if opt.OnCell != nil {
			opt.OnCell(c.Kind, c.Pt, res, cached)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := makespans[len(cells)-2] // fattree
	if base <= 0 {
		return nil, fmt.Errorf("core: fattree makespan is %g for %s", base, w)
	}
	fig := report.NewFigure(string(w), "(t, u)", "Norm. execution time")
	for i, c := range cells[:len(cells)-2] {
		fig.Add(string(kindLegend(c.Kind)), c.Pt.Label(), makespans[i]/base)
	}
	// Flat reference series, one value per x position, as in the paper.
	for _, pt := range set.Points {
		fig.Add("Fattree", pt.Label(), makespans[len(cells)-2]/base)
		fig.Add("Torus3D", pt.Label(), makespans[len(cells)-1]/base)
	}
	return fig, nil
}

func kindLegend(k TopoKind) string {
	switch k {
	case NestGHC:
		return "NestGHC"
	case NestTree:
		return "NestTree"
	case Fattree:
		return "Fattree"
	default:
		return "Torus3D"
	}
}

// Figure4 runs the heavy-workload panels.
func Figure4(set *TopoSet, opt PanelOptions) (map[workload.Kind]*report.Figure, error) {
	return panels(context.Background(), set, workload.HeavyKinds(), opt)
}

// Figure5 runs the light-workload panels.
func Figure5(set *TopoSet, opt PanelOptions) (map[workload.Kind]*report.Figure, error) {
	return panels(context.Background(), set, workload.LightKinds(), opt)
}

func panels(ctx context.Context, set *TopoSet, kinds []workload.Kind, opt PanelOptions) (map[workload.Kind]*report.Figure, error) {
	out := make(map[workload.Kind]*report.Figure, len(kinds))
	for _, k := range kinds {
		fig, err := PanelContext(ctx, set, k, opt)
		if err != nil {
			return nil, fmt.Errorf("core: panel %s: %w", k, err)
		}
		out[k] = fig
	}
	return out, nil
}
