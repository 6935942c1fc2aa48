// Package core ties the simulator together: it builds the four topology
// families under study (Torus3D, Fattree, NestTree, NestGHC), runs
// workloads over them, and provides one preset per table and figure of the
// paper. Sweeps execute cells concurrently across a worker pool; all
// randomness derives from a single seed, so every preset is reproducible.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"mtier/internal/fault"
	"mtier/internal/flow"
	"mtier/internal/obs"
	"mtier/internal/place"
	"mtier/internal/topo"
	"mtier/internal/workload"
)

// TopoKind names a topology family of the study.
type TopoKind string

const (
	// Torus3D is the plain lower-tier-only torus.
	Torus3D TopoKind = "torus"
	// Fattree is the standalone 3-stage non-blocking fattree reference.
	Fattree TopoKind = "fattree"
	// NestTree is the subtorus + fattree hybrid.
	NestTree TopoKind = "nesttree"
	// NestGHC is the subtorus + generalised hypercube hybrid.
	NestGHC TopoKind = "nestghc"

	// The remaining kinds are related-work baselines beyond the paper's
	// four families (usable with mtsim and the library, not part of the
	// figure sweeps).

	// Thintree is a 2:1-slimmed tree (k:k'-ary n-tree).
	Thintree TopoKind = "thintree"
	// GHCFlat is a standalone generalised hypercube.
	GHCFlat TopoKind = "ghc"
	// Dragonfly is a balanced dragonfly sized to at least n endpoints.
	Dragonfly TopoKind = "dragonfly"
	// Jellyfish is a random regular graph sized like the fattree.
	Jellyfish TopoKind = "jellyfish"
)

// TopoKinds lists the four families in the paper's legend order.
func TopoKinds() []TopoKind { return []TopoKind{NestGHC, NestTree, Fattree, Torus3D} }

// AllTopoKinds lists every buildable topology kind: the paper's four
// families followed by the related-work baselines, sorted within each
// group.
func AllTopoKinds() []TopoKind {
	extras := []TopoKind{Thintree, GHCFlat, Dragonfly, Jellyfish}
	sort.Slice(extras, func(i, j int) bool { return extras[i] < extras[j] })
	return append(TopoKinds(), extras...)
}

// ParseTopoKind validates a user-supplied topology name (as given to the
// -topo flags). The error lists every valid kind, so misspellings fail
// fast at the flag layer instead of deep inside Run.
func ParseTopoKind(s string) (TopoKind, error) {
	k := TopoKind(strings.ToLower(strings.TrimSpace(s)))
	for _, valid := range AllTopoKinds() {
		if k == valid {
			return k, nil
		}
	}
	names := make([]string, 0, len(AllTopoKinds()))
	for _, valid := range AllTopoKinds() {
		names = append(names, string(valid))
	}
	return "", fmt.Errorf("core: unknown topology kind %q (valid: %s)", s, strings.Join(names, ", "))
}

// Point is one (t, u) cell of the paper's design grid.
type Point struct {
	T int // nodes per subtorus dimension
	U int // one uplink per U QFDBs
}

// Label renders the cell as the paper's x-axis labels, e.g. "(2, 8)".
func (p Point) Label() string { return fmt.Sprintf("(%d, %d)", p.T, p.U) }

// PaperPoints returns the 12 (t,u) configurations of Tables 1-2 and
// Figures 4-5, in the paper's order.
func PaperPoints() []Point {
	var pts []Point
	for _, t := range []int{2, 4, 8} {
		for _, u := range []int{8, 4, 2, 1} {
			pts = append(pts, Point{T: t, U: u})
		}
	}
	return pts
}

// Config describes a single simulation cell. The JSON tags define the
// config section of a run record, so a record's config can be replayed.
type Config struct {
	// Topology family and size.
	Kind      TopoKind `json:"kind"`
	Endpoints int      `json:"endpoints"`
	// Hybrid parameters (ignored by Torus3D/Fattree).
	T int `json:"t,omitempty"`
	U int `json:"u,omitempty"`
	// Workload and its parameters. Params.Tasks defaults to the workload's
	// DefaultTasks for the system size.
	Workload workload.Kind   `json:"workload"`
	Params   workload.Params `json:"params"`
	// Placement maps tasks to endpoints. Default: Linear when tasks fill
	// the machine, Strided otherwise (so reduced-task workloads still
	// exercise the whole system).
	Placement place.Policy `json:"placement,omitempty"`
	// Sim options; RelEpsilon defaults to 0.01.
	Sim flow.Options `json:"sim"`
	// Faults, when non-nil and non-empty, degrades the fabric before the
	// run: the spec's failed links/switches/endpoints are drawn
	// deterministically from its seed and the topology is wrapped so
	// routing detours around them (see internal/fault). The topology
	// handed to Run must be bare — Run does the wrapping.
	Faults *fault.Spec `json:"faults,omitempty"`
}

// DefaultTasks caps the task count of the quadratic-flow-count workloads
// so sweeps stay tractable, and fills the machine otherwise.
func DefaultTasks(k workload.Kind, endpoints int) int {
	switch k {
	case workload.MapReduce, workload.NBodies:
		if endpoints > 512 {
			return 512
		}
	}
	return endpoints
}

// DefaultMsgBytes returns the preset message size per workload: the
// wavefront kernels (Sweep3D, Flood) exchange fine-grained boundary data,
// where per-hop latency dominates — the regime in which the paper's torus
// wins those panels — while the bulk workloads move megabyte-scale
// payloads and are bandwidth-bound.
func DefaultMsgBytes(k workload.Kind) float64 {
	switch k {
	case workload.Sweep3D, workload.Flood:
		return 1024
	default:
		return 1e6
	}
}

// Default latency figures for the experiment presets: FPGA-router hop
// traversal and NIC startup, matching the ExaNeSt hardware's order of
// magnitude. The flow engine itself defaults to a pure bandwidth model;
// these are applied by Run when the caller leaves the options zero.
const (
	DefaultLatencyBase   = 5e-7 // seconds
	DefaultLatencyPerHop = 1e-6 // seconds per network hop
)

// RunResult is the outcome of one cell.
type RunResult struct {
	Config   Config
	Topology string
	// Endpoints, Vertices, Switches and Links describe the topology
	// instance (for energy and cost accounting without rebuilding it).
	// Endpoints is the instance's actual endpoint count, which may exceed
	// Config.Endpoints for families that round up.
	Endpoints int
	Vertices  int
	Switches  int
	Links     int
	Flows     int
	Result    *flow.Result
	// Phases records the wall-clock cost of each stage of the cell.
	Phases obs.PhaseTimings
}

// Record converts the result into the self-describing run-record document
// (see obs.RunRecord). The record marshals deterministically: two runs of
// the same config and seed differ only in the phase timings, which
// RunRecord.Fingerprint strips.
func (r *RunResult) Record() *obs.RunRecord {
	return &obs.RunRecord{
		Schema: obs.RunRecordSchema,
		Config: r.Config,
		Topology: obs.TopologyInfo{
			Name:      r.Topology,
			Endpoints: r.Endpoints,
			Vertices:  r.Vertices,
			Switches:  r.Switches,
			Links:     r.Links,
		},
		Flows:  r.Flows,
		Seed:   r.Config.Params.Seed,
		Result: r.Result,
		Phases: r.Phases,
		Env:    obs.CaptureEnvironment(),
	}
}

// Run executes one simulation cell. If top is non-nil it is used instead
// of building a fresh topology (so sweeps can share instances).
func Run(cfg Config, top topo.Topology) (*RunResult, error) {
	return RunContext(context.Background(), cfg, top)
}

// RunContext executes one simulation cell under a context: cancellation
// (or a deadline) propagates into the flow engine and aborts the cell at
// its next epoch boundary, with the returned error wrapping ctx.Err().
func RunContext(ctx context.Context, cfg Config, top topo.Topology) (*RunResult, error) {
	var err error
	var phases obs.PhaseTimings
	if ctx == nil {
		ctx = context.Background()
	}
	tr := cfg.Sim.Tracer
	if top == nil {
		t0 := time.Now()
		sp := tr.Begin("core.build", "phase")
		// Config documents T/U as ignored by the flat families, so the
		// spec is assembled conditionally rather than strictly: replayed
		// records may carry hybrid parameters alongside a flat kind.
		spec := TopoSpec{Kind: cfg.Kind, Endpoints: cfg.Endpoints}
		switch cfg.Kind {
		case NestTree, NestGHC:
			spec.T, spec.U = cfg.T, cfg.U
		}
		top, err = Build(spec)
		if err != nil {
			return nil, err
		}
		sp.EndArgs(map[string]any{"topology": top.Name()})
		phases.BuildSeconds = time.Since(t0).Seconds()
	}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		if d, wrapped := top.(*fault.Degraded); wrapped {
			// A pre-wrapped instance is accepted only when its fault set
			// was generated from this exact spec — shared topology caches
			// (TopoCache) hand these in so concurrent requests reuse one
			// BFS detour cache. Any other wrapper is still an error:
			// running it would silently double-degrade the fabric or run
			// the wrong scenario.
			if d.Faults().Spec() != *cfg.Faults {
				return nil, fmt.Errorf("core: topology %s is fault-wrapped with a different spec; pass the bare topology with Config.Faults", top.Name())
			}
		} else {
			t0 := time.Now()
			sp := tr.Begin("core.faults", "phase")
			set, ferr := fault.Generate(top, *cfg.Faults)
			if ferr != nil {
				return nil, ferr
			}
			top = fault.Wrap(top, set, cfg.Sim.Metrics)
			sp.End()
			phases.BuildSeconds += time.Since(t0).Seconds()
		}
	}
	wlSpan := tr.Begin("core.workload", "phase")
	genStart := time.Now()
	p := cfg.Params
	if p.Tasks == 0 {
		p.Tasks = DefaultTasks(cfg.Workload, top.NumEndpoints())
	}
	if p.MsgBytes == 0 {
		p.MsgBytes = DefaultMsgBytes(cfg.Workload)
	}
	if p.Tasks > top.NumEndpoints() {
		return nil, fmt.Errorf("core: %d tasks exceed %d endpoints", p.Tasks, top.NumEndpoints())
	}
	spec, err := workload.Generate(cfg.Workload, p)
	if err != nil {
		return nil, err
	}
	pol := cfg.Placement
	if pol == "" {
		if p.Tasks == top.NumEndpoints() {
			pol = place.Linear
		} else {
			pol = place.Strided
		}
	}
	mapping, err := place.Mapping(pol, p.Tasks, top.NumEndpoints(), p.Seed)
	if err != nil {
		return nil, err
	}
	mapped, err := place.Apply(spec, mapping)
	if err != nil {
		return nil, err
	}
	sim := cfg.Sim
	if sim.RelEpsilon == 0 {
		sim.RelEpsilon = 0.01
	}
	if sim.LatencyBase == 0 && sim.LatencyPerHop == 0 {
		sim.LatencyBase = DefaultLatencyBase
		sim.LatencyPerHop = DefaultLatencyPerHop
	}
	if sim.RefreshFraction == 0 {
		sim.RefreshFraction = 1.0 / 16
	}
	phases.WorkloadSeconds = time.Since(genStart).Seconds()
	wlSpan.EndArgs(map[string]any{"flows": len(spec.Flows), "tasks": p.Tasks})
	simStart := time.Now()
	res, err := flow.SimulateContext(ctx, top, mapped, sim)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s: %w", cfg.Kind, cfg.Workload, err)
	}
	phases.SimulateSeconds = time.Since(simStart).Seconds()
	// Report the effective configuration — defaults resolved — so run
	// records are self-describing and replayable verbatim.
	cfg.Params = p
	cfg.Placement = pol
	cfg.Sim = sim
	return &RunResult{
		Config:    cfg,
		Topology:  top.Name(),
		Endpoints: top.NumEndpoints(),
		Vertices:  top.NumVertices(),
		Switches:  top.NumVertices() - top.NumEndpoints(),
		Links:     top.NumLinks(),
		Flows:     len(spec.Flows),
		Result:    res,
		Phases:    phases,
	}, nil
}

// pool runs fn(i) for i in [0,n) over min(workers, n) goroutines under
// the supervised runner: a panicking call fails alone (converted into a
// *CellError, siblings keep draining) and every failure is reported —
// the returned error aggregates all of them with errors.Join instead of
// keeping only the first.
func pool(n, workers int, fn func(i int) error) error {
	return runCells(context.Background(), n, workers, RunnerOptions{},
		func(_ context.Context, i int) error { return fn(i) })
}
