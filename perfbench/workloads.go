package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"time"

	"mtier/internal/core"
	"mtier/internal/fault"
	"mtier/internal/flow"
	"mtier/internal/obs"
	"mtier/internal/place"
	"mtier/internal/sched"
	"mtier/internal/topo"
	"mtier/internal/workload"
)

// defaultSeed is the seed the golden fingerprints are pinned at.
const defaultSeed = 1

// threads is every workload's thread budget: GOMAXPROCS, simulation
// workers and cells run at once. On a small shared VM, a second thread
// makes wall time follow the hypervisor's scheduling of both vCPUs: five
// alternating paper131k runs took 9.66-10.27 s on one thread and
// 5.80-7.97 s on two, slower but in a range a quarter as wide.
const threads = 1

// workloadDef is one benchmark workload. setup builds everything a
// repetition needs (the timed set-up); the returned instance runs
// repetitions against it.
type workloadDef struct {
	name string
	why  string
	// golden is the hex sha256 of a repetition's fingerprint at
	// defaultSeed; empty disables the golden check.
	golden string
	// manual workloads run only when named (or under all); BENCHMARK.json
	// leaves them out of its timed runs.
	manual bool
	setup  func(ctx context.Context, seed int64) (*instance, error)
}

// instance is a set-up workload. rep runs one repetition, with the
// program's instrumentation hooks attached when h is non-nil; verify runs
// once per invocation on the first outcome, for invariants that cost
// extra simulations.
type instance struct {
	rep    func(ctx context.Context, h *hooks) (*outcome, error)
	verify func(ctx context.Context, o *outcome) error
	// build is the set-up's topology construction time, in seconds.
	build float64
}

// outcome is what one repetition produced.
type outcome struct {
	// fingerprint is the sha256 of the repetition's env-stripped run
	// record fingerprints, newline-joined in canonical cell order (for a
	// single record, the record's own sha256, as cmd/mtbench prints it).
	fingerprint string
	// flows sums the flows of every flow.SimulateContext call.
	flows int
	// attempted counts the repetition's cells (or jobs).
	attempted int
	// cellBusy holds each cell's busy seconds (workload, faults, simulate).
	cellBusy []float64
	// records holds each cell's record fingerprint, in canonical order.
	records [][]byte
	// invariant is nil when the workload's result invariants hold.
	invariant error
	// sets lists the simulations a layer replay regenerates.
	sets []routeSet
	// sched holds open-system phase timings of a traced repetition.
	sched *schedTimes
}

// routeSet is one simulation's inputs, described by the public calls
// that regenerate them: the workload generator, the placement, for a
// degraded fabric the fault spec, and the flow options; and the result the
// repetition's simulation had.
type routeSet struct {
	top    topo.Topology
	kind   workload.Kind
	params workload.Params
	policy place.Policy // ignored when alloc is set
	alloc  []int32      // explicit task-to-endpoint mapping (scheduled jobs)
	faults *fault.Spec
	sim    flow.Options // without hooks
	// makespan and epochs are the repetition's result; epochs is -1 where
	// the run does not report it.
	makespan float64
	epochs   int
}

// schedTimes splits a traced open-system repetition by phase.
type schedTimes struct {
	jobsFromSpec, runContext float64
	jobs, fabricEpochs       int
}

func catalog() []*workloadDef {
	return []*workloadDef{paper131k(), panelMgnt(), faultsAllReduce(), openShared()}
}

// recordDigest returns the sha256 of one run record with its timings and
// environment stripped: the machine-independent form cmd/mtbench pins.
func recordDigest(rec *obs.RunRecord) ([]byte, error) {
	rec.Env = obs.Environment{}
	return rec.Fingerprint()
}

// fingerprint hashes the newline-joined record fingerprints.
func fingerprint(fps [][]byte) string {
	h := sha256.New()
	for i, fp := range fps {
		if i > 0 {
			h.Write([]byte{'\n'})
		}
		h.Write(fp)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cellBusy is the wall time a cell held its worker.
func cellBusy(res *core.RunResult) float64 {
	return res.Phases.BuildSeconds + res.Phases.WorkloadSeconds + res.Phases.SimulateSeconds
}

// cellSet describes how a runner cell's flows are regenerated.
func cellSet(top topo.Topology, res *core.RunResult) routeSet {
	sim := res.Config.Sim
	sim.Tracer, sim.Probe, sim.Metrics = nil, nil, nil
	return routeSet{top: top, kind: res.Config.Workload, params: res.Config.Params,
		policy: res.Config.Placement, faults: res.Config.Faults, sim: sim,
		makespan: res.Result.Makespan, epochs: res.Result.Epochs}
}

// paper131k is one NestGHC(4,4) AllReduce cell at the paper's 131,072
// endpoints: ~2.2M flows over 28 epochs on the implicit representation.
// It is manual: its 1.1 GB working set makes its wall time follow the
// host's memory speed, which moved its run medians between 6.3 s and
// 10.5 s within half an hour, past any bound a gate could hold.
func paper131k() *workloadDef {
	w := singleCell("paper131k",
		"paper scale: 2.2M flows, 28 epochs; implicit routing, route prep, sorts and allocation dominate",
		core.TopoSpec{Kind: core.NestGHC, Endpoints: 131072, T: 4, U: 4}, workload.AllReduce,
		"465b57a28a77ecc410486e6768a9027429972667e3eef3d1e199a0ae66ec1b18")
	w.manual = true
	return w
}

// singleCell is a workload of one cell run by core.RunContext on a
// prebuilt topology.
func singleCell(name, why string, spec core.TopoSpec, kind workload.Kind, golden string) *workloadDef {
	return &workloadDef{name: name, why: why, golden: golden,
		setup: func(ctx context.Context, seed int64) (*instance, error) {
			t0 := time.Now()
			top, err := core.Build(spec)
			if err != nil {
				return nil, err
			}
			build := time.Since(t0).Seconds()
			cfg := core.Config{Kind: spec.Kind, Endpoints: spec.Endpoints, T: spec.T, U: spec.U,
				Workload: kind, Params: workload.Params{Seed: seed}}
			return &instance{build: build, rep: func(ctx context.Context, h *hooks) (*outcome, error) {
				c := cfg
				c.Sim = h.sim(flow.Options{Workers: threads})
				res, err := core.RunContext(ctx, c, top)
				if err != nil {
					return nil, err
				}
				fp, err := recordDigest(res.Record())
				if err != nil {
					return nil, err
				}
				o := &outcome{fingerprint: fingerprint([][]byte{fp}), flows: res.Flows, attempted: 1,
					cellBusy: []float64{cellBusy(res)}, sets: []routeSet{cellSet(top, res)}}
				if res.Result.Epochs == 0 || res.Result.DisconnectedFlows != 0 {
					o.invariant = fmt.Errorf("%d epochs, %d disconnected flows on a pristine fabric",
						res.Result.Epochs, res.Result.DisconnectedFlows)
				}
				return o, nil
			}}, nil
		}}
}

// panelMgnt is the 26-cell Figure-5 panel of UnstructuredMgnt at 1,024
// endpoints, one cell at a time. It is manual: faults-allreduce
// exercises the same waterfill and runner on materialised topologies, and
// leaving both 45-second workloads out lets the timed runs of the other
// two last longer.
func panelMgnt() *workloadDef {
	const n = 1024
	return &workloadDef{name: "panel-mgnt",
		why:    "the 26-cell Figure-5 campaign: ~3,150 waterfill epochs per cell on materialised topologies",
		golden: "8574e10a5b7a43b4839f72773e47bc66052207e72ea8dfdb4038bc741d6876ad",
		manual: true,
		setup: func(ctx context.Context, seed int64) (*instance, error) {
			t0 := time.Now()
			set, err := core.BuildSetContext(ctx, n, threads)
			if err != nil {
				return nil, err
			}
			build := time.Since(t0).Seconds()
			grid := core.PanelGrid(n, set.Points, workload.UnstructuredMgnt, core.PanelOptions{})
			index := make(map[string]int, len(grid))
			for i, c := range grid {
				index[cellName(c.Kind, c.Pt)] = i
			}
			return &instance{build: build, rep: func(ctx context.Context, h *hooks) (*outcome, error) {
				results := make([]*core.RunResult, len(grid))
				tops := make([]topo.Topology, len(grid))
				fig, err := core.PanelContext(ctx, set, workload.UnstructuredMgnt, core.PanelOptions{
					Seed:    seed,
					Workers: threads,
					Sim:     h.sim(flow.Options{Workers: threads}),
					OnCell: func(kind core.TopoKind, pt core.Point, res *core.RunResult, _ bool) {
						i := index[cellName(kind, pt)]
						results[i] = res
						tops[i] = set.Get(kind, pt)
					},
				})
				if err != nil {
					return nil, err
				}
				o, err := collectCells(results, tops)
				if err != nil {
					return nil, err
				}
				for _, pt := range set.Points {
					if v, ok := fig.Get("Fattree", pt.Label()); !ok || v != 1 {
						o.invariant = fmt.Errorf("Fattree column at %s is %g, want 1", pt.Label(), v)
					}
				}
				return o, nil
			}}, nil
		}}
}

func cellName(kind core.TopoKind, pt core.Point) string { return string(kind) + pt.Label() }

// collectCells folds a runner's per-cell results, in canonical order,
// into one outcome.
func collectCells(results []*core.RunResult, tops []topo.Topology) (*outcome, error) {
	o := &outcome{attempted: len(results)}
	fps := make([][]byte, len(results))
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("cell %d reported no result", i)
		}
		fp, err := recordDigest(res.Record())
		if err != nil {
			return nil, err
		}
		fps[i] = fp
		o.flows += res.Flows
		o.cellBusy = append(o.cellBusy, cellBusy(res))
		o.sets = append(o.sets, cellSet(tops[i], res))
	}
	o.records = fps
	o.fingerprint = fingerprint(fps)
	return o, nil
}

// faultFractions are the link-fault fractions of the degradation sweep;
// DegradationSweep prepends the pristine baseline 0.
var faultFractions = []float64{0.01, 0.02, 0.05}

// faultDraws is how many independent fault sets a repetition sweeps. One
// draw's cost varies by about 7% from seed to seed (where the faults land
// decides how many flows each epoch re-fills); averaging draws keeps the
// repetition's cost, and so wall_s, close to seed-independent.
const faultDraws = 2

// faultsAllReduce is an AllReduce degradation sweep over the four paper
// families at 1,024 endpoints, repeated for faultDraws fault seeds: 32
// cells, one at a time.
func faultsAllReduce() *workloadDef {
	const n = 1024
	specs := []core.TopoSpec{
		{Kind: core.NestGHC, Endpoints: n, T: 2, U: 4},
		{Kind: core.NestTree, Endpoints: n, T: 2, U: 4},
		{Kind: core.Fattree, Endpoints: n},
		{Kind: core.Torus3D, Endpoints: n},
	}
	return &workloadDef{name: "faults-allreduce",
		why:    "link faults break AllReduce symmetry: BFS detours and thousands of epochs per cell; the only fault-layer workload",
		golden: "bd1093221aa573c5c2cd8a92b66865119c1670490901974ca3a379f16935c14e",
		setup: func(ctx context.Context, seed int64) (*instance, error) {
			// DegradationSweepContext builds its own instances; set-up
			// times the same builds so slower construction shows in setup_s.
			t0 := time.Now()
			tops := make([]topo.Topology, len(specs))
			for i, s := range specs {
				t, err := core.Build(s)
				if err != nil {
					return nil, err
				}
				tops[i] = t
			}
			opt := core.DegradationOptions{Workload: workload.AllReduce, Params: workload.Params{Seed: seed},
				Workers: threads}
			inst := &instance{build: time.Since(t0).Seconds()}
			inst.rep = func(ctx context.Context, h *hooks) (*outcome, error) {
				var results []*core.RunResult
				var cellTops []topo.Topology
				var invariant error
				for d := int64(0); d < faultDraws; d++ {
					o := opt
					o.FaultSeed = seed*faultDraws + d
					o.Sim = h.sim(flow.Options{Workers: threads})
					rep, err := core.DegradationSweepContext(ctx, specs, faultFractions, o)
					if err != nil {
						return nil, err
					}
					for si, series := range rep.Series {
						for fi, c := range series {
							results = append(results, c.Result)
							cellTops = append(cellTops, tops[si])
							if fi > 0 && c.Reachability > series[fi-1].Reachability {
								invariant = fmt.Errorf("%s reachability rises from %g to %g between fractions %g and %g",
									c.Spec.Kind, series[fi-1].Reachability, c.Reachability, series[fi-1].Fraction, c.Fraction)
							}
						}
					}
				}
				out, err := collectCells(results, cellTops)
				if err != nil {
					return nil, err
				}
				out.invariant = invariant
				return out, nil
			}
			// The pristine cell of each series (of the first draw) must
			// equal a plain run of the same config outside the sweep.
			inst.verify = func(ctx context.Context, o *outcome) error {
				per := len(o.records) / (len(specs) * faultDraws)
				for si, s := range specs {
					res, err := core.RunContext(ctx, core.Config{Kind: s.Kind, Endpoints: s.Endpoints, T: s.T, U: s.U,
						Workload: opt.Workload, Params: opt.Params, Sim: flow.Options{Workers: threads}}, tops[si])
					if err != nil {
						return err
					}
					plain, err := recordDigest(res.Record())
					if err != nil {
						return err
					}
					if string(plain) != string(o.records[si*per]) {
						return fmt.Errorf("%s: fraction-0 sweep cell differs from the plain cell", s.Kind)
					}
				}
				return nil
			}
			return inst, nil
		}}
}

// openSpec is the benchmark's copy of examples/specs/mixed.yaml, raised
// to 2,000 jobs.
//
//go:embed open-shared.yaml
var openSpec []byte

// openShared schedules the mixed three-client spec FCFS on NestGHC(2,4)
// at 4,096 endpoints and replays the schedule on a shared fabric:
// thousands of tiny simulations plus one release-time replay.
func openShared() *workloadDef {
	spec := core.TopoSpec{Kind: core.NestGHC, Endpoints: 4096, T: 2, U: 4}
	return &workloadDef{name: "open-shared",
		why:    "2,000 tiny scheduled jobs plus one shared-fabric replay: per-call fixed costs, sched and Flow.Start",
		golden: "755029afc9efa1c2420b58fc9f52e35ea6d8261e470ff8ce6d0b08ea19365bdb",
		setup: func(ctx context.Context, seed int64) (*instance, error) {
			jobs, err := workload.ParseSpec(openSpec)
			if err != nil {
				return nil, err
			}
			jobs.Seed = seed
			t0 := time.Now()
			top, err := core.Build(spec)
			if err != nil {
				return nil, err
			}
			build := time.Since(t0).Seconds()
			run := core.OpenRun{Topo: spec, Spec: jobs, Shared: true, Workers: threads}
			return &instance{build: build, rep: func(ctx context.Context, h *hooks) (*outcome, error) {
				start := time.Now()
				var cell *core.OpenCell
				var st *schedTimes
				var err error
				if h == nil {
					cell, err = run.RunContext(ctx, top)
				} else {
					cell, st, err = tracedOpenRun(ctx, run, top, h)
				}
				if err != nil {
					return nil, err
				}
				busy := time.Since(start).Seconds()
				fp, err := recordDigest(cell.Record(run.Config()))
				if err != nil {
					return nil, err
				}
				evs := cell.Schedule.Events
				o := &outcome{fingerprint: fingerprint([][]byte{fp}), records: [][]byte{fp},
					attempted: len(evs), cellBusy: []float64{busy}, sched: st}
				for i, ev := range evs {
					// Each job simulates alone, then again in the replay.
					o.flows += 2 * ev.FlowCount
					o.sets = append(o.sets, routeSet{top: top, kind: cell.Jobs[i].Workload,
						params: cell.Jobs[i].Params, alloc: ev.Endpoints, sim: openSim(run.Workers),
						makespan: ev.Makespan, epochs: -1})
				}
				classJobs := 0
				for _, c := range cell.Schedule.Classes {
					classJobs += c.Jobs
				}
				if classJobs != len(evs) || len(evs) != len(cell.Jobs) {
					o.invariant = fmt.Errorf("per-class job counts sum to %d, schedule has %d events for %d jobs",
						classJobs, len(evs), len(cell.Jobs))
				}
				return o, nil
			}}, nil
		}}
}

// openSim are core.OpenRun's flow presets for every job simulation.
func openSim(workers int) flow.Options {
	return flow.Options{RelEpsilon: 0.01, RefreshFraction: 1.0 / 16,
		LatencyBase: core.DefaultLatencyBase, LatencyPerHop: core.DefaultLatencyPerHop, Workers: workers}
}

// tracedOpenRun is core.OpenRun.RunContext taken apart at its public
// calls, sched.JobsFromSpec and sched.RunContext, so each can be timed
// and the flow hooks attached. The gate compares its record fingerprint
// with the untraced run's, so the two cannot drift apart unnoticed.
func tracedOpenRun(ctx context.Context, r core.OpenRun, top topo.Topology, h *hooks) (*core.OpenCell, *schedTimes, error) {
	if err := r.Spec.Validate(); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	jobs, err := sched.JobsFromSpec(r.Spec)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	cfg := r.Config()
	sch, err := sched.RunContext(ctx, sched.Config{
		Topo:  top,
		Alloc: cfg.Allocation,
		// The open-system presets of core.OpenRun.
		Sim:          h.sim(openSim(r.Workers)),
		Seed:         r.Spec.Seed,
		SharedFabric: r.Shared,
	}, jobs)
	if err != nil {
		return nil, nil, err
	}
	st := &schedTimes{jobsFromSpec: t1.Sub(t0).Seconds(), runContext: time.Since(t1).Seconds(), jobs: len(jobs)}
	if sch.Fabric != nil {
		st.fabricEpochs = sch.Fabric.Epochs
	}
	cell := &core.OpenCell{Kind: r.Topo.Kind, Pt: core.Point{T: r.Topo.T, U: r.Topo.U},
		Topology: top.Name(), Schedule: sch, Jobs: jobs}
	return cell, st, nil
}
