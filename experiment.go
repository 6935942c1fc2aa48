package mtier

import (
	"context"

	"mtier/internal/core"
	"mtier/internal/fault"
	"mtier/internal/obs"
)

// TopoSpec fully describes a topology instance: the family, the
// endpoint count, and — for the hybrid families only — the paper's
// (t, u) design point.
type TopoSpec = core.TopoSpec

// Build validates the spec against its family's constraints and
// constructs the topology it describes. It rejects hybrid parameters on
// flat families and reports exactly which constraint a hybrid design
// point violates.
func Build(spec TopoSpec) (Topology, error) {
	return core.Build(spec)
}

// Experiment describes one full simulation: a topology, a workload, how
// the workload's tasks land on the machine, and the simulator options.
// Zero values select the paper presets — task count and message size per
// workload, linear placement when the tasks fill the machine (strided
// otherwise), a 1% rate-convergence epsilon, and the ExaNeSt-class
// latency figures.
type Experiment struct {
	// Topo is the machine under test.
	Topo TopoSpec
	// Workload picks the traffic pattern; Params optionally overrides the
	// preset task count, message size and seed.
	Workload WorkloadKind
	Params   WorkloadParams
	// Placement maps tasks to endpoints (default: PlaceLinear when the
	// tasks fill the machine, PlaceStrided otherwise).
	Placement PlacePolicy
	// Sim tunes the flow engine.
	Sim SimOptions
	// Faults, when non-nil and non-empty, degrades the fabric before the
	// run: the spec's failed links/switches/endpoints are drawn
	// deterministically from its seed and routing detours around them.
	// Flows whose endpoint pair has no surviving path are dropped and
	// reported in the result's DisconnectedFlows/LostBytes.
	Faults *FaultSpec
}

// FaultSpec describes a fault scenario: a failure model (FaultRandom,
// FaultClustered, FaultTargeted) and the fraction of cables, switches
// and endpoints to fail, all drawn deterministically from its seed.
type FaultSpec = fault.Spec

// FaultModel names a failure-generation model.
type FaultModel = fault.Model

// Failure models.
const (
	// FaultRandom fails components uniformly at random.
	FaultRandom = fault.Random
	// FaultClustered fails components by distance from random epicenters
	// (spatially-correlated faults: a power feed, a cooling leak).
	FaultClustered = fault.Clustered
	// FaultTargeted fails the highest-degree components first (worst-case
	// attack on the fabric's most-connected parts).
	FaultTargeted = fault.Targeted
)

// DegradedTopology is a topology wrapped with a fault set: routing
// detours around the failed components, and endpoint pairs with no
// surviving path are reported as disconnected.
type DegradedTopology = fault.Degraded

// Degrade resolves a fault spec against a topology and returns the
// degraded view, for callers driving Simulate directly. The same
// (topology, spec) pair always yields the same fault set.
func Degrade(t Topology, spec FaultSpec) (*DegradedTopology, error) {
	set, err := fault.Generate(t, spec)
	if err != nil {
		return nil, err
	}
	return fault.Wrap(t, set, nil), nil
}

// ExperimentResult is the outcome of RunExperiment: the simulation
// result plus the resolved configuration and topology shape, convertible
// to a self-describing run record with Record.
type ExperimentResult = core.RunResult

// RunRecord is the JSON-serialisable document form of a result.
type RunRecord = obs.RunRecord

// RunExperiment builds the topology, generates and places the workload,
// and simulates it — the whole generate→place→simulate pipeline behind
// one call:
//
//	res, err := mtier.RunExperiment(mtier.Experiment{
//		Topo:     mtier.TopoSpec{Kind: mtier.NestGHC, Endpoints: 4096, T: 2, U: 4},
//		Workload: mtier.AllReduce,
//	})
//
// The returned result's Config has every default resolved, so the exact
// run can be replayed or archived.
func RunExperiment(e Experiment) (*ExperimentResult, error) {
	return RunExperimentContext(context.Background(), e)
}

// RunExperimentContext is RunExperiment under a context: cancellation
// (or a deadline) propagates into the flow engine and aborts the
// simulation at its next epoch boundary with an error wrapping
// ctx.Err(), so callers embedding experiments in services or campaign
// runners can bound and interrupt them.
func RunExperimentContext(ctx context.Context, e Experiment) (*ExperimentResult, error) {
	if err := e.Topo.Validate(); err != nil {
		return nil, err
	}
	top, err := core.Build(e.Topo)
	if err != nil {
		return nil, err
	}
	return core.RunContext(ctx, core.Config{
		Kind:      e.Topo.Kind,
		Endpoints: e.Topo.Endpoints,
		T:         e.Topo.T,
		U:         e.Topo.U,
		Workload:  e.Workload,
		Params:    e.Params,
		Placement: e.Placement,
		Sim:       e.Sim,
		Faults:    e.Faults,
	}, top)
}
