// Package mtier is a flow-level interconnection-network simulator for
// exascale system design, reproducing "Design Exploration of Multi-tier
// Interconnection Networks for Exascale Systems" (Navaridas et al.,
// ICPP 2019).
//
// The package is a thin facade over the internal packages; it exposes
// everything a downstream user needs to build topologies (torus, fattree,
// generalised hypercube, and the paper's NestTree/NestGHC hybrids),
// generate the paper's eleven application workloads, place tasks, and
// simulate flow-level completion times. The one-call entry point is
// RunExperiment, which wires those stages together with the paper's
// presets:
//
//	res, _ := mtier.RunExperiment(mtier.Experiment{
//		Topo:     mtier.TopoSpec{Kind: mtier.NestGHC, Endpoints: 4096, T: 2, U: 4},
//		Workload: mtier.AllReduce,
//	})
//	fmt.Println(res.Result.Makespan)
//
// The stages remain available individually — Build, GenerateWorkload,
// Place, Simulate — for callers that need custom specs or mappings:
//
//	machine, _ := mtier.Build(mtier.TopoSpec{Kind: mtier.NestGHC, Endpoints: 4096, T: 2, U: 4})
//	spec, _ := mtier.GenerateWorkload(mtier.AllReduce, mtier.WorkloadParams{
//		Tasks: 4096, MsgBytes: 1e6,
//	})
//	res, _ := mtier.Simulate(machine, spec, mtier.SimOptions{RelEpsilon: 0.01})
//	fmt.Println(res.Makespan)
//
// See the examples directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the paper-reproduction methodology.
package mtier

import (
	"context"

	"mtier/internal/core"
	"mtier/internal/cost"
	"mtier/internal/flow"
	"mtier/internal/metrics"
	"mtier/internal/place"
	"mtier/internal/topo"
	"mtier/internal/workload"
)

// Topology is a network with deterministic endpoint-to-endpoint routing.
type Topology = topo.Topology

// TopoKind selects a topology family.
type TopoKind = core.TopoKind

// Topology families. The first four are the paper's; the rest are
// related-work baselines.
const (
	Torus3D   = core.Torus3D
	Fattree   = core.Fattree
	NestTree  = core.NestTree
	NestGHC   = core.NestGHC
	Thintree  = core.Thintree
	GHCFlat   = core.GHCFlat
	Dragonfly = core.Dragonfly
	Jellyfish = core.Jellyfish
)

// WorkloadKind names one of the paper's eleven traffic models.
type WorkloadKind = workload.Kind

// WorkloadParams configures a workload generator.
type WorkloadParams = workload.Params

// The eleven paper workloads, plus the collective-algorithm extensions
// (AllReduceRing, ReduceTree, BroadcastTree, AllToAll).
const (
	AllReduceRing = workload.AllReduceRing
	ReduceTree    = workload.ReduceTree
	BroadcastTree = workload.BroadcastTree
	AllToAll      = workload.AllToAll
)

// The eleven workloads.
const (
	Reduce           = workload.Reduce
	AllReduce        = workload.AllReduce
	MapReduce        = workload.MapReduce
	Sweep3D          = workload.Sweep3D
	Flood            = workload.Flood
	NearNeighbors    = workload.NearNeighbors
	NBodies          = workload.NBodies
	UnstructuredApp  = workload.UnstructuredApp
	UnstructuredMgnt = workload.UnstructuredMgnt
	UnstructuredHR   = workload.UnstructuredHR
	Bisection        = workload.Bisection
)

// GenerateWorkload builds the flow DAG of a workload; Src/Dst are task ids
// that must be placed with PlaceLinear/PlaceStrided/PlaceRandom (or used
// directly when tasks == endpoints and the identity placement is wanted).
func GenerateWorkload(k WorkloadKind, p WorkloadParams) (*FlowSpec, error) {
	return workload.Generate(k, p)
}

// FlowSpec is a workload: a DAG of flows.
type FlowSpec = flow.Spec

// SimOptions tunes a simulation.
type SimOptions = flow.Options

// SimResult reports a simulation outcome.
type SimResult = flow.Result

// DefaultBandwidth is the default 10 Gbps link capacity in bytes/second.
const DefaultBandwidth = flow.DefaultBandwidth

// Simulate runs a workload (already endpoint-indexed) on a topology.
func Simulate(t Topology, spec *FlowSpec, opt SimOptions) (*SimResult, error) {
	return flow.Simulate(t, spec, opt)
}

// SimulateContext is Simulate under a context: a canceled or
// deadline-expired context aborts the run at its next epoch boundary
// with an error wrapping ctx.Err(). A background context costs a single
// nil check per epoch.
func SimulateContext(ctx context.Context, t Topology, spec *FlowSpec, opt SimOptions) (*SimResult, error) {
	return flow.SimulateContext(ctx, t, spec, opt)
}

// PlacePolicy names a task-to-endpoint mapping strategy.
type PlacePolicy = place.Policy

// Placement policies.
const (
	PlaceLinear  = place.Linear
	PlaceStrided = place.Strided
	PlaceRandom  = place.Random
)

// Place maps a task-indexed spec onto endpoints.
func Place(spec *FlowSpec, policy PlacePolicy, tasks, endpoints int, seed int64) (*FlowSpec, error) {
	m, err := place.Mapping(policy, tasks, endpoints, seed)
	if err != nil {
		return nil, err
	}
	return place.Apply(spec, m)
}

// DistanceStats summarises a topology's distance distribution.
type DistanceStats = metrics.DistanceStats

// Distances measures the distance distribution of a topology (Table 1's
// raw material) with default options.
func Distances(t Topology) DistanceStats {
	return metrics.Distances(t, metrics.Options{})
}

// LinkLoadStats summarises the uniform-traffic channel-load analysis.
type LinkLoadStats = metrics.LinkLoadStats

// LinkLoads estimates uniform-traffic channel loads and the saturation
// throughput bound of a topology with default sampling.
func LinkLoads(t Topology) LinkLoadStats {
	return metrics.LinkLoads(t, metrics.LinkLoadOptions{})
}

// CostModel holds per-component cost and power figures.
type CostModel = cost.Model

// DefaultCostModel returns the calibrated Table 2 model.
func DefaultCostModel() CostModel { return cost.DefaultModel() }

// EnergyModel holds static and dynamic network-energy figures.
type EnergyModel = cost.EnergyModel

// EnergyEstimate is the energy bill of one simulated run.
type EnergyEstimate = cost.EnergyEstimate

// Energy estimates the network energy of a simulation result on a topology.
func Energy(t Topology, res *SimResult, m EnergyModel) (EnergyEstimate, error) {
	return cost.Energy(res, t.NumVertices()-t.NumEndpoints(), t.NumLinks(), m)
}

// DefaultEnergyModel returns 10 Gbps FPGA-transceiver-class figures.
func DefaultEnergyModel() EnergyModel { return cost.DefaultEnergyModel() }
