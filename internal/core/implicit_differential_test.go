package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"mtier/internal/fault"
	"mtier/internal/flow"
	"mtier/internal/topo"
	"mtier/internal/topo/fattree"
	"mtier/internal/topo/ghc"
	"mtier/internal/topo/nest"
	"mtier/internal/topo/torus"
	"mtier/internal/workload"
)

// The closed-form link ids must be invisible to results: a cell simulated
// on a topology as Build returns it must produce a byte-identical run
// record — every float64 down to the last bit — to the same cell on a
// reference whose link ends are read from its stored link table, for
// every paper workload and every family with a closed form.

// implicitFamilies is the closed-form family grid at differential scale,
// hybrids at the (2,4) design point.
var implicitFamilies = []struct {
	kind  TopoKind
	tt, u int
}{
	{Torus3D, 0, 0}, {Fattree, 0, 0}, {Thintree, 0, 0}, {GHCFlat, 0, 0},
	{NestTree, 2, 4}, {NestGHC, 2, 4},
}

// The table-served wrappers embed a closed-form family and override only
// LinkEnds to read the stored link table, so topo.LinkAt, fault
// generation and fault.Degraded's adjacency see Links() while routing,
// topo.MultiRouter and topo.Tiered stay promoted.
type (
	tableTorus struct{ *torus.Torus }
	tableGTree struct{ *fattree.GTree }
	tableGHC   struct{ *ghc.GHC }
	tableNest  struct{ *nest.Nest }
)

func tableEnds(t topo.Topology, id int32) (from, to int32) {
	l := t.Links()[id]
	return l.From, l.To
}

func (t tableTorus) LinkEnds(id int32) (from, to int32) { return tableEnds(t, id) }
func (t tableGTree) LinkEnds(id int32) (from, to int32) { return tableEnds(t, id) }
func (t tableGHC) LinkEnds(id int32) (from, to int32)   { return tableEnds(t, id) }
func (t tableNest) LinkEnds(id int32) (from, to int32)  { return tableEnds(t, id) }

// tableServed builds cfg's topology and wraps it so its link ends come
// from the stored table.
func tableServed(t *testing.T, cfg Config) topo.Topology {
	t.Helper()
	top, err := Build(TopoSpec{Kind: cfg.Kind, Endpoints: cfg.Endpoints, T: cfg.T, U: cfg.U})
	if err != nil {
		t.Fatal(err)
	}
	switch x := top.(type) {
	case *torus.Torus:
		return tableTorus{x}
	case *fattree.GTree:
		return tableGTree{x}
	case *ghc.GHC:
		return tableGHC{x}
	case *nest.Nest:
		return tableNest{x}
	}
	t.Fatalf("%s builds %T, which has no table-served wrapper", cfg.Kind, top)
	return nil
}

// runTableServed runs cfg on the topology Build returns and on its
// table-served reference.
func runTableServed(t *testing.T, cfg Config) (got, ref *RunResult) {
	t.Helper()
	got, err := Run(cfg, nil)
	if err != nil {
		t.Fatalf("closed form: %v", err)
	}
	ref, err = Run(cfg, tableServed(t, cfg))
	if err != nil {
		t.Fatalf("table-served: %v", err)
	}
	return got, ref
}

// TestImplicitMatchesMaterializedPaperWorkloads is the link-id
// differential matrix: all 11 paper workloads × the closed-form families,
// compared against the table-served reference at the run-record
// fingerprint level (which hashes the full record: config, makespan,
// flow ends, utilisations, fault accounting).
func TestImplicitMatchesMaterializedPaperWorkloads(t *testing.T) {
	const n = 64
	for _, f := range implicitFamilies {
		for _, w := range workload.Kinds() {
			f, w := f, w
			t.Run(fmt.Sprintf("%s/%s", f.kind, w), func(t *testing.T) {
				t.Parallel()
				imp, mat := runTableServed(t, Config{
					Kind:      f.kind,
					Endpoints: n,
					T:         f.tt,
					U:         f.u,
					Workload:  w,
					Params:    workload.Params{Seed: 11},
					Sim:       flow.Options{RecordFlowEnds: true},
				})
				mustIdenticalResults(t, imp, mat)
				mfp, err := mat.Record().Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				ifp, err := imp.Record().Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mfp, ifp) {
					t.Fatalf("run-record fingerprint diverged from the table-served reference:\n table       %s\n closed form %s", mfp, ifp)
				}
			})
		}
	}
}

// mustIdenticalResults fails unless the two runs agree bitwise in every
// deterministic result field.
func mustIdenticalResults(t *testing.T, got, want *RunResult) {
	t.Helper()
	g, w := got.Result, want.Result
	if math.Float64bits(g.Makespan) != math.Float64bits(w.Makespan) {
		t.Fatalf("makespan diverged: %x (%g) vs %x (%g)",
			math.Float64bits(g.Makespan), g.Makespan, math.Float64bits(w.Makespan), w.Makespan)
	}
	if g.Epochs != w.Epochs {
		t.Fatalf("epoch count diverged: %d vs %d", g.Epochs, w.Epochs)
	}
	if len(g.FlowEnds) != len(w.FlowEnds) {
		t.Fatalf("flow-end counts diverged: %d vs %d", len(g.FlowEnds), len(w.FlowEnds))
	}
	for i := range g.FlowEnds {
		if math.Float64bits(g.FlowEnds[i]) != math.Float64bits(w.FlowEnds[i]) {
			t.Fatalf("flow %d finish time diverged: %g vs %g", i, g.FlowEnds[i], w.FlowEnds[i])
		}
	}
	if g.ReroutedFlows != w.ReroutedFlows || g.DisconnectedFlows != w.DisconnectedFlows {
		t.Fatalf("fault accounting diverged: rerouted %d/%d, disconnected %d/%d",
			g.ReroutedFlows, w.ReroutedFlows, g.DisconnectedFlows, w.DisconnectedFlows)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"bytes_delivered", g.BytesDelivered, w.BytesDelivered},
		{"lost_bytes", g.LostBytes, w.LostBytes},
		{"hop_bytes", g.HopBytes, w.HopBytes},
		{"max_link_utilization", g.MaxLinkUtilization, w.MaxLinkUtilization},
		{"mean_link_utilization", g.MeanLinkUtilization, w.MeanLinkUtilization},
		{"max_port_utilization", g.MaxPortUtilization, w.MaxPortUtilization},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s diverged: %g vs %g", c.name, c.got, c.want)
		}
	}
}

// TestImplicitMatchesMaterializedUnderFaults covers the degraded path:
// fault generation, candidate filtering and BFS detours all read the
// link structure, and must read the same one from the closed form and
// from the stored table.
func TestImplicitMatchesMaterializedUnderFaults(t *testing.T) {
	const n = 64
	for _, f := range implicitFamilies {
		f := f
		t.Run(string(f.kind), func(t *testing.T) {
			t.Parallel()
			spec := fault.Spec{Model: fault.Random, LinkFraction: 0.05, Seed: 7}
			got, ref := runTableServed(t, Config{
				Kind:      f.kind,
				Endpoints: n,
				T:         f.tt,
				U:         f.u,
				Workload:  workload.AllReduce,
				Params:    workload.Params{Seed: 11},
				Sim:       flow.Options{RecordFlowEnds: true},
				Faults:    &spec,
			})
			mustIdenticalResults(t, got, ref)
		})
	}
}

// TestImplicitRejectsTableOnlyFamilies: the families without a closed
// form keep their stored tables and still build through Build at paper
// sizes.
func TestImplicitRejectsTableOnlyFamilies(t *testing.T) {
	t.Parallel()
	for _, k := range []TopoKind{Dragonfly, Jellyfish} {
		top, err := Build(TopoSpec{Kind: k, Endpoints: 8192})
		if err != nil {
			t.Fatalf("%s at 8192 endpoints: %v", k, err)
		}
		if top.NumEndpoints() < 8192 || len(top.Links()) != top.NumLinks() {
			t.Fatalf("%s: %d endpoints, %d of %d links stored", k, top.NumEndpoints(), len(top.Links()), top.NumLinks())
		}
	}
}
