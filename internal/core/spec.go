package core

import (
	"fmt"

	"mtier/internal/grid"
	"mtier/internal/topo"
	"mtier/internal/topo/dragonfly"
	"mtier/internal/topo/fattree"
	"mtier/internal/topo/jellyfish"
	"mtier/internal/topo/nest"
	"mtier/internal/topo/torus"
)

// TopoSpec fully describes a topology instance: the family, the endpoint
// count, and — for the hybrid families only — the paper's (t, u) design
// point. It is the validated construction request consumed by Build; the
// JSON tags match Config's, so a spec can be lifted straight out of a
// run record.
type TopoSpec struct {
	// Kind selects the topology family.
	Kind TopoKind `json:"kind"`
	// Endpoints is the requested endpoint count. Families that round up
	// (Dragonfly, Jellyfish, GHCFlat) may build larger.
	Endpoints int `json:"endpoints"`
	// T is the subtorus nodes per dimension (hybrid families only).
	T int `json:"t,omitempty"`
	// U gives one uplink per U QFDBs (hybrid families only).
	U int `json:"u,omitempty"`
}

// Validate checks the spec against its family's constraints, returning a
// kind-specific error: the hybrid families require a valid (t, u) design
// point and an endpoint count that tiles into subtori, while the flat
// families reject hybrid parameters instead of silently ignoring them.
func (s TopoSpec) Validate() error {
	valid := false
	for _, k := range AllTopoKinds() {
		if s.Kind == k {
			valid = true
			break
		}
	}
	if !valid {
		_, err := ParseTopoKind(string(s.Kind))
		return err
	}
	if s.Endpoints < 2 {
		return fmt.Errorf("core: %s needs at least 2 endpoints, got %d", s.Kind, s.Endpoints)
	}
	switch s.Kind {
	case NestTree, NestGHC:
		if s.T < 2 {
			return fmt.Errorf("core: %s: subtorus nodes per dimension t must be at least 2, got %d", s.Kind, s.T)
		}
		switch s.U {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("core: %s: uplink density u must be 1, 2, 4 or 8, got %d", s.Kind, s.U)
		}
		if s.U > 1 && s.T%2 != 0 {
			return fmt.Errorf("core: %s: u=%d places uplinks on alternating nodes and needs an even t, got t=%d", s.Kind, s.U, s.T)
		}
		if cube := s.T * s.T * s.T; s.Endpoints%cube != 0 {
			return fmt.Errorf("core: %s: %d endpoints do not tile into t³=%d-node subtori", s.Kind, s.Endpoints, cube)
		}
	default:
		if s.T != 0 || s.U != 0 {
			return fmt.Errorf("core: %s is not a hybrid family and takes no (t, u) parameters, got (%d, %d)", s.Kind, s.T, s.U)
		}
	}
	return nil
}

// Build validates the spec and constructs the topology it describes.
func Build(spec TopoSpec) (topo.Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.Endpoints
	switch spec.Kind {
	case Torus3D:
		f := grid.FactorBalanced(n, 3)
		return torus.New(grid.Shape{f[0], f[1], f[2]})
	case Fattree:
		return fattree.NewNonBlocking(balancedArities(n))
	case NestTree:
		return nest.BuildCube(nest.UpperTree, spec.T, spec.U, n)
	case NestGHC:
		return nest.BuildCube(nest.UpperGHC, spec.T, spec.U, n)
	case Thintree:
		arities := balancedArities(n)
		// The 2:1 slimming needs even arities below the top; round up (the
		// extension kinds promise *at least* n endpoints).
		for i := 0; i < len(arities)-1; i++ {
			arities[i] += arities[i] % 2
		}
		return fattree.NewThinTree(arities, 2)
	case GHCFlat:
		return nest.SuggestGHC(n)
	case Dragonfly:
		// Smallest balanced dragonfly with at least n endpoints: a/2
		// endpoints per router, a routers per group, a*h+1 groups.
		for a := 2; ; a += 2 {
			d, err := dragonfly.NewBalanced(a)
			if err != nil {
				return nil, err
			}
			if d.NumEndpoints() >= n {
				return d, nil
			}
		}
	case Jellyfish:
		// Degree-8 random graph with 8 endpoints per switch.
		switches := grid.CeilDiv(n, 8)
		if switches < 10 {
			switches = 10
		}
		if switches*8%2 != 0 {
			switches++
		}
		return jellyfish.New(switches, 8, 8, 1)
	default:
		return nil, fmt.Errorf("core: unknown topology kind %q", spec.Kind)
	}
}

// balancedArities factors n into up to three stage arities for the tree
// builders, dropping the degenerate 1-ary stages of small systems.
func balancedArities(n int) []int { return grid.NonUnitFactors(n, 3) }
