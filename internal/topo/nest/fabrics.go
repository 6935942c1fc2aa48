package nest

import (
	"fmt"

	"mtier/internal/grid"
	"mtier/internal/topo"
	"mtier/internal/topo/fattree"
	"mtier/internal/topo/ghc"
)

// UpperKind selects the upper-tier family of a hybrid topology.
type UpperKind int

const (
	// UpperTree nests the subtori under a 3-stage non-blocking fattree
	// (NestTree in the paper).
	UpperTree UpperKind = iota
	// UpperGHC nests the subtori under a generalised hypercube (NestGHC).
	UpperGHC
)

// String names the upper kind as in the paper's figures.
func (k UpperKind) String() string {
	if k == UpperTree {
		return "NestTree"
	}
	return "NestGHC"
}

// SuggestTree builds a non-blocking fattree fabric for the given number of
// uplink ports: three stages when the port count allows (the paper's
// configuration), fewer for tiny systems. At the paper's full scale
// (131,072 ports) this yields arities (32, 64, 64).
func SuggestTree(ports int) (*fattree.GTree, error) {
	if ports < 1 {
		return nil, fmt.Errorf("nest: need at least one port, got %d", ports)
	}
	stages := 3
	if ports < 8 {
		stages = 1
	}
	m := grid.NonUnitFactors(ports, stages)
	if len(m) == 0 {
		m = []int{1}
	}
	return fattree.NewNonBlocking(m)
}

// SuggestGHC builds a generalised-hypercube fabric for the given number of
// uplink ports, picking the endpoint concentration so the fabric is not
// starved: the largest conc (up to 16, the paper's value) whose expected
// per-link load under uniform traffic — conc × E[hamming] / Σ(gᵢ-1) — stays
// within the modest oversubscription the paper's own 8x8x8x16 (conc 16)
// configuration exhibits (~1.6x). At the paper's full scale (131,072
// ports) this reproduces exactly that grid: 8,192 switches, conc 16.
func SuggestGHC(ports int) (*ghc.GHC, error) {
	if ports < 1 {
		return nil, fmt.Errorf("nest: need at least one port, got %d", ports)
	}
	const maxOversubscription = 1.7
	best := 1
	for _, c := range []int{16, 8, 4, 2} {
		if ports%c != 0 || ports/c < c {
			continue
		}
		shape := ghcShape(ports / c)
		out, avgHam := 0.0, 0.0
		for _, g := range shape {
			out += float64(g - 1)
			avgHam += 1 - 1/float64(g)
		}
		if out == 0 {
			continue // single switch: any conc works, but prefer smaller systems below
		}
		if float64(c)*avgHam <= maxOversubscription*out {
			best = c
			break
		}
	}
	return ghc.New(ghcShape(ports/best), best)
}

// ghcShape factors a switch count into a balanced grid of at most 4
// non-degenerate dimensions.
func ghcShape(switches int) grid.Shape {
	shape := grid.Shape(grid.NonUnitFactors(switches, 4))
	if len(shape) == 0 {
		shape = grid.Shape{1}
	}
	return shape
}

// Build constructs a hybrid topology with an automatically sized upper
// fabric: numSub subtori of shape sub, uplink density u, upper tier of the
// given kind. It is the one-call constructor used by the experiment runner.
func Build(kind UpperKind, sub grid.Shape, numSub, u int) (*Nest, error) {
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	ports := numSub * sub.Size() / u
	var (
		fab topo.Fabric
		err error
	)
	if kind == UpperTree {
		fab, err = SuggestTree(ports)
	} else {
		fab, err = SuggestGHC(ports)
	}
	if err != nil {
		return nil, err
	}
	return New(sub, numSub, u, fab)
}

// BuildCube is Build for the paper's cubic subtori: t nodes per dimension
// and a total endpoint count of n (n must be a multiple of t³).
func BuildCube(kind UpperKind, t, u, n int) (*Nest, error) {
	sub := grid.NewCube(3, t)
	if n%sub.Size() != 0 {
		return nil, fmt.Errorf("nest: %d endpoints not a multiple of subtorus size %d", n, sub.Size())
	}
	return Build(kind, sub, n/sub.Size(), u)
}
