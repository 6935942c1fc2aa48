package topo_test

// Property and metamorphic tests for the closed-form (generative) link
// ids. The moderate-size tests hold a fresh instance against a twin whose
// stored link table was forced with Links(), link by link; the
// paper-scale tests can enumerate nothing, so they sample: every sampled
// closed-form route must be contiguous, minimal per the family's
// Distance, and confined to the declared tier ranges — all via LinkEnds,
// without ever touching a link table.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mtier/internal/fault"
	"mtier/internal/grid"
	"mtier/internal/topo"
	"mtier/internal/topo/fattree"
	"mtier/internal/topo/ghc"
	"mtier/internal/topo/nest"
	"mtier/internal/topo/torus"
	"mtier/internal/xrand"
)

// implicitPair holds two instances of one configuration: imp is fresh,
// mat has had its link table built by Links().
type implicitPair struct {
	name string
	imp  topo.Topology
	mat  topo.Topology
}

func implicitPairs(t *testing.T) []implicitPair {
	t.Helper()
	var out []implicitPair
	add := func(name string, imp topo.Topology, err1 error, mat topo.Topology, err2 error) {
		if err1 != nil {
			t.Fatalf("%s fresh: %v", name, err1)
		}
		if err2 != nil {
			t.Fatalf("%s table: %v", name, err2)
		}
		mat.Links()
		out = append(out, implicitPair{name, imp, mat})
	}
	for _, sh := range []grid.Shape{{4, 3, 2}, {2, 2, 2}, {5}, {2, 3}, {4, 4, 4}} {
		i, e1 := torus.New(sh)
		m, e2 := torus.New(sh)
		add(fmt.Sprintf("torus-%s", sh), i, e1, m, e2)
	}
	for _, c := range []struct {
		sh   grid.Shape
		conc int
	}{{grid.Shape{2, 2}, 1}, {grid.Shape{4, 3}, 2}, {grid.Shape{2, 2, 2}, 4}} {
		i, e1 := ghc.New(c.sh, c.conc)
		m, e2 := ghc.New(c.sh, c.conc)
		add(fmt.Sprintf("ghc-%s-c%d", c.sh, c.conc), i, e1, m, e2)
	}
	for _, m := range [][]int{{4}, {4, 4}, {2, 4, 4}} {
		i, e1 := fattree.NewNonBlocking(m)
		mt, e2 := fattree.NewNonBlocking(m)
		add(fmt.Sprintf("fattree-%v", m), i, e1, mt, e2)
	}
	{
		i, e1 := fattree.NewThinTree([]int{4, 4}, 2)
		m, e2 := fattree.NewThinTree([]int{4, 4}, 2)
		add("thintree-4:4", i, e1, m, e2)
	}
	for _, c := range []struct {
		kind nest.UpperKind
		t, u int
		n    int
	}{
		{nest.UpperTree, 2, 1, 64}, {nest.UpperTree, 2, 4, 512}, {nest.UpperTree, 4, 8, 512},
		{nest.UpperGHC, 2, 2, 512}, {nest.UpperGHC, 4, 4, 512}, {nest.UpperGHC, 2, 8, 256},
	} {
		i, e1 := nest.BuildCube(c.kind, c.t, c.u, c.n)
		m, e2 := nest.BuildCube(c.kind, c.t, c.u, c.n)
		add(fmt.Sprintf("%s-t%d-u%d-n%d", c.kind, c.t, c.u, c.n), i, e1, m, e2)
	}
	return out
}

// TestImplicitLinkTableIdentity: every directed link of the fresh
// instance, described by LinkEnds alone, must equal the corresponding
// entry of the twin's stored link table — the bit-identity foundation
// everything else (routes are link-id sequences) rests on. Building the
// table runs the construction replay and its closed-form count checks.
func TestImplicitLinkTableIdentity(t *testing.T) {
	for _, p := range implicitPairs(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			if p.imp.NumLinks() != p.mat.NumLinks() {
				t.Fatalf("link counts differ: fresh %d, table %d", p.imp.NumLinks(), p.mat.NumLinks())
			}
			if p.imp.NumVertices() != p.mat.NumVertices() {
				t.Fatalf("vertex counts differ: fresh %d, table %d", p.imp.NumVertices(), p.mat.NumVertices())
			}
			g, ok := p.imp.(topo.Generative)
			if !ok {
				t.Fatalf("instance is not topo.Generative")
			}
			links := p.mat.Links()
			for id := range links {
				from, to := g.LinkEnds(int32(id))
				if from != links[id].From || to != links[id].To {
					t.Fatalf("link %d: LinkEnds (%d->%d), table (%d->%d)",
						id, from, to, links[id].From, links[id].To)
				}
			}
			// The fresh instance's first Links() calls may race: every
			// caller must get the one table, equal to the twin's.
			var wg sync.WaitGroup
			got := make([][]topo.Link, 4)
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = p.imp.Links()
				}(i)
			}
			wg.Wait()
			for i, l := range got {
				if !reflect.DeepEqual(l, links) {
					t.Fatalf("concurrent Links() call %d returned a different table", i)
				}
			}
		})
	}
}

// TestImplicitRoutesIdentical: the route of every pair must be the
// identical link-id sequence whether or not the link table exists, and
// valid under the shared checker (which also pins MultiRouter candidates).
func TestImplicitRoutesIdentical(t *testing.T) {
	for _, p := range implicitPairs(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			n := p.imp.NumEndpoints()
			step := 1
			if n > 128 {
				step = 7 // sample pairs on the larger instances
			}
			var ibuf, mbuf []int32
			for s := 0; s < n; s++ {
				for d := s % step; d < n; d += step {
					ibuf = p.imp.RouteAppend(ibuf[:0], s, d)
					mbuf = p.mat.RouteAppend(mbuf[:0], s, d)
					if len(ibuf) != len(mbuf) {
						t.Fatalf("route %d->%d: lengths differ (%d vs %d)", s, d, len(ibuf), len(mbuf))
					}
					for i := range ibuf {
						if ibuf[i] != mbuf[i] {
							t.Fatalf("route %d->%d hop %d: link %d vs %d", s, d, i, ibuf[i], mbuf[i])
						}
					}
					if err := topo.CheckRouteChoices(p.imp, s, d); err != nil {
						t.Fatalf("route %d->%d: %v", s, d, err)
					}
				}
			}
		})
	}
}

// TestImplicitRouteLengthIsDistance: closed-form route lengths must equal
// the family's closed-form Distance, and distances must be symmetric —
// the metamorphic pair of properties the Static distance summaries rely
// on. For the single-tier families Distance is additionally pinned to a
// BFS shortest path over the stored link table in families_test.go.
func TestImplicitRouteLengthIsDistance(t *testing.T) {
	type distancer interface {
		Distance(src, dst int) int
	}
	for _, p := range implicitPairs(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			d, ok := p.imp.(distancer)
			if !ok {
				t.Skipf("%s has no Distance", p.name)
			}
			n := p.imp.NumEndpoints()
			step := 1
			if n > 128 {
				step = 5
			}
			var buf []int32
			for s := 0; s < n; s++ {
				for dst := s % step; dst < n; dst += step {
					buf = p.imp.RouteAppend(buf[:0], s, dst)
					if len(buf) != d.Distance(s, dst) {
						t.Fatalf("route %d->%d: %d hops, Distance says %d", s, dst, len(buf), d.Distance(s, dst))
					}
					if d.Distance(s, dst) != d.Distance(dst, s) {
						t.Fatalf("distance %d->%d asymmetric: %d vs %d", s, dst, d.Distance(s, dst), d.Distance(dst, s))
					}
				}
			}
		})
	}
}

// TestImplicitTieredAgreement: for hybrid instances, the fresh instance
// and its table-built twin must agree on the tier structure, and each
// link's tier must match the vertex classes of its endpoints
// (endpoint-endpoint = subtorus, endpoint-switch = uplink, switch-switch =
// fabric).
func TestImplicitTieredAgreement(t *testing.T) {
	for _, p := range implicitPairs(t) {
		it, ok := p.imp.(topo.Tiered)
		if !ok {
			continue
		}
		p, it := p, it
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			mt, ok := p.mat.(topo.Tiered)
			if !ok {
				t.Fatalf("table-built twin is not Tiered")
			}
			if it.NumTiers() != mt.NumTiers() {
				t.Fatalf("tier counts differ: %d vs %d", it.NumTiers(), mt.NumTiers())
			}
			for ti := 0; ti < it.NumTiers(); ti++ {
				if it.TierName(ti) != mt.TierName(ti) {
					t.Fatalf("tier %d named %q vs %q", ti, it.TierName(ti), mt.TierName(ti))
				}
			}
			eps := int32(p.imp.NumEndpoints())
			g := p.imp.(topo.Generative)
			for id := 0; id < p.imp.NumLinks(); id++ {
				tier := it.LinkTier(int32(id))
				if mtier := mt.LinkTier(int32(id)); tier != mtier {
					t.Fatalf("link %d: tier %d vs %d", id, tier, mtier)
				}
				from, to := g.LinkEnds(int32(id))
				endpoints := 0
				if from < eps {
					endpoints++
				}
				if to < eps {
					endpoints++
				}
				want := 2 - endpoints // 2 endpoint ends = tier 0, 1 = uplink, 0 = fabric
				if it.NumTiers() == 3 && tier != want {
					t.Fatalf("link %d (%d->%d): tier %d, endpoint classes say %d", id, from, to, tier, want)
				}
			}
		})
	}
}

// TestFaultPrefixMonotoneImplicit: for a fixed (model, seed), the failed
// components at a smaller fraction must be a subset of those at a larger
// one — and the sets must be generated identically whether or not the
// link table exists (fault geometry reads links one id at a time).
func TestFaultPrefixMonotoneImplicit(t *testing.T) {
	imp, err := nest.BuildCube(nest.UpperTree, 2, 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := nest.BuildCube(nest.UpperTree, 2, 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	mat.Links()
	for _, model := range fault.Models() {
		model := model
		t.Run(string(model), func(t *testing.T) {
			t.Parallel()
			fracs := []float64{0.01, 0.03, 0.08, 0.15}
			var prev *fault.Set
			for _, fr := range fracs {
				spec := fault.Spec{Model: model, LinkFraction: fr, SwitchFraction: fr / 2, Seed: 9}
				set, err := fault.Generate(imp, spec)
				if err != nil {
					t.Fatal(err)
				}
				mset, err := fault.Generate(mat, spec)
				if err != nil {
					t.Fatal(err)
				}
				for l := 0; l < imp.NumLinks(); l++ {
					if set.LinkDown(int32(l)) != mset.LinkDown(int32(l)) {
						t.Fatalf("frac %g: fresh and table-built instances disagree on link %d", fr, l)
					}
					if prev != nil && prev.LinkDown(int32(l)) && !set.LinkDown(int32(l)) {
						t.Fatalf("link %d failed at a smaller fraction but not at %g: fault sets are not prefix-nested", l, fr)
					}
				}
				for v := 0; v < imp.NumVertices(); v++ {
					if prev != nil && prev.VertexDown(int32(v)) && !set.VertexDown(int32(v)) {
						t.Fatalf("vertex %d failed at a smaller fraction but not at %g", v, fr)
					}
				}
				prev = set
			}
		})
	}
}

// TestImplicitPaperScale: the paper's full-scale configurations, built
// in milliseconds, checked by sampling: closed-form routes
// must be contiguous link-id sequences (validated hop-by-hop through
// LinkEnds), exactly Distance hops long, and every link must stay inside
// its declared tier range. No link table is ever materialised.
func TestImplicitPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sampling in -short mode")
	}
	type distancer interface {
		Distance(src, dst int) int
	}
	builds := []struct {
		name  string
		build func() (topo.Topology, error)
	}{
		{"torus-64x64x32", func() (topo.Topology, error) { return torus.New(grid.Shape{64, 64, 32}) }},
		{"nesttree-t4-u4", func() (topo.Topology, error) { return nest.BuildCube(nest.UpperTree, 4, 4, 131072) }},
		{"nestghc-t4-u4", func() (topo.Topology, error) { return nest.BuildCube(nest.UpperGHC, 4, 4, 131072) }},
		{"fattree-131k", func() (topo.Topology, error) { return nest.SuggestTree(131072) }},
		{"ghcflat-131k", func() (topo.Topology, error) { return nest.SuggestGHC(131072) }},
	}
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			top, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			if got := top.NumEndpoints(); got < 131072 {
				t.Fatalf("%s built only %d endpoints", b.name, got)
			}
			n := top.NumEndpoints()
			d, hasDist := top.(distancer)
			rng := xrand.New(42).Split("implicit/" + b.name)
			var buf []int32
			for i := 0; i < 300; i++ {
				s, dst := rng.Intn(n), rng.Intn(n)
				buf = top.RouteAppend(buf[:0], s, dst)
				if err := topo.CheckPath(top, s, dst, buf); err != nil {
					t.Fatalf("route %d->%d: %v", s, dst, err)
				}
				if hasDist && len(buf) != d.Distance(s, dst) {
					t.Fatalf("route %d->%d: %d hops, Distance says %d", s, dst, len(buf), d.Distance(s, dst))
				}
			}
			// The endpoint-class check presumes the hybrids' three-tier
			// structure; flat fabrics attribute links differently.
			if td, ok := top.(topo.Tiered); ok && td.NumTiers() == 3 {
				g := top.(topo.Generative)
				eps := int32(n)
				for i := 0; i < 2000; i++ {
					id := int32(rng.Intn(top.NumLinks()))
					from, to := g.LinkEnds(id)
					endpoints := 0
					if from < eps {
						endpoints++
					}
					if to < eps {
						endpoints++
					}
					if want := 2 - endpoints; td.LinkTier(id) != want {
						t.Fatalf("link %d (%d->%d): tier %d, endpoint classes say %d", id, from, to, td.LinkTier(id), want)
					}
				}
			}
		})
	}
}
