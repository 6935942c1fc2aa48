// Package fault is the resilience subsystem of the simulator: it injects
// deterministic, seeded component failures into any topology and wraps
// the result so the rest of the stack — flow engine, experiment drivers,
// CLIs — can measure how gracefully a fabric degrades.
//
// The package has two halves:
//
//   - A Spec/Set pair: a Spec names a failure model (uniform random,
//     spatially clustered, targeted attack) and the fraction of cables,
//     switches and endpoints to kill; Generate turns it into a concrete
//     Set of failed components. Every model first derives a deterministic
//     *ordering* of components from the seed and then fails a prefix, so
//     the failed set at fraction f1 is a subset of the set at f2 > f1 for
//     the same seed. Degradation curves are therefore monotone by
//     construction and reproducible bit for bit.
//   - A Degraded topology wrapper (degraded.go) that routes around the
//     failed components and reports endpoint pairs as disconnected when
//     no surviving path exists.
//
// All randomness flows through internal/xrand sub-streams of the spec's
// seed, so fault sets are independent of workload seeds and of the order
// in which sweep cells execute.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mtier/internal/topo"
	"mtier/internal/xrand"
)

// Model names a failure-generation model.
type Model string

const (
	// Random fails components uniformly at random (independent cable,
	// switch and endpoint draws from the seeded ordering).
	Random Model = "random"
	// Clustered fails components by distance from a small set of random
	// epicenters, modelling spatially-correlated faults: a failed power
	// feed, a liquid-cooling leak, a damaged cable tray.
	Clustered Model = "clustered"
	// Targeted fails the highest-degree components first, modelling a
	// worst-case adversarial attack on the fabric's most-connected parts.
	Targeted Model = "targeted"
)

// Models lists the failure models.
func Models() []Model { return []Model{Random, Clustered, Targeted} }

// ParseModel validates a user-supplied model name (as given to -model
// flags). The error lists every valid model.
func ParseModel(s string) (Model, error) {
	m := Model(strings.ToLower(strings.TrimSpace(s)))
	for _, valid := range Models() {
		if m == valid {
			return m, nil
		}
	}
	names := make([]string, 0, len(Models()))
	for _, valid := range Models() {
		names = append(names, string(valid))
	}
	return "", fmt.Errorf("fault: unknown model %q (valid: %s)", s, strings.Join(names, ", "))
}

// Spec describes a fault scenario: which model draws the failures and
// what fraction of each component class fails. The zero fractions mean a
// pristine machine; the JSON tags let a spec live inside a run-record
// config so degraded runs stay replayable.
type Spec struct {
	// Model selects the failure generator.
	Model Model `json:"model"`
	// LinkFraction is the fraction of physical cables to fail, in [0, 1].
	// Failing a cable kills both of its directed links.
	LinkFraction float64 `json:"link_fraction,omitempty"`
	// SwitchFraction is the fraction of switches to fail. A failed switch
	// kills every cable attached to it.
	SwitchFraction float64 `json:"switch_fraction,omitempty"`
	// EndpointFraction is the fraction of endpoints (QFDBs) to fail. All
	// traffic to or from a failed endpoint is reported as disconnected.
	EndpointFraction float64 `json:"endpoint_fraction,omitempty"`
	// Seed drives every random draw of the generator. The same
	// (topology, spec) pair always produces the same Set.
	Seed int64 `json:"seed,omitempty"`
	// Clusters is the number of failure epicenters of the Clustered
	// model (default 1); the other models ignore it.
	Clusters int `json:"clusters,omitempty"`
}

// Empty reports whether the spec injects no faults at all.
func (s Spec) Empty() bool {
	return s.LinkFraction == 0 && s.SwitchFraction == 0 && s.EndpointFraction == 0
}

// Validate checks the spec for a known model and sane fractions.
func (s Spec) Validate() error {
	if _, err := ParseModel(string(s.Model)); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LinkFraction", s.LinkFraction},
		{"SwitchFraction", s.SwitchFraction},
		{"EndpointFraction", s.EndpointFraction},
	} {
		if f.v < 0 || f.v > 1 || math.IsNaN(f.v) {
			return fmt.Errorf("fault: %s %g out of [0, 1]", f.name, f.v)
		}
	}
	if s.Clusters < 0 {
		return fmt.Errorf("fault: Clusters must be non-negative, got %d", s.Clusters)
	}
	return nil
}

// Set is a concrete collection of failed components of one topology
// instance: the resolved form of a Spec. Failed switches and endpoints
// are folded down to the link level (every incident directed link is
// down), so route health checks reduce to per-link lookups.
type Set struct {
	linkDown []bool // per directed link id
	vertDown []bool // per vertex id

	spec          Spec
	numEndpoints  int
	cablesDown    int
	linksDown     int // directed links down (incl. those of failed vertices)
	switchesDown  int
	endpointsDown int
	label         string
}

// LinkDown reports whether the directed link is failed.
func (s *Set) LinkDown(l int32) bool { return s.linkDown[l] }

// VertexDown reports whether the vertex (endpoint or switch) is failed.
func (s *Set) VertexDown(v int32) bool { return s.vertDown[v] }

// Empty reports whether no component is failed; the Degraded wrapper's
// zero-cost path hangs off this.
func (s *Set) Empty() bool { return s.linksDown == 0 && s.switchesDown == 0 && s.endpointsDown == 0 }

// CablesDown returns the number of directly-failed physical cables
// (cables lost to failed switches/endpoints are not counted here).
func (s *Set) CablesDown() int { return s.cablesDown }

// LinksDown returns the total number of failed directed links, including
// the links of failed switches and endpoints.
func (s *Set) LinksDown() int { return s.linksDown }

// SwitchesDown returns the number of failed switches.
func (s *Set) SwitchesDown() int { return s.switchesDown }

// EndpointsDown returns the number of failed endpoints.
func (s *Set) EndpointsDown() int { return s.endpointsDown }

// Label summarises the set for topology names and reports, e.g.
// "faults[random,c12,s2,e0,seed7]". Empty sets label as "".
func (s *Set) Label() string { return s.label }

// Spec returns the generating spec the set was resolved from. Shared
// topology caches use it to verify that a pre-wrapped Degraded instance
// matches a request's fault scenario before reusing its detour cache.
func (s *Set) Spec() Spec { return s.spec }

// cable is one physical duplex connection: the two directed link ids
// (l2 < 0 for a simplex link) and the vertices it joins.
type cable struct {
	a, b   int32
	l1, l2 int32
}

// cables pairs the topology's directed links into physical cables. Links
// are walked in id order and each link is matched with the first unpaired
// opposite-direction link between the same vertices, so parallel cables
// pair up deterministically. Links are read one id at a time (topo.LinkAt)
// so closed-form topologies never build their link table here.
func cables(t topo.Topology) []cable {
	numL := t.NumLinks()
	partner := make([]int32, numL)
	for i := range partner {
		partner[i] = -1
	}
	open := make(map[[2]int32][]int32, numL/2)
	for id := 0; id < numL; id++ {
		ln := topo.LinkAt(t, int32(id))
		rk := [2]int32{ln.To, ln.From}
		if q := open[rk]; len(q) > 0 {
			p := q[0]
			open[rk] = q[1:]
			partner[id], partner[p] = p, int32(id)
		} else {
			k := [2]int32{ln.From, ln.To}
			open[k] = append(open[k], int32(id))
		}
	}
	out := make([]cable, 0, (numL+1)/2)
	for id := 0; id < numL; id++ {
		p := partner[id]
		if p >= 0 && p < int32(id) {
			continue // recorded at the lower id
		}
		ln := topo.LinkAt(t, int32(id))
		out = append(out, cable{a: ln.From, b: ln.To, l1: int32(id), l2: p})
	}
	return out
}

// Generate resolves a spec against a topology instance into a concrete
// fault set. It is deterministic: the same topology and spec always
// yield the same set, and for a fixed (model, seed) the failed
// components at a smaller fraction are a subset of those at a larger
// one.
func Generate(t topo.Topology, spec Spec) (*Set, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	nVerts := t.NumVertices()
	nEps := t.NumEndpoints()
	set := &Set{
		spec:         spec,
		linkDown:     make([]bool, t.NumLinks()),
		vertDown:     make([]bool, nVerts),
		numEndpoints: nEps,
	}
	if spec.Empty() {
		return set, nil
	}

	g := newGeometry(t, spec)

	// Cables first, then switches, then endpoints, each from its own
	// sub-stream: the draws of one class cannot perturb another's.
	cbs := g.cables
	order := g.orderCables(spec)
	nFail := failCount(spec.LinkFraction, len(cbs))
	for _, ci := range order[:nFail] {
		set.failCable(cbs[ci])
		set.cablesDown++
	}

	nSwitches := nVerts - nEps
	if nSwitches > 0 && spec.SwitchFraction > 0 {
		sworder := g.orderVertices(spec, nEps, nVerts, "fault/switches")
		for _, v := range sworder[:failCount(spec.SwitchFraction, nSwitches)] {
			set.failVertex(int32(v), g.incident)
			set.switchesDown++
		}
	}
	if spec.EndpointFraction > 0 {
		eporder := g.orderVertices(spec, 0, nEps, "fault/endpoints")
		for _, v := range eporder[:failCount(spec.EndpointFraction, nEps)] {
			set.failVertex(int32(v), g.incident)
			set.endpointsDown++
		}
	}
	set.label = fmt.Sprintf("faults[%s,c%d,s%d,e%d,seed%d]",
		spec.Model, set.cablesDown, set.switchesDown, set.endpointsDown, spec.Seed)
	return set, nil
}

// failCount turns a fraction into a component count, rounding up so any
// positive fraction fails at least one component.
func failCount(frac float64, n int) int {
	if frac <= 0 || n == 0 {
		return 0
	}
	k := int(math.Ceil(frac * float64(n)))
	if k > n {
		k = n
	}
	return k
}

func (s *Set) failCable(c cable) {
	s.markLink(c.l1)
	if c.l2 >= 0 {
		s.markLink(c.l2)
	}
}

func (s *Set) markLink(l int32) {
	if !s.linkDown[l] {
		s.linkDown[l] = true
		s.linksDown++
	}
}

func (s *Set) failVertex(v int32, incident [][]int32) {
	if s.vertDown[v] {
		return
	}
	s.vertDown[v] = true
	for _, l := range incident[v] {
		s.markLink(l)
	}
}

// geometry holds the derived structure every model orders components by:
// the cable list, per-vertex incident links, degrees and (for the
// clustered model) BFS distances from the failure epicenters.
type geometry struct {
	t        topo.Topology
	cables   []cable
	incident [][]int32 // directed link ids touching each vertex
	degree   []int32   // incident directed links per vertex
}

func newGeometry(t topo.Topology, spec Spec) *geometry {
	g := &geometry{
		t:        t,
		cables:   cables(t),
		incident: make([][]int32, t.NumVertices()),
		degree:   make([]int32, t.NumVertices()),
	}
	numL := t.NumLinks()
	for id := 0; id < numL; id++ {
		ln := topo.LinkAt(t, int32(id))
		g.incident[ln.From] = append(g.incident[ln.From], int32(id))
		g.incident[ln.To] = append(g.incident[ln.To], int32(id))
		g.degree[ln.From]++
		g.degree[ln.To]++
	}
	return g
}

// orderCables returns cable indices in the model's failure order.
func (g *geometry) orderCables(spec Spec) []int {
	n := len(g.cables)
	switch spec.Model {
	case Clustered:
		dist := g.epicenterDistances(spec)
		return sortedBy(n, func(i int) int64 {
			c := g.cables[i]
			return int64(min32(dist[c.a], dist[c.b]))
		})
	case Targeted:
		// Highest-degree attachment first: descending key via negation.
		return sortedBy(n, func(i int) int64 {
			c := g.cables[i]
			return -int64(max32(g.degree[c.a], g.degree[c.b]))
		})
	default: // Random
		return xrand.New(spec.Seed).Split("fault/cables").Perm(n)
	}
}

// orderVertices returns vertex ids in [lo, hi) in the model's failure
// order, derived from the named sub-stream.
func (g *geometry) orderVertices(spec Spec, lo, hi int, label string) []int {
	n := hi - lo
	var order []int
	switch spec.Model {
	case Clustered:
		dist := g.epicenterDistances(spec)
		order = sortedBy(n, func(i int) int64 { return int64(dist[lo+i]) })
	case Targeted:
		order = sortedBy(n, func(i int) int64 { return -int64(g.degree[lo+i]) })
	default:
		order = xrand.New(spec.Seed).Split(label).Perm(n)
	}
	for i := range order {
		order[i] += lo
	}
	return order
}

// epicenterDistances picks the clustered model's epicenters (switches
// when the topology has any, vertices otherwise) and returns each
// vertex's BFS hop distance to the nearest one.
func (g *geometry) epicenterDistances(spec Spec) []int32 {
	nVerts := g.t.NumVertices()
	nEps := g.t.NumEndpoints()
	lo, hi := nEps, nVerts
	if lo == hi { // switchless topology: any vertex can be an epicenter
		lo = 0
	}
	clusters := spec.Clusters
	if clusters == 0 {
		clusters = 1
	}
	if clusters > hi-lo {
		clusters = hi - lo
	}
	rng := xrand.New(spec.Seed).Split("fault/epicenters")
	dist := make([]int32, nVerts)
	for i := range dist {
		dist[i] = math.MaxInt32
	}
	queue := make([]int32, 0, clusters)
	for _, v := range rng.Perm(hi - lo)[:clusters] {
		dist[lo+v] = 0
		queue = append(queue, int32(lo+v))
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, l := range g.incident[v] {
			ln := topo.LinkAt(g.t, l)
			w := ln.To
			if w == v {
				w = ln.From
			}
			if dist[w] > dist[v]+1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// sortedBy returns 0..n-1 stably sorted by an int64 key: ties keep index
// order, so every ordering is a strict, deterministic total order.
func sortedBy(n int, key func(int) int64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return key(idx[a]) < key(idx[b]) })
	return idx
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
