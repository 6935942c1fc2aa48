// Package topo defines the topology abstraction shared by every network in
// the simulator: a directed multigraph of vertices (endpoints and switches)
// with unit-role links, plus a deterministic routing function that maps an
// (endpoint, endpoint) pair to the sequence of links a flow traverses.
//
// Conventions:
//   - Vertices are integers 0..NumVertices()-1.
//   - Endpoints (QFDBs in the paper's terms) are vertices 0..NumEndpoints()-1.
//   - Switches, when present, occupy the remaining vertex ids.
//   - Every physical cable is modelled as two directed links (one per
//     direction), each with its own id, because flow-level congestion is
//     directional.
//   - Routing is deterministic: the same (src, dst) pair always yields the
//     same path, mirroring the static routing functions used by INRFlow.
package topo

import "fmt"

// Link is one directed channel between two vertices.
type Link struct {
	From, To int32
}

// Topology is a network with deterministic endpoint-to-endpoint routing.
type Topology interface {
	// Name identifies the topology instance, e.g. "torus-64x64x32".
	Name() string
	// NumEndpoints returns the number of traffic sources/sinks.
	NumEndpoints() int
	// NumVertices returns endpoints + switches.
	NumVertices() int
	// NumLinks returns the number of directed links.
	NumLinks() int
	// Links exposes the link table; index is the link id. Callers must not
	// mutate the returned slice.
	Links() []Link
	// RouteAppend appends the link ids of the route from endpoint src to
	// endpoint dst onto buf and returns the extended buffer. src == dst
	// yields an empty route. It panics if src or dst is out of range.
	RouteAppend(buf []int32, src, dst int) []int32
}

// Route is a convenience wrapper around RouteAppend allocating a new path.
func Route(t Topology, src, dst int) []int32 {
	return t.RouteAppend(nil, src, dst)
}

// Generative is implemented by topologies whose link table is defined by
// closed-form index arithmetic: any directed link can be described from its
// id alone, without materialising []Link. Such topologies still satisfy the
// full Topology contract — Links() builds the table lazily on first call —
// but callers that go through LinkEnds/LinkAt never force that build,
// which is what keeps n=131,072 instances within memory bounds.
//
// Contract: LinkEnds(id) must equal Links()[id] for every id in
// [0, NumLinks()), i.e. the closed form reproduces the construction order
// of the stored table exactly.
type Generative interface {
	Topology
	// LinkEnds returns the endpoints of directed link id. It panics if the
	// id is out of range.
	LinkEnds(id int32) (from, to int32)
}

// LinkAt returns directed link id of t, using the closed form when the
// topology is Generative so its link table is not forced into existence.
func LinkAt(t Topology, id int32) Link {
	if g, ok := t.(Generative); ok {
		from, to := g.LinkEnds(id)
		return Link{From: from, To: to}
	}
	return t.Links()[id]
}

// Hop is an outgoing adjacency entry.
type Hop struct {
	To   int32
	Link int32
}

// Net is the concrete link store topologies build on. The zero value is an
// empty network ready for use. Once construction is complete, Seal compacts
// the per-vertex adjacency slices into a single CSR layout.
type Net struct {
	links []Link
	out   [][]Hop
	// CSR adjacency after Seal: hops[start[v]:start[v+1]] is the outgoing
	// adjacency of v, in the order the links were added.
	hops  []Hop
	start []int32
}

// AddVertices grows the vertex set by k and returns the id of the first new
// vertex.
func (n *Net) AddVertices(k int) int {
	if n.start != nil {
		panic("topo: AddVertices on a sealed Net")
	}
	first := len(n.out)
	n.out = append(n.out, make([][]Hop, k)...)
	return first
}

// NumVertices returns the current vertex count.
func (n *Net) NumVertices() int {
	if n.start != nil {
		return len(n.start) - 1
	}
	return len(n.out)
}

// Seal compacts the adjacency into CSR form: one flat hop array indexed by
// a per-vertex offset table, replacing len(out) individual slices. Queries
// (Neighbors, Degree, LinkBetween, AppendHop) keep working; further
// construction panics. Sealing an already-sealed Net is a no-op.
func (n *Net) Seal() {
	if n.start != nil {
		return
	}
	total := 0
	for _, hs := range n.out {
		total += len(hs)
	}
	hops := make([]Hop, 0, total)
	start := make([]int32, len(n.out)+1)
	for v, hs := range n.out {
		start[v] = int32(len(hops))
		hops = append(hops, hs...)
	}
	start[len(n.out)] = int32(len(hops))
	n.hops, n.start = hops, start
	n.out = nil
}

// NumLinks returns the number of directed links added so far.
func (n *Net) NumLinks() int { return len(n.links) }

// Links exposes the link table.
func (n *Net) Links() []Link { return n.links }

// addDirected inserts one directed link and returns its id.
func (n *Net) addDirected(from, to int) int32 {
	if n.start != nil {
		panic("topo: link insertion on a sealed Net")
	}
	id := int32(len(n.links))
	n.links = append(n.links, Link{From: int32(from), To: int32(to)})
	n.out[from] = append(n.out[from], Hop{To: int32(to), Link: id})
	return id
}

// AddDuplex inserts the two directed links of a cable between a and b.
// Adding a duplex twice between the same pair creates parallel links; most
// topologies must therefore add each cable exactly once.
func (n *Net) AddDuplex(a, b int) {
	if a == b {
		panic(fmt.Sprintf("topo: self-link at vertex %d", a))
	}
	n.addDirected(a, b)
	n.addDirected(b, a)
}

// LinkBetween returns the id of the first directed link from a to b.
func (n *Net) LinkBetween(a, b int) (int32, bool) {
	for _, h := range n.Neighbors(a) {
		if h.To == int32(b) {
			return h.Link, true
		}
	}
	return 0, false
}

// Degree returns the out-degree of a vertex.
func (n *Net) Degree(v int) int { return len(n.Neighbors(v)) }

// Neighbors returns the outgoing adjacency of v. Callers must not mutate it.
func (n *Net) Neighbors(v int) []Hop {
	if n.start != nil {
		return n.hops[n.start[v]:n.start[v+1]]
	}
	return n.out[v]
}

// AppendHop appends the link id from vertex a to adjacent vertex b. It
// panics if no such link exists, because routing over a missing link is a
// topology construction bug that must not be silently absorbed.
func (n *Net) AppendHop(buf []int32, a, b int) []int32 {
	id, ok := n.LinkBetween(a, b)
	if !ok {
		panic(fmt.Sprintf("topo: no link %d -> %d", a, b))
	}
	return append(buf, id)
}

// AppendVertexPath appends the link ids along a vertex sequence.
func (n *Net) AppendVertexPath(buf []int32, vertices ...int) []int32 {
	for i := 1; i < len(vertices); i++ {
		buf = n.AppendHop(buf, vertices[i-1], vertices[i])
	}
	return buf
}

// PathVertices expands a link-id path back into the vertex sequence it
// traverses, starting from the given source vertex. It returns an error if
// the path is discontinuous.
func PathVertices(t Topology, src int, path []int32) ([]int32, error) {
	numLinks := t.NumLinks()
	out := make([]int32, 0, len(path)+1)
	out = append(out, int32(src))
	cur := int32(src)
	for i, id := range path {
		if id < 0 || int(id) >= numLinks {
			return nil, fmt.Errorf("topo: link id %d out of range at hop %d", id, i)
		}
		l := LinkAt(t, id)
		if l.From != cur {
			return nil, fmt.Errorf("topo: discontinuous path at hop %d: at %d, link starts at %d", i, cur, l.From)
		}
		cur = l.To
		out = append(out, cur)
	}
	return out, nil
}

// CheckRoute validates that the deterministic route between two endpoints is
// well formed: consecutive links share a fabric node, the path is continuous
// from src, terminates at dst, and is free of repeated vertices. It is used
// by tests and by the -check mode of the CLIs.
func CheckRoute(t Topology, src, dst int) error {
	return CheckPath(t, src, dst, Route(t, src, dst))
}

// CheckRouteChoices validates every candidate route of a MultiRouter pair,
// including that choice 0 matches RouteAppend — the contract adaptive
// routing and the fault-detour wrapper rely on. For plain topologies it is
// CheckRoute.
func CheckRouteChoices(t Topology, src, dst int) error {
	mr, ok := t.(MultiRouter)
	if !ok {
		return CheckRoute(t, src, dst)
	}
	base := Route(t, src, dst)
	if err := CheckPath(t, src, dst, base); err != nil {
		return err
	}
	for c := 0; c < mr.NumRouteChoices(); c++ {
		path := mr.RouteChoiceAppend(nil, src, dst, c)
		if err := CheckPath(t, src, dst, path); err != nil {
			return fmt.Errorf("topo: route choice %d: %w", c, err)
		}
		if c == 0 {
			if len(path) != len(base) {
				return fmt.Errorf("topo: route choice 0 for %d -> %d has %d hops, RouteAppend %d", src, dst, len(path), len(base))
			}
			for i := range path {
				if path[i] != base[i] {
					return fmt.Errorf("topo: route choice 0 for %d -> %d diverges from RouteAppend at hop %d", src, dst, i)
				}
			}
		}
	}
	return nil
}

// CheckPath validates an arbitrary link-id path between two endpoints the
// same way CheckRoute validates the deterministic route. The explicit
// consecutive-link adjacency check runs before the vertex expansion so a
// spliced path (e.g. a detour grafted onto a route prefix) whose pieces do
// not meet at a common fabric node is reported as such.
func CheckPath(t Topology, src, dst int, path []int32) error {
	numLinks := t.NumLinks()
	for i, id := range path {
		if id < 0 || int(id) >= numLinks {
			return fmt.Errorf("topo: link id %d out of range at hop %d", id, i)
		}
		if i > 0 {
			prev, cur := LinkAt(t, path[i-1]), LinkAt(t, id)
			if prev.To != cur.From {
				return fmt.Errorf("topo: links %d and %d at hops %d-%d share no node (%d -> %d, %d -> %d)",
					path[i-1], id, i-1, i,
					prev.From, prev.To, cur.From, cur.To)
			}
		}
	}
	verts, err := PathVertices(t, src, path)
	if err != nil {
		return err
	}
	if verts[len(verts)-1] != int32(dst) {
		return fmt.Errorf("topo: route %d -> %d ends at %d", src, dst, verts[len(verts)-1])
	}
	seen := make(map[int32]bool, len(verts))
	for _, v := range verts {
		if seen[v] {
			return fmt.Errorf("topo: route %d -> %d revisits vertex %d", src, dst, v)
		}
		seen[v] = true
	}
	return nil
}

// MultiRouter is implemented by topologies that expose path diversity: up
// to NumRouteChoices deterministic candidate routes per endpoint pair. The
// flow engine's adaptive mode picks the least-loaded candidate at
// injection time, emulating the adaptive routing schemes of the literature
// (e.g. Young & Yalamanchili's adaptive generalised-hypercube routing)
// within a flow-level model.
type MultiRouter interface {
	Topology
	// NumRouteChoices returns how many candidate routes exist per pair
	// (>= 1). Candidates may coincide for near pairs.
	NumRouteChoices() int
	// RouteChoiceAppend appends candidate `choice` (0-based) for the pair;
	// choice 0 must equal RouteAppend's route.
	RouteChoiceAppend(buf []int32, src, dst, choice int) []int32
}

// Tiered is implemented by topologies that can attribute every link to a
// tier of their hierarchy — e.g. the nested topologies' subtorus links,
// QFDB uplinks and upper-tier fabric cables. The flow engine's hot-spot
// attribution uses it to break utilisation down by tier; flat topologies
// simply don't implement it and are reported as a single tier.
type Tiered interface {
	Topology
	// NumTiers returns the number of tiers (>= 1).
	NumTiers() int
	// TierName names a tier, e.g. "subtorus"; tiers are 0-based and
	// ordered bottom-up.
	TierName(tier int) string
	// LinkTier returns the tier of a link id. It panics if the id is out
	// of range.
	LinkTier(link int32) int
}

// Fabric is a switch-level interconnect that a population of endpoints can
// attach to. It is the contract between the hybrid (nested) topologies and
// their upper tiers: the nest package wires uplinked QFDBs directly to the
// fabric's switches and routes across it with SwitchPath. Its cable table
// and distance sums are closed-form, so a nesting topology can map a
// fabric hop to a link id and compute exact mean distances without
// materialising SwitchCables() or enumerating port pairs.
type Fabric interface {
	// Name identifies the fabric, e.g. "gtree-64:64:32" or "ghc-8x8x8x16".
	Name() string
	// NumSwitches returns the switch count of the fabric.
	NumSwitches() int
	// NumEndpointPorts returns how many endpoints the fabric is provisioned
	// for; AttachSwitch accepts 0..NumEndpointPorts()-1.
	NumEndpointPorts() int
	// AttachSwitch returns the switch (0-based fabric-local id) that hosts
	// endpoint port ep.
	AttachSwitch(ep int) int
	// SwitchCables returns each physical switch-to-switch cable once as a
	// pair of fabric-local switch ids.
	SwitchCables() [][2]int32
	// NumSwitchCables returns len(SwitchCables()) without materialising it.
	NumSwitchCables() int
	// SwitchCableBetween returns the SwitchCables() index of the cable
	// joining adjacent switches a and b (fabric-local ids), and whether the
	// a→b hop runs in the cable's listed orientation (SwitchCables()[c][0]
	// → SwitchCables()[c][1]). It panics if the switches are not adjacent.
	SwitchCableBetween(a, b int32) (cable int32, forward bool)
	// SwitchPathAppend appends the fabric-local switch sequence of the
	// deterministic minimal route from the attach switch of srcPort to the
	// attach switch of dstPort, both included. Routing is port-granular so
	// fabrics can load-balance at endpoint resolution (e.g. D-mod-k in
	// trees). Equal attach switches append a single element.
	SwitchPathAppend(buf []int32, srcPort, dstPort int) []int32
	// SwitchDistance returns the hop count of SwitchPathAppend's route
	// without allocating.
	SwitchDistance(srcPort, dstPort int) int
	// PortPairDistanceSum returns the sum of SwitchDistance over all
	// ordered port pairs (including equal ports).
	PortPairDistanceSum() float64
	// SwitchDiameter returns the maximum switch-to-switch hop count between
	// attach switches under the fabric's routing function.
	SwitchDiameter() int
}
