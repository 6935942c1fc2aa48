package fault

import (
	"fmt"
	"sync"

	"mtier/internal/obs"
	"mtier/internal/topo"
)

// Degraded wraps a topology with a fault set and routes around the
// failed components. It implements topo.Topology and topo.MultiRouter:
//
//   - RouteAppend first tries the base topology's candidate routes in
//     order (all of them when the base is a MultiRouter, otherwise just
//     the deterministic route) and returns the first one that crosses no
//     failed link.
//   - When every candidate is broken it falls back to a BFS detour over
//     the surviving link graph, cached per destination so repeated
//     routing stays O(path length).
//   - When no surviving path exists the pair is disconnected:
//     RouteAppendOK reports it, RouteAppend panics (route callers that
//     cannot handle disconnection must not be handed one silently).
//
// With an empty fault set every call delegates straight to the base
// topology, byte-for-byte: wrapping a pristine machine is free.
//
// Routing is deterministic — same wrapper, same pair, same route — and
// safe for concurrent use, like every other topology.
type Degraded struct {
	base topo.Topology
	mr   topo.MultiRouter // nil when the base has no path diversity
	set  *Set
	name string

	// Surviving in-edges in CSR form: inHops[inStart[v]:inStart[v+1]]
	// lists v's in-edges as (From, Link) pairs in link-id order; the
	// detour BFS consumes them from the destination. CSR keeps the
	// adjacency to two flat slices so wrapping a 131k-endpoint closed-form
	// topology costs two passes over the link ids, not a slice per vertex.
	inHops  []topo.Hop
	inStart []int32

	mu     sync.Mutex
	detour map[int32][]int32 // per destination: next-hop link per vertex, -1 none

	// Optional metrics (nil-safe): how often routing fell back, how far
	// detours stretch, how many pairs came apart.
	reg          *obs.Registry
	cCandidate   *obs.Counter
	cDetour      *obs.Counter
	cDisconnect  *obs.Counter
	hPathStretch *obs.Histogram
}

// Wrap builds a degraded view of base under the given fault set. The
// registry is optional; when non-nil the wrapper maintains fault.*
// counters and the fault.path_stretch histogram.
func Wrap(base topo.Topology, set *Set, reg *obs.Registry) *Degraded {
	d := &Degraded{base: base, set: set, name: base.Name()}
	if mr, ok := base.(topo.MultiRouter); ok {
		d.mr = mr
	}
	if !set.Empty() {
		d.name = base.Name() + "+" + set.Label()
	}
	// The surviving in-adjacency backs both the static detour cache and
	// RerouteAppend's dynamic BFS; the latter matters even for an empty
	// static set (a pristine machine whose links die mid-simulation).
	numV := base.NumVertices()
	numL := base.NumLinks()
	d.inStart = make([]int32, numV+1)
	surviving := 0
	for id := 0; id < numL; id++ {
		if set.linkDown[id] {
			continue
		}
		d.inStart[topo.LinkAt(base, int32(id)).To+1]++
		surviving++
	}
	for v := 0; v < numV; v++ {
		d.inStart[v+1] += d.inStart[v]
	}
	d.inHops = make([]topo.Hop, surviving)
	fill := make([]int32, numV)
	for id := 0; id < numL; id++ {
		if set.linkDown[id] {
			continue
		}
		ln := topo.LinkAt(base, int32(id))
		d.inHops[d.inStart[ln.To]+fill[ln.To]] = topo.Hop{To: ln.From, Link: int32(id)}
		fill[ln.To]++
	}
	d.detour = make(map[int32][]int32)
	if reg != nil {
		d.reg = reg
		d.cCandidate = reg.Counter("fault.candidate_reroutes")
		d.cDetour = reg.Counter("fault.detour_routes")
		d.cDisconnect = reg.Counter("fault.disconnected_pairs")
		d.hPathStretch = reg.Histogram("fault.path_stretch")
		reg.Gauge("fault.links_down").Set(float64(set.LinksDown()))
		reg.Gauge("fault.cables_down").Set(float64(set.CablesDown()))
		reg.Gauge("fault.switches_down").Set(float64(set.SwitchesDown()))
		reg.Gauge("fault.endpoints_down").Set(float64(set.EndpointsDown()))
	}
	return d
}

// Base returns the wrapped topology.
func (d *Degraded) Base() topo.Topology { return d.base }

// Faults returns the wrapper's fault set.
func (d *Degraded) Faults() *Set { return d.set }

// Name identifies the degraded instance; with an empty fault set it is
// the base topology's name unchanged.
func (d *Degraded) Name() string { return d.name }

// NumEndpoints returns the base endpoint count (failed endpoints keep
// their vertex ids; they are simply unreachable).
func (d *Degraded) NumEndpoints() int { return d.base.NumEndpoints() }

// NumVertices returns the base vertex count.
func (d *Degraded) NumVertices() int { return d.base.NumVertices() }

// NumLinks returns the base link count; failed links keep their ids so
// link-indexed engine state stays aligned.
func (d *Degraded) NumLinks() int { return d.base.NumLinks() }

// Links exposes the base link table.
func (d *Degraded) Links() []topo.Link { return d.base.Links() }

// NumTiers forwards the base topology's tier structure (topo.Tiered);
// link ids are preserved by the wrapper, so tier attribution is too. A
// non-tiered base reports a single tier.
func (d *Degraded) NumTiers() int {
	if td, ok := d.base.(topo.Tiered); ok {
		return td.NumTiers()
	}
	return 1
}

// TierName forwards topo.Tiered.
func (d *Degraded) TierName(tier int) string {
	if td, ok := d.base.(topo.Tiered); ok {
		return td.TierName(tier)
	}
	if tier != 0 {
		panic(fmt.Sprintf("fault: tier %d out of range", tier))
	}
	return "network"
}

// LinkTier forwards topo.Tiered.
func (d *Degraded) LinkTier(link int32) int {
	if td, ok := d.base.(topo.Tiered); ok {
		return td.LinkTier(link)
	}
	if link < 0 || int(link) >= d.base.NumLinks() {
		panic(fmt.Sprintf("fault: link %d out of range", link))
	}
	return 0
}

// RouteAppend implements topo.Topology. It panics on disconnected pairs;
// callers that must survive disconnection use RouteAppendOK.
func (d *Degraded) RouteAppend(buf []int32, src, dst int) []int32 {
	r, ok := d.RouteAppendOK(buf, src, dst)
	if !ok {
		panic(fmt.Sprintf("fault: endpoints %d and %d are disconnected in %s", src, dst, d.name))
	}
	return r
}

// RouteAppendOK appends a surviving route from src to dst onto buf,
// reporting ok=false when the pair is disconnected by the fault set.
func (d *Degraded) RouteAppendOK(buf []int32, src, dst int) ([]int32, bool) {
	if d.set.Empty() {
		return d.base.RouteAppend(buf, src, dst), true
	}
	if d.set.vertDown[src] || d.set.vertDown[dst] {
		d.count(d.cDisconnect)
		return buf, false
	}
	if src == dst {
		return buf, true
	}
	// First healthy candidate wins; candidate 0 is the base route.
	base := len(buf)
	choices := 1
	if d.mr != nil {
		choices = d.mr.NumRouteChoices()
	}
	baseHops := -1
	for c := 0; c < choices; c++ {
		r := d.candidate(buf[:base], src, dst, c)
		if baseHops < 0 {
			baseHops = len(r) - base
		}
		if d.healthy(r[base:]) {
			if c > 0 {
				d.count(d.cCandidate)
			}
			return r, true
		}
	}
	// All candidates cross failed links: BFS detour on the survivors.
	r, ok := d.appendDetour(buf[:base], src, dst)
	if !ok {
		d.count(d.cDisconnect)
		return buf[:base], false
	}
	d.count(d.cDetour)
	if d.hPathStretch != nil && baseHops > 0 {
		d.hPathStretch.Observe(float64(len(r)-base) / float64(baseHops))
	}
	return r, true
}

// Connected reports whether a surviving route exists between the pair.
func (d *Degraded) Connected(src, dst int) bool {
	if d.set.Empty() {
		return true
	}
	if d.set.vertDown[src] || d.set.vertDown[dst] {
		return false
	}
	if src == dst {
		return true
	}
	nh := d.nextTable(int32(dst))
	return nh[src] >= 0
}

// NumRouteChoices implements topo.MultiRouter, mirroring the base's path
// diversity (1 for single-path bases).
func (d *Degraded) NumRouteChoices() int {
	if d.mr != nil {
		return d.mr.NumRouteChoices()
	}
	return 1
}

// RouteChoiceAppend implements topo.MultiRouter: candidate `choice` when
// it survives the fault set, the default degraded route otherwise — so
// choice 0 always equals RouteAppend's route, and broken candidates
// degrade to a working one instead of a dead path.
func (d *Degraded) RouteChoiceAppend(buf []int32, src, dst, choice int) []int32 {
	if d.set.Empty() {
		return d.candidate(buf, src, dst, choice)
	}
	if choice > 0 && !d.set.vertDown[src] && !d.set.vertDown[dst] && src != dst {
		base := len(buf)
		r := d.candidate(buf, src, dst, choice)
		if d.healthy(r[base:]) {
			return r
		}
		buf = r[:base]
	}
	return d.RouteAppend(buf, src, dst)
}

// RerouteAppend appends a route from src to dst that avoids both the
// wrapper's fault set and every link for which down reports true, or
// ok=false when none exists. The flow engine uses it to re-admit flows
// displaced by mid-simulation fault events; the extra dead set is
// transient, so these routes bypass the detour cache.
func (d *Degraded) RerouteAppend(buf []int32, src, dst int, down func(int32) bool) ([]int32, bool) {
	if d.set.vertDown != nil && (d.set.vertDown[src] || d.set.vertDown[dst]) {
		return buf, false
	}
	if src == dst {
		return buf, true
	}
	base := len(buf)
	choices := 1
	if d.mr != nil {
		choices = d.mr.NumRouteChoices()
	}
	for c := 0; c < choices; c++ {
		r := d.candidate(buf[:base], src, dst, c)
		if d.healthy(r[base:]) && !crosses(r[base:], down) {
			return r, true
		}
	}
	nh := d.bfs(int32(dst), down)
	return d.walk(buf[:base], nh, src, dst)
}

// candidate appends the base topology's candidate route.
func (d *Degraded) candidate(buf []int32, src, dst, choice int) []int32 {
	if d.mr != nil {
		return d.mr.RouteChoiceAppend(buf, src, dst, choice)
	}
	return d.base.RouteAppend(buf, src, dst)
}

// healthy reports whether a path avoids every failed link.
func (d *Degraded) healthy(path []int32) bool {
	for _, l := range path {
		if d.set.linkDown[l] {
			return false
		}
	}
	return true
}

func crosses(path []int32, down func(int32) bool) bool {
	for _, l := range path {
		if down(l) {
			return true
		}
	}
	return false
}

// appendDetour appends the cached BFS detour for the pair.
func (d *Degraded) appendDetour(buf []int32, src, dst int) ([]int32, bool) {
	return d.walk(buf, d.nextTable(int32(dst)), src, dst)
}

// walk follows a next-hop table from src to dst.
func (d *Degraded) walk(buf []int32, nh []int32, src, dst int) ([]int32, bool) {
	base := len(buf)
	for cur := int32(src); cur != int32(dst); {
		l := nh[cur]
		if l < 0 {
			return buf[:base], false
		}
		buf = append(buf, l)
		cur = topo.LinkAt(d.base, l).To
	}
	return buf, true
}

// nextTable returns dst's next-hop table — for each vertex, the first
// link of a shortest surviving path towards dst (-1 when unreachable) —
// computing and caching it on first use. BFS expands the surviving
// in-adjacency in link-id order from a FIFO frontier, so the table (and
// with it every detour) is deterministic.
func (d *Degraded) nextTable(dst int32) []int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if nh, ok := d.detour[dst]; ok {
		return nh
	}
	nh := d.bfs(dst, nil)
	d.detour[dst] = nh
	return nh
}

// bfs builds a next-hop-towards-dst table over the surviving links,
// additionally skipping links for which down reports true (down may be
// nil). Runs in O(V + E); results for a nil down set are cacheable.
func (d *Degraded) bfs(dst int32, down func(int32) bool) []int32 {
	nh := make([]int32, d.base.NumVertices())
	for i := range nh {
		nh[i] = -1
	}
	seen := make([]bool, len(nh))
	seen[dst] = true
	queue := make([]int32, 0, 64)
	queue = append(queue, dst)
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		for _, h := range d.inHops[d.inStart[w]:d.inStart[w+1]] {
			u := h.To // in-edge source
			if seen[u] || (down != nil && down(h.Link)) {
				continue
			}
			seen[u] = true
			nh[u] = h.Link
			queue = append(queue, u)
		}
	}
	return nh
}

func (d *Degraded) count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}
