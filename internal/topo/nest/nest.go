// Package nest implements the paper's hybrid multi-tier topologies:
// a population of disjoint 3D subtori (the hardware-imposed ExaNeSt lower
// tier) nested under an upper-tier switch fabric — a fattree (NestTree) or
// a generalised hypercube (NestGHC).
//
// Two parameters govern the hybrid, exactly as in the paper:
//
//   - t: nodes per dimension of each subtorus (subtori are t×t×t islands,
//     arbitrary shapes are also supported),
//
//   - u: uplink density — one uplink for every u QFDBs, u ∈ {1, 2, 4, 8},
//     following the connection rules of Fig. 3:
//
//     u=1: every QFDB has an uplink.
//     u=2: QFDBs with even X coordinate have uplinks; odd-X QFDBs reach
//     theirs with a single -X hop.
//     u=4: the two opposite vertices of every 2×2×2 subgrid are uplinked;
//     every other node is one hop from one of them.
//     u=8: the root (origin) of every 2×2×2 subgrid is uplinked.
//
// Routing is the paper's three-phase hierarchical scheme: traffic within a
// subtorus stays inside it (dimension-order routing); traffic between
// subtori goes source → nearest uplinked node (DOR) → upper fabric
// (minimal fabric routing) → uplinked node nearest the destination → DOR to
// the destination.
//
// The link-id space is tier-ordered and closed-form: all subtorus cables
// first (islands are identical, so island s's cables are island 0's
// translated by s·cablesPerIsland), then one uplink cable per fabric port,
// then the fabric cables in the fabric's SwitchCables() order. Every link
// id is computable on demand from the fabric's closed-form cable index, so
// the link table is only built if Links() is called, and intra-island
// route segments are memoised by (source-class, destination-class) — the
// local-rank pair — and translated per island.
package nest

import (
	"fmt"
	"sync"

	"mtier/internal/grid"
	"mtier/internal/topo"
	"mtier/internal/topo/torus"
)

// Nest is a hybrid two-tier topology.
type Nest struct {
	sub     grid.Shape  // subtorus shape
	subCod  torus.Coder // closed-form link ids of one island
	numSub  int
	u       int
	fabric  topo.Fabric
	name    string
	nodes   int     // QFDBs = numSub * sub.Size()
	swBase  int     // vertex id of fabric switch 0
	localN  int     // sub.Size()
	upLocal []int32 // local ranks that carry an uplink, ascending
	// portOf[localRank] = index of that rank within upLocal, or -1.
	portOf []int32
	// nearest[localRank] = local rank of the designated uplinked node.
	nearest []int32
	// maxToUp = max hops from any local rank to its designated uplink.
	maxToUp int
	// cablesPerIsland = subtorus cables of one island.
	cablesPerIsland int
	// Tier boundaries in the link-id space. Links are built in strict
	// tier order (subtorus links, then uplinks, then fabric cables), so a
	// link's tier is determined by its id range: [0, lowerEnd) subtorus,
	// [lowerEnd, uplinkEnd) uplink, [uplinkEnd, NumLinks) fabric.
	lowerEnd, uplinkEnd int
	numLinks            int

	// segs memoises island-0 DOR segments keyed by the (fromLocal,
	// toLocal) class pair; per-island routes are the cached segment
	// translated by the island's link-id base.
	segs sync.Map

	cablesOnce sync.Once
	cables     [][2]int32 // fabric SwitchCables, cached for LinkEnds

	once sync.Once
	net  *topo.Net // materialised link table; nil until first needed
}

// New builds a hybrid topology of numSub subtori of the given shape, with
// one uplink per u QFDBs, attached to the supplied upper-tier fabric. The
// fabric must offer at least numSub*sub.Size()/u endpoint ports. Link ids
// are computed on demand; the link table is only built if Links() is
// called.
func New(sub grid.Shape, numSub, u int, fabric topo.Fabric) (*Nest, error) {
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	if len(sub) != 3 {
		return nil, fmt.Errorf("nest: subtorus must be 3-dimensional, got %v", sub)
	}
	if numSub < 1 {
		return nil, fmt.Errorf("nest: need at least one subtorus, got %d", numSub)
	}
	switch u {
	case 1:
	case 2, 4, 8:
		for d, k := range sub {
			if k%2 != 0 {
				return nil, fmt.Errorf("nest: u=%d needs even subtorus dimensions, dimension %d is %d", u, d, k)
			}
		}
	default:
		return nil, fmt.Errorf("nest: unsupported uplink density u=%d (want 1, 2, 4 or 8)", u)
	}
	n := &Nest{
		sub:    append(grid.Shape(nil), sub...),
		subCod: torus.NewCoder(sub),
		numSub: numSub,
		u:      u,
		fabric: fabric,
		localN: sub.Size(),
	}
	n.nodes = numSub * n.localN
	uplinks := n.nodes / u
	if fabric.NumEndpointPorts() < uplinks {
		return nil, fmt.Errorf("nest: fabric %s offers %d ports, need %d", fabric.Name(), fabric.NumEndpointPorts(), uplinks)
	}
	n.name = fmt.Sprintf("nest[%s x%d,u=%d]+%s", sub, numSub, u, fabric.Name())

	n.computeUplinkPlan()
	if len(n.upLocal)*numSub != uplinks {
		return nil, fmt.Errorf("nest: internal error: %d uplinked ranks per subtorus, want %d", len(n.upLocal), n.localN/u)
	}

	n.swBase = n.nodes
	n.cablesPerIsland = n.subCod.NumCables()
	n.lowerEnd = 2 * n.cablesPerIsland * numSub
	n.uplinkEnd = n.lowerEnd + 2*uplinks
	n.numLinks = n.uplinkEnd + 2*fabric.NumSwitchCables()
	return n, nil
}

func (n *Nest) materialise() {
	net := &topo.Net{}
	net.AddVertices(n.nodes + n.fabric.NumSwitches())

	// Lower tier: torus links inside every subtorus, in the canonical
	// construction order the coder's closed forms reproduce.
	for s := 0; s < n.numSub; s++ {
		n.subCod.Materialise(net, s*n.localN)
	}
	if net.NumLinks() != n.lowerEnd {
		panic(fmt.Sprintf("nest: %d subtorus links, closed form predicts %d", net.NumLinks(), n.lowerEnd))
	}
	// Uplinks: QFDB -> hosting switch.
	for s := 0; s < n.numSub; s++ {
		for i, lr := range n.upLocal {
			port := s*len(n.upLocal) + i
			sw := n.fabric.AttachSwitch(port)
			net.AddDuplex(s*n.localN+int(lr), n.swBase+sw)
		}
	}
	if net.NumLinks() != n.uplinkEnd {
		panic(fmt.Sprintf("nest: %d lower+uplink links, closed form predicts %d", net.NumLinks(), n.uplinkEnd))
	}
	// Upper tier switch cables.
	for _, c := range n.fabric.SwitchCables() {
		net.AddDuplex(n.swBase+int(c[0]), n.swBase+int(c[1]))
	}
	if net.NumLinks() != n.numLinks {
		panic(fmt.Sprintf("nest: %d links, closed form predicts %d", net.NumLinks(), n.numLinks))
	}
	net.Seal()
	n.net = net
}

// computeUplinkPlan fills upLocal, portOf, nearest and maxToUp according to
// the Fig. 3 connection rules.
func (n *Nest) computeUplinkPlan() {
	n.portOf = make([]int32, n.localN)
	n.nearest = make([]int32, n.localN)
	isUp := func(x, y, z int) bool {
		switch n.u {
		case 1:
			return true
		case 2:
			return x%2 == 0
		case 4:
			ox, oy, oz := x%2, y%2, z%2
			return (ox == 0 && oy == 0 && oz == 0) || (ox == 1 && oy == 1 && oz == 1)
		default: // 8
			return x%2 == 0 && y%2 == 0 && z%2 == 0
		}
	}
	designated := func(x, y, z int) (int, int, int) {
		switch n.u {
		case 1:
			return x, y, z
		case 2:
			return x - x%2, y, z
		case 4:
			ox, oy, oz := x%2, y%2, z%2
			if ox+oy+oz <= 1 {
				return x - ox, y - oy, z - oz // subgrid root
			}
			return x - ox + 1, y - oy + 1, z - oz + 1 // opposite vertex
		default: // 8
			return x - x%2, y - y%2, z - z%2
		}
	}
	coord := make([]int, 3)
	for v := 0; v < n.localN; v++ {
		n.sub.CoordInto(v, coord)
		x, y, z := coord[0], coord[1], coord[2]
		if isUp(x, y, z) {
			n.portOf[v] = int32(len(n.upLocal))
			n.upLocal = append(n.upLocal, int32(v))
		} else {
			n.portOf[v] = -1
		}
		dx, dy, dz := designated(x, y, z)
		dr := n.sub.Rank([]int{dx, dy, dz})
		n.nearest[v] = int32(dr)
		if d := n.sub.TorusDist(v, dr); d > n.maxToUp {
			n.maxToUp = d
		}
	}
}

// SubShape returns the subtorus shape.
func (n *Nest) SubShape() grid.Shape { return n.sub }

// NumSubtori returns the number of subtorus islands.
func (n *Nest) NumSubtori() int { return n.numSub }

// U returns the uplink thinning factor.
func (n *Nest) U() int { return n.u }

// Fabric returns the upper-tier fabric.
func (n *Nest) Fabric() topo.Fabric { return n.fabric }

// NumUplinks returns the total number of QFDB uplinks in use.
func (n *Nest) NumUplinks() int { return n.numSub * len(n.upLocal) }

// Name implements topo.Topology.
func (n *Nest) Name() string { return n.name }

// NumEndpoints implements topo.Topology.
func (n *Nest) NumEndpoints() int { return n.nodes }

// NumVertices implements topo.Topology.
func (n *Nest) NumVertices() int { return n.nodes + n.fabric.NumSwitches() }

// NumLinks implements topo.Topology.
func (n *Nest) NumLinks() int { return n.numLinks }

// Links implements topo.Topology, building the table on first call.
func (n *Nest) Links() []topo.Link {
	n.once.Do(n.materialise)
	return n.net.Links()
}

// LinkEnds implements topo.Generative.
func (n *Nest) LinkEnds(id int32) (from, to int32) {
	if id < 0 || int(id) >= n.numLinks {
		panic(fmt.Sprintf("nest: link %d out of range", id))
	}
	switch {
	case int(id) < n.lowerEnd:
		island := int(id) / (2 * n.cablesPerIsland)
		base := int32(island * n.localN)
		f, t := n.subCod.LinkEnds(id % int32(2*n.cablesPerIsland))
		return base + f, base + t
	case int(id) < n.uplinkEnd:
		port := (int(id) - n.lowerEnd) / 2
		island := port / len(n.upLocal)
		qfdb := int32(island*n.localN + int(n.upLocal[port%len(n.upLocal)]))
		sw := int32(n.swBase + n.fabric.AttachSwitch(port))
		if (int(id)-n.lowerEnd)%2 == 0 {
			return qfdb, sw
		}
		return sw, qfdb
	default:
		cable := (int(id) - n.uplinkEnd) / 2
		c := n.cableEnds(int32(cable))
		f := int32(n.swBase) + c[0]
		t := int32(n.swBase) + c[1]
		if (int(id)-n.uplinkEnd)%2 == 0 {
			return f, t
		}
		return t, f
	}
}

// cableEnds resolves fabric cable index to its switch pair. Closed-form
// fabrics regenerate small runs of SwitchCables lazily; to stay O(1) per
// lookup without holding the whole table, the table is cached on first use
// (it is ~16 bytes per cable — two orders of magnitude smaller than the
// link table plus adjacency it replaces).
func (n *Nest) cableEnds(cable int32) [2]int32 {
	n.cablesOnce.Do(func() { n.cables = n.fabric.SwitchCables() })
	return n.cables[cable]
}

// localSeg returns the memoised island-0 DOR link-id segment for a
// (fromLocal, toLocal) class pair.
func (n *Nest) localSeg(from, to int) []int32 {
	key := int64(from)<<32 | int64(uint32(to))
	if v, ok := n.segs.Load(key); ok {
		return v.([]int32)
	}
	seg := n.subCod.DORAppend(make([]int32, 0, 8), from, to, 0, 0)
	v, _ := n.segs.LoadOrStore(key, seg)
	return v.([]int32)
}

// dorAppend appends the dimension-order route between two local ranks of
// subtorus s onto buf: the island-0 segment of the class pair, translated
// by the island's link-id base.
func (n *Nest) dorAppend(buf []int32, s, fromLocal, toLocal int) []int32 {
	base := int32(s * 2 * n.cablesPerIsland)
	for _, id := range n.localSeg(fromLocal, toLocal) {
		buf = append(buf, base+id)
	}
	return buf
}

// uplinkUp returns the QFDB→switch link id of fabric port p.
func (n *Nest) uplinkUp(p int) int32 { return int32(n.lowerEnd + 2*p) }

// uplinkDown returns the switch→QFDB link id of fabric port p.
func (n *Nest) uplinkDown(p int) int32 { return int32(n.lowerEnd + 2*p + 1) }

// fabricLink returns the link id of the hop between adjacent fabric
// switches x and y (fabric-local ids).
func (n *Nest) fabricLink(x, y int32) int32 {
	cable, forward := n.fabric.SwitchCableBetween(x, y)
	id := int32(n.uplinkEnd) + 2*cable
	if !forward {
		id++
	}
	return id
}

// RouteAppend implements topo.Topology with the paper's three-phase
// hierarchical routing.
func (n *Nest) RouteAppend(buf []int32, src, dst int) []int32 {
	if src < 0 || src >= n.nodes || dst < 0 || dst >= n.nodes {
		panic(fmt.Sprintf("nest: endpoint out of range: %d -> %d", src, dst))
	}
	if src == dst {
		return buf
	}
	sSub, sLoc := src/n.localN, src%n.localN
	dSub, dLoc := dst/n.localN, dst%n.localN
	if sSub == dSub {
		// Intra-subtorus traffic never leaves the island.
		return n.dorAppend(buf, sSub, sLoc, dLoc)
	}
	aLoc := int(n.nearest[sLoc])
	bLoc := int(n.nearest[dLoc])
	buf = n.dorAppend(buf, sSub, sLoc, aLoc)
	aPort := sSub*len(n.upLocal) + int(n.portOf[aLoc])
	bPort := dSub*len(n.upLocal) + int(n.portOf[bLoc])
	buf = append(buf, n.uplinkUp(aPort))
	// Fabric switch path (fabric-local ids, first element == aSw).
	var spBuf [16]int32
	sp := n.fabric.SwitchPathAppend(spBuf[:0], aPort, bPort)
	for i := 1; i < len(sp); i++ {
		buf = append(buf, n.fabricLink(sp[i-1], sp[i]))
	}
	buf = append(buf, n.uplinkDown(bPort))
	if bLoc != dLoc {
		buf = n.dorAppend(buf, dSub, bLoc, dLoc)
	}
	return buf
}

// Distance returns the hop count of the deterministic route without
// materialising it.
func (n *Nest) Distance(src, dst int) int {
	if src == dst {
		return 0
	}
	sSub, sLoc := src/n.localN, src%n.localN
	dSub, dLoc := dst/n.localN, dst%n.localN
	if sSub == dSub {
		return n.sub.TorusDist(sLoc, dLoc)
	}
	aLoc := int(n.nearest[sLoc])
	bLoc := int(n.nearest[dLoc])
	aPort := sSub*len(n.upLocal) + int(n.portOf[aLoc])
	bPort := dSub*len(n.upLocal) + int(n.portOf[bLoc])
	d := n.sub.TorusDist(sLoc, aLoc) + 1 +
		n.fabric.SwitchDistance(aPort, bPort) +
		1 + n.sub.TorusDist(bLoc, dLoc)
	return d
}

// Diameter returns the maximum route length between endpoints, composed
// from the lower-tier and fabric diameters. With more than one subtorus the
// worst case is inter-subtorus; with a single subtorus it is the torus
// diameter.
func (n *Nest) Diameter() int {
	intra := n.sub.TorusDiameter()
	if n.numSub == 1 {
		return intra
	}
	inter := n.maxToUp + 1 + n.fabric.SwitchDiameter() + 1 + n.maxToUp
	if intra > inter {
		return intra
	}
	return inter
}

// AvgDistance returns the exact mean route length over ordered distinct
// endpoint pairs, decomposed by the hierarchy: intra-island pairs follow
// the subtorus closed form; inter-island pairs add the source's hops to
// its designated uplink, the two uplink hops, the fabric switch distance
// and the destination's hops from its uplink. Every uplinked rank serves
// exactly u locals, so the fabric term is u² times the port-pair distance
// sum, with same-island port pairs (which never ride the fabric together)
// subtracted island by island.
func (n *Nest) AvgDistance() float64 {
	nn := float64(n.nodes)
	if n.numSub == 1 {
		// Single island: pure subtorus; TorusAvgDist averages over ordered
		// pairs including self, so rescale to distinct pairs.
		return n.sub.TorusAvgDist() * nn * nn / (nn * (nn - 1))
	}
	localN := float64(n.localN)
	subs := float64(n.numSub)
	// Intra-island ordered distinct pairs: self-pairs contribute 0 to the
	// sum, so localN²·mean-including-self is the distinct-pair sum.
	intraSum := subs * localN * localN * n.sub.TorusAvgDist()
	// Hops from each local rank to its designated uplink.
	toUpSum := 0.0
	for v := 0; v < n.localN; v++ {
		toUpSum += float64(n.sub.TorusDist(v, int(n.nearest[v])))
	}
	interPairs := subs * (subs - 1) * localN * localN
	interSum := 2*interPairs + 2*subs*(subs-1)*localN*toUpSum
	// Fabric term: sum of SwitchDistance over ordered port pairs on
	// different islands, weighted u² (each port serves u locals).
	allSum := n.fabric.PortPairDistanceSum()
	sameIsland := 0.0
	perIsland := len(n.upLocal)
	for s := 0; s < n.numSub; s++ {
		base := s * perIsland
		for a := 0; a < perIsland; a++ {
			for b := 0; b < perIsland; b++ {
				sameIsland += float64(n.fabric.SwitchDistance(base+a, base+b))
			}
		}
	}
	u := float64(n.u)
	interSum += u * u * (allSum - sameIsland)
	return (intraSum + interSum) / (nn * (nn - 1))
}

// MaxHopsToUplink returns the worst-case lower-tier hops from a QFDB to its
// designated uplinked node (0 for u=1, 1 for u=2 and u=4, 3 for u=8).
func (n *Nest) MaxHopsToUplink() int { return n.maxToUp }

// NumTiers implements topo.Tiered: subtorus links, uplinks, fabric cables.
func (n *Nest) NumTiers() int { return 3 }

// TierName implements topo.Tiered.
func (n *Nest) TierName(tier int) string {
	switch tier {
	case 0:
		return "subtorus"
	case 1:
		return "uplink"
	case 2:
		return "fabric"
	}
	panic(fmt.Sprintf("nest: tier %d out of range", tier))
}

// LinkTier implements topo.Tiered by range over the construction-ordered
// link id space.
func (n *Nest) LinkTier(link int32) int {
	if link < 0 || int(link) >= n.numLinks {
		panic(fmt.Sprintf("nest: link %d out of range", link))
	}
	switch {
	case int(link) < n.lowerEnd:
		return 0
	case int(link) < n.uplinkEnd:
		return 1
	default:
		return 2
	}
}

var _ topo.Topology = (*Nest)(nil)
var _ topo.Tiered = (*Nest)(nil)
var _ topo.Generative = (*Nest)(nil)
