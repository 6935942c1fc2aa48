// Package ghc implements the Generalised Hypercube of Bhuyan & Agrawal
// with deterministic e-cube routing, adapted — as in the paper and in the
// spirit of BCube — for switch-based deployment: switches sit on the points
// of a mixed-radix grid, each dimension is a complete graph (every switch
// is directly cabled to every other switch sharing all remaining
// coordinates), and a fixed number of endpoints concentrate on each switch.
//
// The link-id space is closed-form: host cable e (endpoint e to its
// switch) occupies links 2e and 2e+1; switch cables follow, ordered by
// owning switch ascending, dimension ascending, far coordinate ascending —
// which is exactly the construction order of the stored table. Link ids
// are computed on demand; the table is only built if Links() is called.
package ghc

import (
	"fmt"
	"sort"
	"sync"

	"mtier/internal/grid"
	"mtier/internal/topo"
)

// GHC is a generalised hypercube of switches with endpoint concentration.
type GHC struct {
	dims   grid.Shape
	stride []int // stride[d] = product of dims below d
	conc   int   // endpoints per switch
	name   string

	numSwitches  int
	numEndpoints int
	swBase       int // vertex id of switch 0

	// swCableBase[s] = switch cables owned by switches < s; switch s owns
	// one cable per dimension d and far coordinate v in
	// (coord_d(s), k_d): cables to every higher-coordinate switch of each
	// of its rings, in (d, v) order.
	swCableBase []int32

	once sync.Once
	net  *topo.Net // materialised link table; nil until first needed
}

// New builds a GHC with the given per-dimension sizes and endpoints per
// switch. A GHC with dims {8,8,8,16} and conc 16 hosts the paper-scale
// 131,072 endpoints on 8,192 switches. Link ids are computed on demand;
// the link table is only built if Links() is called.
func New(dims grid.Shape, conc int) (*GHC, error) {
	if err := dims.Validate(); err != nil {
		return nil, err
	}
	if conc < 1 {
		return nil, fmt.Errorf("ghc: concentration must be >= 1, got %d", conc)
	}
	g := &GHC{
		dims: append(grid.Shape(nil), dims...),
		conc: conc,
		name: fmt.Sprintf("ghc-%s(c%d)", dims, conc),
	}
	g.stride = make([]int, dims.Dims())
	st := 1
	for d, k := range dims {
		g.stride[d] = st
		st *= k
	}
	g.numSwitches = dims.Size()
	g.numEndpoints = conc * g.numSwitches
	g.swBase = g.numEndpoints

	g.swCableBase = make([]int32, g.numSwitches+1)
	cables := int32(0)
	for s := 0; s < g.numSwitches; s++ {
		g.swCableBase[s] = cables
		for d, k := range dims {
			cables += int32(k - 1 - (s/g.stride[d])%k)
		}
	}
	g.swCableBase[g.numSwitches] = cables
	return g, nil
}

func (g *GHC) materialise() {
	net := &topo.Net{}
	net.AddVertices(g.numEndpoints + g.numSwitches)
	// Host links.
	for ep := 0; ep < g.numEndpoints; ep++ {
		net.AddDuplex(ep, g.swBase+ep/g.conc)
	}
	// Dimension links: each dimension is a complete graph among switches
	// sharing the remaining coordinates. Add each cable once (lower
	// coordinate first).
	coord := make([]int, g.dims.Dims())
	for s := 0; s < g.numSwitches; s++ {
		g.dims.CoordInto(s, coord)
		for d, k := range g.dims {
			orig := coord[d]
			for v := orig + 1; v < k; v++ {
				coord[d] = v
				net.AddDuplex(g.swBase+s, g.swBase+g.dims.Rank(coord))
			}
			coord[d] = orig
		}
	}
	net.Seal()
	g.net = net
}

// swCable returns the index (in the switch-cable space) of the cable
// joining adjacent switches x and y, which must differ in exactly
// dimension d, and whether x is its owner (the lower-coordinate end the
// forward link leaves from).
func (g *GHC) swCable(x, y, d int) (cable int32, fromOwner bool) {
	k := g.dims[d]
	cx := (x / g.stride[d]) % k
	cy := (y / g.stride[d]) % k
	if cx > cy {
		x, cx, cy, fromOwner = y, cy, cx, false
	} else {
		fromOwner = true
	}
	off := int32(0)
	for d2 := 0; d2 < d; d2++ {
		off += int32(g.dims[d2] - 1 - (x/g.stride[d2])%g.dims[d2])
	}
	return g.swCableBase[x] + off + int32(cy-cx-1), fromOwner
}

// hostUp returns the endpoint→switch link id of endpoint ep.
func (g *GHC) hostUp(ep int) int32 { return int32(2 * ep) }

// hostDown returns the switch→endpoint link id of endpoint ep.
func (g *GHC) hostDown(ep int) int32 { return int32(2*ep + 1) }

// swLink returns the link id of the hop between adjacent switches x and y
// differing in dimension d.
func (g *GHC) swLink(x, y, d int) int32 {
	cable, fromOwner := g.swCable(x, y, d)
	id := int32(2*g.numEndpoints) + 2*cable
	if !fromOwner {
		id++
	}
	return id
}

// Dims returns the switch-grid shape.
func (g *GHC) Dims() grid.Shape { return g.dims }

// Concentration returns the endpoints per switch.
func (g *GHC) Concentration() int { return g.conc }

// Name implements topo.Topology.
func (g *GHC) Name() string { return g.name }

// NumEndpoints implements topo.Topology.
func (g *GHC) NumEndpoints() int { return g.numEndpoints }

// NumVertices implements topo.Topology.
func (g *GHC) NumVertices() int { return g.numEndpoints + g.numSwitches }

// NumLinks implements topo.Topology.
func (g *GHC) NumLinks() int {
	return 2 * (g.numEndpoints + int(g.swCableBase[g.numSwitches]))
}

// Links implements topo.Topology, building the table on first call.
func (g *GHC) Links() []topo.Link {
	g.once.Do(g.materialise)
	return g.net.Links()
}

// LinkEnds implements topo.Generative.
func (g *GHC) LinkEnds(id int32) (from, to int32) {
	if id < 0 || int(id) >= g.NumLinks() {
		panic(fmt.Sprintf("ghc: link id %d out of range", id))
	}
	cable := int(id) / 2
	if cable < g.numEndpoints {
		ep, sw := int32(cable), int32(g.swBase+cable/g.conc)
		if id%2 == 0 {
			return ep, sw
		}
		return sw, ep
	}
	c := int32(cable - g.numEndpoints)
	// Largest s with swCableBase[s] <= c.
	s := sort.Search(g.numSwitches, func(i int) bool { return g.swCableBase[i+1] > c })
	off := c - g.swCableBase[s]
	for d, k := range g.dims {
		cd := (s / g.stride[d]) % k
		cnt := int32(k - 1 - cd)
		if off < cnt {
			other := s + (int(off)+1)*g.stride[d]
			a, b := int32(g.swBase+s), int32(g.swBase+other)
			if id%2 == 0 {
				return a, b
			}
			return b, a
		}
		off -= cnt
	}
	panic(fmt.Sprintf("ghc: link id %d out of range", id))
}

// RouteAppend implements topo.Topology: host link up, e-cube across the
// switch grid (dimensions corrected in order, one hop each), host link down.
func (g *GHC) RouteAppend(buf []int32, src, dst int) []int32 {
	return g.RouteChoiceAppend(buf, src, dst, 0)
}

// NumRouteChoices implements topo.MultiRouter: one minimal candidate per
// rotation of the dimension-correction order (Young & Yalamanchili-style
// adaptivity at flow granularity).
func (g *GHC) NumRouteChoices() int { return g.dims.Dims() }

// RouteChoiceAppend implements topo.MultiRouter.
func (g *GHC) RouteChoiceAppend(buf []int32, src, dst, choice int) []int32 {
	if src < 0 || src >= g.numEndpoints || dst < 0 || dst >= g.numEndpoints {
		panic(fmt.Sprintf("ghc: endpoint out of range: %d -> %d", src, dst))
	}
	if src == dst {
		return buf
	}
	s1, s2 := src/g.conc, dst/g.conc
	buf = append(buf, g.hostUp(src))
	cur := s1
	dims := g.dims.Dims()
	for i := 0; i < dims; i++ {
		d := (i + choice) % dims
		k := g.dims[d]
		stride := g.stride[d]
		ca := (s1 / stride) % k
		cb := (s2 / stride) % k
		if ca != cb {
			next := cur + (cb-ca)*stride
			buf = append(buf, g.swLink(cur, next, d))
			cur = next
		}
	}
	return append(buf, g.hostDown(dst))
}

// Distance returns the hop count of the deterministic route.
func (g *GHC) Distance(src, dst int) int {
	if src == dst {
		return 0
	}
	return 2 + g.hamming(src/g.conc, dst/g.conc)
}

func (g *GHC) hamming(s1, s2 int) int {
	h := 0
	for _, k := range g.dims {
		if s1%k != s2%k {
			h++
		}
		s1 /= k
		s2 /= k
	}
	return h
}

// Diameter returns the maximum endpoint-to-endpoint route length.
func (g *GHC) Diameter() int { return 2 + g.SwitchDiameter() }

// AvgDistance returns the exact mean route length over ordered distinct
// endpoint pairs.
func (g *GHC) AvgDistance() float64 {
	n := float64(g.numEndpoints)
	s := float64(g.numSwitches)
	c := float64(g.conc)
	// Same-switch distinct pairs travel 2 hops.
	total := n * (c - 1) * 2
	// Different-switch pairs: 2 + expected hamming distance.
	hamSum := 0.0 // sum of hamming over all ordered switch pairs
	for _, k := range g.dims {
		hamSum += s * s * (1 - 1/float64(k))
	}
	total += c * c * (2*s*(s-1) + hamSum)
	return total / (n * (n - 1))
}

// --- topo.Fabric implementation ---

// NumSwitches implements topo.Fabric.
func (g *GHC) NumSwitches() int { return g.numSwitches }

// NumEndpointPorts implements topo.Fabric.
func (g *GHC) NumEndpointPorts() int { return g.numEndpoints }

// AttachSwitch implements topo.Fabric.
func (g *GHC) AttachSwitch(ep int) int { return ep / g.conc }

// SwitchCables implements topo.Fabric, generated directly in the
// closed-form cable order (owning switch, dimension, far coordinate)
// without building the link table.
func (g *GHC) SwitchCables() [][2]int32 {
	out := make([][2]int32, 0, g.swCableBase[g.numSwitches])
	for s := 0; s < g.numSwitches; s++ {
		for d, k := range g.dims {
			cd := (s / g.stride[d]) % k
			for v := cd + 1; v < k; v++ {
				out = append(out, [2]int32{int32(s), int32(s + (v-cd)*g.stride[d])})
			}
		}
	}
	return out
}

// NumSwitchCables implements topo.Fabric.
func (g *GHC) NumSwitchCables() int { return int(g.swCableBase[g.numSwitches]) }

// SwitchCableBetween implements topo.Fabric.
func (g *GHC) SwitchCableBetween(a, b int32) (cable int32, forward bool) {
	x, y := int(a), int(b)
	for d, k := range g.dims {
		if (x/g.stride[d])%k != (y/g.stride[d])%k {
			return g.swCable(x, y, d)
		}
	}
	panic(fmt.Sprintf("ghc: switches %d and %d are not adjacent", a, b))
}

// PortPairDistanceSum implements topo.Fabric: the sum of
// SwitchDistance (switch-coordinate hamming distance) over all ordered
// port pairs, conc² per ordered switch pair.
func (g *GHC) PortPairDistanceSum() float64 {
	s := float64(g.numSwitches)
	c := float64(g.conc)
	sum := 0.0
	for _, k := range g.dims {
		sum += s * s * (1 - 1/float64(k))
	}
	return c * c * sum
}

// SwitchPathAppend implements topo.Fabric with e-cube order between the
// ports' switches.
func (g *GHC) SwitchPathAppend(buf []int32, srcPort, dstPort int) []int32 {
	a, b := srcPort/g.conc, dstPort/g.conc
	buf = append(buf, int32(a))
	cur := a
	x, y := a, b
	stride := 1
	for _, k := range g.dims {
		cx, cy := x%k, y%k
		if cx != cy {
			cur += (cy - cx) * stride
			buf = append(buf, int32(cur))
		}
		x /= k
		y /= k
		stride *= k
	}
	return buf
}

// SwitchDistance implements topo.Fabric: the hamming distance between the
// ports' switch coordinates.
func (g *GHC) SwitchDistance(srcPort, dstPort int) int {
	return g.hamming(srcPort/g.conc, dstPort/g.conc)
}

// SwitchDiameter implements topo.Fabric: the number of non-degenerate
// dimensions.
func (g *GHC) SwitchDiameter() int {
	d := 0
	for _, k := range g.dims {
		if k > 1 {
			d++
		}
	}
	return d
}

var (
	_ topo.Topology    = (*GHC)(nil)
	_ topo.Fabric      = (*GHC)(nil)
	_ topo.MultiRouter = (*GHC)(nil)
	_ topo.Generative  = (*GHC)(nil)
)
