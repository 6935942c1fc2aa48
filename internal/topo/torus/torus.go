// Package torus implements the d-dimensional torus topology with
// deterministic dimension-order routing (DOR), the topology historically
// used by massively parallel processors (Blue Gene, Cray, Tofu) and the
// hard-wired lower tier of the ExaNeSt architecture.
//
// Every vertex is both an endpoint and a router: a QFDB forwards transit
// traffic through its backplane ports. Rings of size 2 get a single cable
// (the +1 and -1 neighbours coincide); rings of size 1 get none.
//
// Link ids are computed on demand from the closed-form cable arithmetic
// of Coder; the stored link table is only built if Links() is called.
package torus

import (
	"fmt"
	"sync"

	"mtier/internal/grid"
	"mtier/internal/topo"
)

// Coder computes the closed-form link ids of a torus built in the
// canonical construction order: vertices ascending, each vertex adding the
// +1 cable of every eligible dimension in dimension order. A dimension is
// eligible at a vertex unless its ring has size 1, or size 2 with
// coordinate 1 (that single cable belongs to the coordinate-0 end). Cable
// m yields directed links 2m (the +1 direction) and 2m+1 (the reverse),
// exactly as Net.AddDuplex numbers them.
type Coder struct {
	shape  grid.Shape
	stride []int
	full   int   // dimensions with k > 2: one cable per vertex each
	k2     []int // dimensions with k == 2, ascending
}

// NewCoder builds the link-id coder for a torus shape.
func NewCoder(shape grid.Shape) Coder {
	c := Coder{shape: append(grid.Shape(nil), shape...)}
	c.stride = make([]int, shape.Dims())
	s := 1
	for d, k := range shape {
		c.stride[d] = s
		s *= k
		switch {
		case k > 2:
			c.full++
		case k == 2:
			c.k2 = append(c.k2, d)
		}
	}
	return c
}

// NumCables returns the total cable count of the torus.
func (c *Coder) NumCables() int { return c.cableBase(c.shape.Size()) }

// cableBase returns how many cables are added by vertices < v: one per
// k>2 dimension each, plus one per k==2 dimension for every vertex with
// coordinate 0 there.
func (c *Coder) cableBase(v int) int {
	base := v * c.full
	for _, d := range c.k2 {
		s := c.stride[d]
		// Coordinate-0 vertices of a k==2 ring come in runs of `stride`
		// every 2·stride vertices.
		base += v / (2 * s) * s
		if r := v % (2 * s); r < s {
			base += r
		} else {
			base += s
		}
	}
	return base
}

// cable returns the cable index owned by vertex v in dimension d. The
// vertex must be eligible in d (k > 1, and coordinate 0 when k == 2).
func (c *Coder) cable(v, d int) int {
	off := 0
	for d2 := 0; d2 < d; d2++ {
		k := c.shape[d2]
		if k == 1 || (k == 2 && (v/c.stride[d2])%2 == 1) {
			continue
		}
		off++
	}
	return c.cableBase(v) + off
}

// HopLink returns the link id of the hop from cur to next, which must be
// adjacent along dimension d with next = cur + step·stride[d] (wrapped);
// positive reports the ring direction of the step.
func (c *Coder) HopLink(cur, next, d int, positive bool) int32 {
	if positive {
		k := c.shape[d]
		if k > 2 || (cur/c.stride[d])%k == 0 {
			return int32(2 * c.cable(cur, d))
		}
		// k == 2 from coordinate 1: the wrap traverses the single cable,
		// owned by the coordinate-0 end, in reverse.
		return int32(2*c.cable(next, d) + 1)
	}
	return int32(2*c.cable(next, d) + 1)
}

// DORAppend appends the dimension-order route from src to dst (vertex
// ranks within the shape): dimensions are corrected starting at dimension
// `choice`, wrapping, always travelling the shorter way around each ring
// (ties positive). Each appended link id is offset by linkBase, which lets
// hierarchical topologies embed identical sub-tori at per-island id
// offsets.
func (c *Coder) DORAppend(buf []int32, src, dst, choice int, linkBase int32) []int32 {
	dims := c.shape.Dims()
	cur := src
	for i := 0; i < dims; i++ {
		d := (i + choice) % dims
		k := c.shape[d]
		stride := c.stride[d]
		ca := (src / stride) % k
		cb := (dst / stride) % k
		delta := grid.WrapDelta(ca, cb, k)
		step := stride
		positive := true
		if delta < 0 {
			step, delta, positive = -stride, -delta, false
		}
		for h := 0; h < delta; h++ {
			cc := (cur / stride) % k
			next := cur + step
			if positive && cc == k-1 {
				next = cur - (k-1)*stride
			} else if !positive && cc == 0 {
				next = cur + (k-1)*stride
			}
			buf = append(buf, linkBase+c.HopLink(cur, next, d, positive))
			cur = next
		}
	}
	return buf
}

// LinkEnds returns the endpoints of directed link id (vertex ranks within
// the shape). The cable index id/2 is inverted to its owning (vertex,
// dimension) by binary search over the monotone cableBase.
func (c *Coder) LinkEnds(id int32) (from, to int32) {
	cable := int(id) / 2
	// Largest v with cableBase(v) <= cable.
	lo, hi := 0, c.shape.Size()
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.cableBase(mid) <= cable {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	v := lo
	off := cable - c.cableBase(v)
	for d, k := range c.shape {
		if k == 1 || (k == 2 && (v/c.stride[d])%2 == 1) {
			continue
		}
		if off == 0 {
			w := v + c.stride[d]
			if (v/c.stride[d])%k == k-1 {
				w = v - (k-1)*c.stride[d]
			}
			if id%2 == 0 {
				return int32(v), int32(w)
			}
			return int32(w), int32(v)
		}
		off--
	}
	panic(fmt.Sprintf("torus: link id %d out of range", id))
}

// Materialise replays the canonical construction order into a Net whose
// vertices [vertexBase, vertexBase+Size) host the torus.
func (c *Coder) Materialise(net *topo.Net, vertexBase int) {
	n := c.shape.Size()
	coord := make([]int, c.shape.Dims())
	for v := 0; v < n; v++ {
		c.shape.CoordInto(v, coord)
		for d, k := range c.shape {
			if k == 1 {
				continue
			}
			// Add the +1 cable of each ring once, from its lower end.
			if k == 2 && coord[d] == 1 {
				continue // the 0->1 cable was already added from vertex 0
			}
			orig := coord[d]
			coord[d] = (orig + 1) % k
			net.AddDuplex(vertexBase+v, vertexBase+c.shape.Rank(coord))
			coord[d] = orig
		}
	}
}

// Torus is a wrap-around mesh over an arbitrary mixed-radix shape.
type Torus struct {
	shape grid.Shape
	name  string
	cod   Coder

	once sync.Once
	net  *topo.Net // materialised link table; nil until first needed
}

// New builds a torus over the given shape, e.g. grid.Shape{64, 64, 32}
// for the paper's 131,072-QFDB reference system. Link ids are computed on
// demand; the link table is only built if Links() is called.
func New(shape grid.Shape) (*Torus, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	return &Torus{
		shape: append(grid.Shape(nil), shape...),
		name:  fmt.Sprintf("torus-%s", shape),
		cod:   NewCoder(shape),
	}, nil
}

func (t *Torus) materialise() {
	net := &topo.Net{}
	net.AddVertices(t.shape.Size())
	t.cod.Materialise(net, 0)
	net.Seal()
	t.net = net
}

// Shape returns the torus dimensions.
func (t *Torus) Shape() grid.Shape { return t.shape }

// Name implements topo.Topology.
func (t *Torus) Name() string { return t.name }

// NumEndpoints implements topo.Topology.
func (t *Torus) NumEndpoints() int { return t.shape.Size() }

// NumVertices implements topo.Topology.
func (t *Torus) NumVertices() int { return t.shape.Size() }

// NumLinks implements topo.Topology.
func (t *Torus) NumLinks() int { return 2 * t.cod.NumCables() }

// Links implements topo.Topology, building the table on first call.
func (t *Torus) Links() []topo.Link {
	t.once.Do(t.materialise)
	return t.net.Links()
}

// LinkEnds implements topo.Generative.
func (t *Torus) LinkEnds(id int32) (from, to int32) {
	if id < 0 || int(id) >= t.NumLinks() {
		panic(fmt.Sprintf("torus: link id %d out of range", id))
	}
	return t.cod.LinkEnds(id)
}

// RouteAppend implements topo.Topology using dimension-order routing:
// dimension 0 is fully corrected first, then dimension 1, and so on, always
// travelling the shorter way around each ring (ties go the positive way).
func (t *Torus) RouteAppend(buf []int32, src, dst int) []int32 {
	return t.RouteChoiceAppend(buf, src, dst, 0)
}

// NumRouteChoices implements topo.MultiRouter: one candidate per rotation
// of the dimension-correction order.
func (t *Torus) NumRouteChoices() int { return t.shape.Dims() }

// RouteChoiceAppend implements topo.MultiRouter: candidate `choice`
// corrects dimensions starting at dimension choice mod d, wrapping — all
// candidates are minimal.
func (t *Torus) RouteChoiceAppend(buf []int32, src, dst, choice int) []int32 {
	if src < 0 || src >= t.NumEndpoints() || dst < 0 || dst >= t.NumEndpoints() {
		panic(fmt.Sprintf("torus: endpoint out of range: %d -> %d", src, dst))
	}
	return t.cod.DORAppend(buf, src, dst, choice, 0)
}

// Distance returns the hop count of the DOR route, which equals the wrapped
// Manhattan distance.
func (t *Torus) Distance(src, dst int) int { return t.shape.TorusDist(src, dst) }

// Diameter returns the maximum route length between endpoints.
func (t *Torus) Diameter() int { return t.shape.TorusDiameter() }

// AvgDistance returns the exact mean route length over all ordered pairs.
func (t *Torus) AvgDistance() float64 { return t.shape.TorusAvgDist() }

var (
	_ topo.Topology    = (*Torus)(nil)
	_ topo.MultiRouter = (*Torus)(nil)
	_ topo.Generative  = (*Torus)(nil)
)
