// Package fattree implements the k-ary n-tree of Petrini & Vanneschi and
// its generalisation (per-stage arities, in the spirit of the gtree of
// Navaridas et al.), with deterministic minimal UP*/DOWN* routing.
//
// The construction follows the XGFT labelling. A tree with n stages has
// down-arities m[0..n-1] and up-multiplicities w[0..n-1] (w[0] must be 1:
// each endpoint attaches to exactly one leaf switch). Level 0 holds the
// E = Πm endpoints; levels 1..n hold switches. A level-i node is labelled
//
//	( a_{i+1}, ..., a_n ; b_1, ..., b_i )   a_j ∈ [0,m_j), b_j ∈ [0,w_j)
//
// and is cabled to the level-(i+1) nodes obtained by removing a_{i+1} and
// appending any b_{i+1}. Each level-i switch therefore has m_i down-ports
// and w_{i+1} up-ports. Choosing w_{i+1} = m_i yields the fully-provisioned
// (non-blocking) fattree used in the paper, which applies no
// over-subscription.
//
// Routing ascends to the nearest common ancestor level, picking up-port
// b_i = a_{i-1}(dst) mod w_i — the classic deterministic D-mod-k scheme
// that selects among parents using the destination digits *below* the
// ascent level. In a fully-provisioned tree this maps every destination's
// inbound traffic onto its own dedicated down-path (no two destinations
// share a down-link), which is what makes the fattree non-blocking for
// admissible traffic. The descent follows the destination digits.
//
// The link-id space is closed-form: cables are ordered by level ascending,
// then switch (a-rank outer, b-rank inner), then down-port; cable c yields
// the switch→child link 2c and the child→switch link 2c+1. Link ids are
// computed on demand; the link table is only built if Links() is called.
package fattree

import (
	"fmt"
	"strings"
	"sync"

	"mtier/internal/topo"
)

// GTree is a generalized fattree. It implements both topo.Topology (with
// its own endpoint population) and topo.Fabric (switch-level service for
// the hybrid topologies).
type GTree struct {
	m, w []int
	name string

	numEndpoints int
	levelCount   []int // switches per level, index 0 unused
	levelOffset  []int // first vertex id of each switch level, index 0 unused
	numSwitches  int
	numVertices  int

	// aStride[j] = Π_{i<j} m_i: stride of digit a_{j+1}'s... see digitsOf.
	mStride []int
	wStride []int

	// cableBase[i] = cables owned by levels < i (each level-i switch owns
	// its m_{i-1} down cables, in (a, b, down-port) order).
	cableBase []int

	once sync.Once
	net  *topo.Net // materialised link table; nil until first needed
}

// New builds a generalized fattree with the given down-arities and
// up-multiplicities. len(w) == len(m), w[0] == 1. Link ids are computed on
// demand; the link table is only built if Links() is called.
func New(m, w []int) (*GTree, error) {
	n := len(m)
	if n == 0 || len(w) != n {
		return nil, fmt.Errorf("fattree: need matching non-empty arities, got m=%v w=%v", m, w)
	}
	if w[0] != 1 {
		return nil, fmt.Errorf("fattree: w[0] must be 1 (one leaf per endpoint), got %d", w[0])
	}
	for i := 0; i < n; i++ {
		if m[i] < 1 || w[i] < 1 {
			return nil, fmt.Errorf("fattree: arities must be >= 1, got m=%v w=%v", m, w)
		}
	}
	g := &GTree{
		m: append([]int(nil), m...),
		w: append([]int(nil), w...),
	}
	g.name = fmt.Sprintf("gtree-%s", arityString(m, w))

	g.numEndpoints = 1
	for _, v := range m {
		g.numEndpoints *= v
	}
	g.mStride = make([]int, n+1)
	g.wStride = make([]int, n+1)
	g.mStride[0], g.wStride[0] = 1, 1
	for i := 0; i < n; i++ {
		g.mStride[i+1] = g.mStride[i] * m[i]
		g.wStride[i+1] = g.wStride[i] * w[i]
	}

	g.levelCount = make([]int, n+1)
	g.levelOffset = make([]int, n+1)
	g.cableBase = make([]int, n+2)
	offset := g.numEndpoints
	for i := 1; i <= n; i++ {
		// Π_{j>i} m_j × Π_{j<=i} w_j
		cnt := g.wStride[i] * (g.numEndpoints / g.mStride[i])
		g.levelCount[i] = cnt
		g.levelOffset[i] = offset
		offset += cnt
		g.numSwitches += cnt
		g.cableBase[i+1] = g.cableBase[i] + cnt*m[i-1]
	}
	g.numVertices = offset
	return g, nil
}

func (g *GTree) materialise() {
	net := &topo.Net{}
	net.AddVertices(g.numVertices)
	// Cable every level-i switch to its m_i children.
	for i := 1; i <= len(g.m); i++ {
		aCount := g.numEndpoints / g.mStride[i] // digits a_{i+1..n}
		bCount := g.wStride[i]                  // digits b_1..b_i
		for a := 0; a < aCount; a++ {
			for b := 0; b < bCount; b++ {
				sw := g.levelOffset[i] + b + bCount*a
				for ai := 0; ai < g.m[i-1]; ai++ {
					net.AddDuplex(sw, g.child(i, a, b, ai))
				}
			}
		}
	}
	net.Seal()
	g.net = net
}

// child returns the vertex id of down-port ai of the level-i switch with
// a-rank a and b-rank b.
func (g *GTree) child(i, a, b, ai int) int {
	aChild := ai + g.m[i-1]*a // prepend a_i
	if i == 1 {
		return aChild
	}
	bChild := b % g.wStride[i-1] // drop b_i
	return g.levelOffset[i-1] + bChild + g.wStride[i-1]*aChild
}

// cable returns the cable index of down-port ai of the level-i switch with
// a-rank a and b-rank b; links 2·cable (switch→child) and 2·cable+1
// (child→switch) realise it.
func (g *GTree) cable(i, a, b, ai int) int {
	return g.cableBase[i] + (b+g.wStride[i]*a)*g.m[i-1] + ai
}

// NewKaryNTree builds the classic k-ary n-tree: m = (k,...,k),
// w = (1,k,...,k), with k^n endpoints and n·k^(n-1) switches.
func NewKaryNTree(k, n int) (*GTree, error) {
	if k < 1 || n < 1 {
		return nil, fmt.Errorf("fattree: invalid k-ary n-tree k=%d n=%d", k, n)
	}
	m := make([]int, n)
	w := make([]int, n)
	for i := range m {
		m[i] = k
		w[i] = k
	}
	w[0] = 1
	return New(m, w)
}

// thinArities derives the up-multiplicities of the k:k'-ary thin tree.
func thinArities(m []int, slim int) ([]int, error) {
	if slim < 1 {
		return nil, fmt.Errorf("fattree: slimming factor must be >= 1, got %d", slim)
	}
	w := make([]int, len(m))
	if len(m) > 0 {
		w[0] = 1
	}
	for i := 1; i < len(m); i++ {
		if m[i-1]%slim != 0 {
			return nil, fmt.Errorf("fattree: slimming factor %d does not divide arity %d", slim, m[i-1])
		}
		w[i] = m[i-1] / slim
		if w[i] < 1 {
			w[i] = 1
		}
	}
	return w, nil
}

// NewThinTree builds the k:k'-ary n-tree of Navaridas et al. ("Reducing
// complexity in tree-like computer interconnection networks"): a fattree
// whose upward multiplicity is thinned by the slimming factor — every
// level has w[i] = m[i-1]/slim up-links per down-link group, trading
// bisection bandwidth for switches. slim must divide every arity above the
// leaves. slim == 1 is the non-blocking fattree.
func NewThinTree(m []int, slim int) (*GTree, error) {
	w, err := thinArities(m, slim)
	if err != nil {
		return nil, err
	}
	return New(m, w)
}

// nonBlockingArities derives the fully-provisioned up-multiplicities.
func nonBlockingArities(m []int) []int {
	w := make([]int, len(m))
	w[0] = 1
	for i := 1; i < len(m); i++ {
		w[i] = m[i-1]
	}
	return w
}

// NewNonBlocking builds a fully-provisioned tree over the given down-arities
// (w[i] = m[i-1]): every level has as many up-ports as down-ports, the
// no-over-subscription configuration the paper evaluates.
func NewNonBlocking(m []int) (*GTree, error) {
	return New(m, nonBlockingArities(m))
}

func arityString(m, w []int) string {
	parts := make([]string, len(m))
	for i := range m {
		parts[i] = fmt.Sprintf("%d:%d", m[i], w[i])
	}
	return strings.Join(parts, ",")
}

// Stages returns the number of switch stages.
func (g *GTree) Stages() int { return len(g.m) }

// Name implements topo.Topology.
func (g *GTree) Name() string { return g.name }

// NumEndpoints implements topo.Topology.
func (g *GTree) NumEndpoints() int { return g.numEndpoints }

// NumVertices implements topo.Topology.
func (g *GTree) NumVertices() int { return g.numVertices }

// NumLinks implements topo.Topology.
func (g *GTree) NumLinks() int { return 2 * g.cableBase[len(g.m)+1] }

// Links implements topo.Topology, building the table on first call.
func (g *GTree) Links() []topo.Link {
	g.once.Do(g.materialise)
	return g.net.Links()
}

// LinkEnds implements topo.Generative.
func (g *GTree) LinkEnds(id int32) (from, to int32) {
	if id < 0 || int(id) >= g.NumLinks() {
		panic(fmt.Sprintf("fattree: link id %d out of range", id))
	}
	cable := int(id) / 2
	i := 1
	for cable >= g.cableBase[i+1] {
		i++
	}
	r := cable - g.cableBase[i]
	ai := r % g.m[i-1]
	comp := r / g.m[i-1] // b + wStride[i]*a
	b := comp % g.wStride[i]
	a := comp / g.wStride[i]
	sw := int32(g.levelOffset[i] + comp)
	ch := int32(g.child(i, a, b, ai))
	if id%2 == 0 {
		return sw, ch
	}
	return ch, sw
}

// digit j (1-based) of endpoint ep in the mixed-radix a-space.
func (g *GTree) digit(ep, j int) int {
	return (ep / g.mStride[j-1]) % g.m[j-1]
}

// ncaLevel returns the nearest-common-ancestor level of two endpoints:
// the highest j whose a_j digits differ; 0 if equal.
func (g *GTree) ncaLevel(a, b int) int {
	for j := len(g.m); j >= 1; j-- {
		if g.digit(a, j) != g.digit(b, j) {
			return j
		}
	}
	return 0
}

// switchVertex returns the vertex id of the level-i switch whose label has
// high digits aIdx (rank of a_{i+1..n}) and up digits bIdx (rank of b_1..b_i).
func (g *GTree) switchVertex(i, aIdx, bIdx int) int {
	return g.levelOffset[i] + bIdx + g.wStride[i]*aIdx
}

// RouteAppend implements topo.Topology.
func (g *GTree) RouteAppend(buf []int32, src, dst int) []int32 {
	return g.RouteChoiceAppend(buf, src, dst, 0)
}

// NumRouteChoices implements topo.MultiRouter: rotating the D-mod-k
// up-port digit yields up to max(w) distinct minimal up-paths.
func (g *GTree) NumRouteChoices() int {
	max := 1
	for _, w := range g.w {
		if w > max {
			max = w
		}
	}
	if max > 8 {
		max = 8
	}
	return max
}

// RouteChoiceAppend implements topo.MultiRouter.
func (g *GTree) RouteChoiceAppend(buf []int32, src, dst, choice int) []int32 {
	if src < 0 || src >= g.numEndpoints || dst < 0 || dst >= g.numEndpoints {
		panic(fmt.Sprintf("fattree: endpoint out of range: %d -> %d", src, dst))
	}
	if src == dst {
		return buf
	}
	l := g.ncaLevel(src, dst)
	// Ascend: at each step from level i-1 to i, keep the a-suffix of src and
	// extend b with b_i = a_{i-1}(dst) mod w_i (D-mod-k; b_1 is always 0).
	// A non-zero route choice rotates the selected up-port. The traversed
	// cable is down-port a_i(src) of the level-i switch reached.
	bIdx := 0
	for i := 1; i <= l; i++ {
		bi := 0
		if i > 1 {
			bi = (g.digit(dst, i-1) + choice) % g.w[i-1]
		}
		bIdx += bi * g.wStride[i-1]
		aIdx := src / g.mStride[i]
		buf = append(buf, int32(2*g.cable(i, aIdx, bIdx, g.digit(src, i))+1))
	}
	// Descend: adopt dst's a-digits one level at a time, shrinking b. The
	// hop from level i+1 to level i uses down-port a_{i+1}(dst) of the
	// current switch (whose b-rank is bIdx before it shrinks).
	for i := l - 1; i >= 1; i-- {
		buf = append(buf, int32(2*g.cable(i+1, dst/g.mStride[i+1], bIdx, g.digit(dst, i+1))))
		bIdx %= g.wStride[i]
	}
	if l >= 1 {
		buf = append(buf, int32(2*g.cable(1, dst/g.mStride[1], bIdx, g.digit(dst, 1))))
	}
	return buf
}

// Distance returns the hop count of the deterministic route: 2·NCA level.
func (g *GTree) Distance(src, dst int) int { return 2 * g.ncaLevel(src, dst) }

// Diameter returns the maximum endpoint-to-endpoint route length (2n when
// every stage has at least two switches' worth of divergence).
func (g *GTree) Diameter() int {
	d := 0
	for j := len(g.m); j >= 1; j-- {
		if g.m[j-1] > 1 {
			return 2 * j
		}
	}
	return d
}

// AvgDistance returns the exact mean route length over ordered distinct
// endpoint pairs.
func (g *GTree) AvgDistance() float64 {
	e := float64(g.numEndpoints)
	total := 0.0
	// P(nca == j) over ordered pairs incl self: pairs sharing digits > j and
	// differing at j.
	for j := 1; j <= len(g.m); j++ {
		sameAbove := float64(g.mStride[j])   // endpoints sharing a_{j+1..n} with a given one
		sameAtToo := float64(g.mStride[j-1]) // also sharing a_j
		pairs := e * (sameAbove - sameAtToo)
		total += pairs * float64(2*j)
	}
	return total / (e * (e - 1))
}

// --- topo.Fabric implementation (switch-level service for nesting) ---

// NumSwitches implements topo.Fabric.
func (g *GTree) NumSwitches() int { return g.numSwitches }

// NumEndpointPorts implements topo.Fabric.
func (g *GTree) NumEndpointPorts() int { return g.numEndpoints }

// AttachSwitch implements topo.Fabric: the leaf switch of endpoint ep, as a
// fabric-local switch id (0-based over all switches).
func (g *GTree) AttachSwitch(ep int) int {
	return g.switchVertex(1, ep/g.mStride[1], 0) - g.levelOffset[1]
}

// SwitchCables implements topo.Fabric: all switch-to-switch cables with
// fabric-local ids, each listed child first (the lower vertex id). They
// are generated directly in the closed-form cable order (level 2 upward)
// without building the link table.
func (g *GTree) SwitchCables() [][2]int32 {
	out := make([][2]int32, 0, g.NumSwitchCables())
	base := g.levelOffset[1]
	for i := 2; i <= len(g.m); i++ {
		aCount := g.numEndpoints / g.mStride[i]
		bCount := g.wStride[i]
		for a := 0; a < aCount; a++ {
			for b := 0; b < bCount; b++ {
				sw := g.levelOffset[i] + b + bCount*a
				for ai := 0; ai < g.m[i-1]; ai++ {
					out = append(out, [2]int32{int32(g.child(i, a, b, ai) - base), int32(sw - base)})
				}
			}
		}
	}
	return out
}

// NumSwitchCables implements topo.Fabric: the cables above level 1.
func (g *GTree) NumSwitchCables() int {
	return g.cableBase[len(g.m)+1] - g.cableBase[2]
}

// SwitchCableBetween implements topo.Fabric. SwitchCables lists each
// cable child-first, so the a→b hop is forward exactly when a is the
// child (the lower fabric-local id).
func (g *GTree) SwitchCableBetween(a, b int32) (cable int32, forward bool) {
	forward = a < b
	if !forward {
		a, b = b, a
	}
	child, parent := int(a)+g.levelOffset[1], int(b)+g.levelOffset[1]
	// Level of the parent: levels occupy ascending vertex ranges.
	i := 1
	for i < len(g.m) && parent >= g.levelOffset[i+1] {
		i++
	}
	if i < 2 || child < g.levelOffset[i-1] || child >= g.levelOffset[i] {
		panic(fmt.Sprintf("fattree: switches %d and %d are not adjacent levels", a, b))
	}
	idxP := parent - g.levelOffset[i]
	bP := idxP % g.wStride[i]
	aP := idxP / g.wStride[i]
	aC := (child - g.levelOffset[i-1]) / g.wStride[i-1]
	ai := aC % g.m[i-1]
	return int32(g.cable(i, aP, bP, ai) - g.cableBase[2]), forward
}

// PortPairDistanceSum implements topo.Fabric: the sum of
// SwitchDistance (2·(NCA level − 1) above the leaves) over all ordered
// port pairs.
func (g *GTree) PortPairDistanceSum() float64 {
	e := float64(g.numEndpoints)
	total := 0.0
	for j := 2; j <= len(g.m); j++ {
		pairs := e * float64(g.mStride[j]-g.mStride[j-1])
		total += pairs * float64(2*(j-1))
	}
	return total
}

// SwitchDistance implements topo.Fabric: 2·(NCA level - 1) between the
// attach switches of two ports.
func (g *GTree) SwitchDistance(srcPort, dstPort int) int {
	l := g.ncaLevel(srcPort, dstPort)
	if l <= 1 {
		return 0 // same leaf (or same port)
	}
	return 2 * (l - 1)
}

// SwitchDiameter implements topo.Fabric: the longest leaf-to-leaf switch
// path, 2·(n-1) whenever some stage above the leaves diverges.
func (g *GTree) SwitchDiameter() int {
	for j := len(g.m); j >= 2; j-- {
		if g.m[j-1] > 1 {
			return 2 * (j - 1)
		}
	}
	return 0
}

// SwitchPathAppend implements topo.Fabric: the fabric-local switch
// sequence between the leaf switches of two ports, using the same
// port-granular D-mod-k up-path selection as endpoint routing.
func (g *GTree) SwitchPathAppend(buf []int32, srcPort, dstPort int) []int32 {
	base := g.levelOffset[1]
	buf = append(buf, int32(g.AttachSwitch(srcPort)))
	l := g.ncaLevel(srcPort, dstPort)
	if l <= 1 {
		return buf // same leaf
	}
	bIdx := 0
	for i := 2; i <= l; i++ {
		bi := g.digit(dstPort, i-1) % g.w[i-1]
		bIdx += bi * g.wStride[i-1]
		buf = append(buf, int32(g.switchVertex(i, srcPort/g.mStride[i], bIdx)-base))
	}
	for i := l - 1; i >= 1; i-- {
		bIdx %= g.wStride[i]
		buf = append(buf, int32(g.switchVertex(i, dstPort/g.mStride[i], bIdx)-base))
	}
	return buf
}

var (
	_ topo.Topology    = (*GTree)(nil)
	_ topo.Fabric      = (*GTree)(nil)
	_ topo.MultiRouter = (*GTree)(nil)
	_ topo.Generative  = (*GTree)(nil)
)
