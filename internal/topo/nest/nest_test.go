package nest

import (
	"testing"
	"testing/quick"

	"mtier/internal/grid"
	"mtier/internal/topo"
)

func build(t testing.TB, kind UpperKind, tt, u, n int) *Nest {
	t.Helper()
	nst, err := BuildCube(kind, tt, u, n)
	if err != nil {
		t.Fatal(err)
	}
	return nst
}

func TestValidation(t *testing.T) {
	if _, err := BuildCube(UpperTree, 2, 3, 64); err == nil {
		t.Fatal("u=3 accepted")
	}
	if _, err := BuildCube(UpperTree, 2, 2, 60); err == nil {
		t.Fatal("non-multiple endpoint count accepted")
	}
	if _, err := Build(UpperTree, grid.Shape{3, 3, 3}, 4, 2); err == nil {
		t.Fatal("odd subtorus with u=2 accepted")
	}
	if _, err := Build(UpperTree, grid.Shape{2, 2}, 4, 1); err == nil {
		t.Fatal("2D subtorus accepted")
	}
	if _, err := Build(UpperTree, grid.Shape{2, 2, 2}, 0, 1); err == nil {
		t.Fatal("zero subtori accepted")
	}
}

func TestUplinkCounts(t *testing.T) {
	for _, u := range []int{1, 2, 4, 8} {
		nst := build(t, UpperTree, 2, u, 512)
		if got, want := nst.NumUplinks(), 512/u; got != want {
			t.Errorf("u=%d uplinks = %d, want %d", u, got, want)
		}
	}
	for _, u := range []int{1, 2, 4, 8} {
		nst := build(t, UpperGHC, 4, u, 512)
		if got, want := nst.NumUplinks(), 512/u; got != want {
			t.Errorf("t=4 u=%d uplinks = %d, want %d", u, got, want)
		}
	}
}

func TestMaxHopsToUplink(t *testing.T) {
	want := map[int]int{1: 0, 2: 1, 4: 1, 8: 3}
	for u, w := range want {
		nst := build(t, UpperTree, 4, u, 512)
		if got := nst.MaxHopsToUplink(); got != w {
			t.Errorf("u=%d maxToUp = %d, want %d", u, got, w)
		}
	}
}

func TestRoutesValidExhaustive(t *testing.T) {
	for _, kind := range []UpperKind{UpperTree, UpperGHC} {
		for _, u := range []int{1, 2, 4, 8} {
			nst := build(t, kind, 2, u, 128)
			n := nst.NumEndpoints()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if err := topo.CheckRoute(nst, src, dst); err != nil {
						t.Fatalf("%s u=%d: %v", kind, u, err)
					}
					if got, want := len(topo.Route(nst, src, dst)), nst.Distance(src, dst); got != want {
						t.Fatalf("%s u=%d: route %d->%d hops %d, want %d", kind, u, src, dst, got, want)
					}
				}
			}
		}
	}
}

func TestIntraSubtorusStaysLocal(t *testing.T) {
	// The paper's routing keeps intra-subtorus traffic inside the island:
	// no hop may touch a switch vertex.
	nst := build(t, UpperTree, 4, 2, 512)
	localN := nst.SubShape().Size()
	links := nst.Links()
	for src := 0; src < localN; src++ {
		for dst := 0; dst < localN; dst++ {
			for _, id := range topo.Route(nst, src, dst) {
				l := links[id]
				if int(l.From) >= nst.NumEndpoints() || int(l.To) >= nst.NumEndpoints() {
					t.Fatalf("intra route %d->%d escalated to the upper tier", src, dst)
				}
			}
		}
	}
}

func TestInterSubtorusUsesUpperTier(t *testing.T) {
	nst := build(t, UpperGHC, 2, 1, 128)
	src, dst := 0, nst.NumEndpoints()-1
	usedSwitch := false
	links := nst.Links()
	for _, id := range topo.Route(nst, src, dst) {
		if int(links[id].From) >= nst.NumEndpoints() {
			usedSwitch = true
		}
	}
	if !usedSwitch {
		t.Fatal("inter-subtorus route avoided the upper tier")
	}
}

func TestDistanceDiameterBound(t *testing.T) {
	for _, kind := range []UpperKind{UpperTree, UpperGHC} {
		for _, u := range []int{1, 2, 4, 8} {
			for _, tt := range []int{2, 4} {
				nst := build(t, kind, tt, u, 1024)
				diam := nst.Diameter()
				n := nst.NumEndpoints()
				max := 0
				for s := 0; s < n; s += 13 {
					for d := 0; d < n; d += 7 {
						if dist := nst.Distance(s, d); dist > max {
							max = dist
						}
					}
				}
				if max > diam {
					t.Errorf("%s t=%d u=%d: observed distance %d > declared diameter %d", kind, tt, u, max, diam)
				}
			}
		}
	}
}

func TestDiameterExactSmall(t *testing.T) {
	// For a small instance the declared diameter must be attained exactly.
	nst := build(t, UpperGHC, 2, 8, 512)
	n := nst.NumEndpoints()
	max := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if dist := nst.Distance(s, d); dist > max {
				max = dist
			}
		}
	}
	if max != nst.Diameter() {
		t.Errorf("observed diameter %d != declared %d", max, nst.Diameter())
	}
}

func TestLargerSubtorusLongerIntraPaths(t *testing.T) {
	// Core claim of the paper: growing t raises path lengths.
	small := build(t, UpperTree, 2, 2, 4096)
	large := build(t, UpperTree, 8, 2, 4096)
	if small.Diameter() >= large.Diameter() {
		t.Errorf("t=2 diameter %d should be < t=8 diameter %d", small.Diameter(), large.Diameter())
	}
}

func TestThinningRaisesDiameter(t *testing.T) {
	dense := build(t, UpperGHC, 4, 1, 4096)
	sparse := build(t, UpperGHC, 4, 8, 4096)
	if dense.Diameter() >= sparse.Diameter() {
		t.Errorf("u=1 diameter %d should be < u=8 diameter %d", dense.Diameter(), sparse.Diameter())
	}
}

// TestFig3UplinkPatterns checks the exact connection rules of the paper's
// Figure 3 on a 4x4x4 subtorus.
func TestFig3UplinkPatterns(t *testing.T) {
	countLocalUplinks := func(n *Nest) map[[3]int]bool {
		up := map[[3]int]bool{}
		// An uplinked QFDB has a link to a switch vertex.
		links := n.Links()
		localN := n.SubShape().Size()
		for _, l := range links {
			if int(l.From) < localN && int(l.To) >= n.NumEndpoints() {
				c := n.SubShape().Coord(int(l.From))
				up[[3]int{c[0], c[1], c[2]}] = true
			}
		}
		return up
	}
	for _, u := range []int{1, 2, 4, 8} {
		n := build(t, UpperGHC, 4, u, 512)
		up := countLocalUplinks(n)
		if len(up) != 64/u {
			t.Fatalf("u=%d: %d uplinked nodes per subtorus, want %d", u, len(up), 64/u)
		}
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				for z := 0; z < 4; z++ {
					var want bool
					switch u {
					case 1:
						want = true
					case 2:
						want = x%2 == 0
					case 4:
						ox, oy, oz := x%2, y%2, z%2
						want = (ox+oy+oz == 0) || (ox == 1 && oy == 1 && oz == 1)
					case 8:
						want = x%2 == 0 && y%2 == 0 && z%2 == 0
					}
					if up[[3]int{x, y, z}] != want {
						t.Fatalf("u=%d: uplink at (%d,%d,%d) = %v, want %v", u, x, y, z, up[[3]int{x, y, z}], want)
					}
				}
			}
		}
	}
}

func TestFactorBalanced(t *testing.T) {
	cases := []struct {
		x, parts int
		want     []int
	}{
		{131072, 3, []int{32, 64, 64}},
		{8192, 4, []int{8, 8, 8, 16}},
		{64, 3, []int{4, 4, 4}},
		{12, 2, []int{3, 4}},
		{7, 2, []int{1, 7}},
		{1, 3, []int{1, 1, 1}},
	}
	for _, c := range cases {
		got := grid.FactorBalanced(c.x, c.parts)
		if len(got) != len(c.want) {
			t.Errorf("grid.FactorBalanced(%d,%d) = %v, want %v", c.x, c.parts, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("grid.FactorBalanced(%d,%d) = %v, want %v", c.x, c.parts, got, c.want)
				break
			}
		}
	}
}

func TestSuggestFabricsPaperScale(t *testing.T) {
	tr, err := SuggestTree(131072)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEndpointPorts() != 131072 || tr.Stages() != 3 {
		t.Fatalf("tree ports=%d stages=%d", tr.NumEndpointPorts(), tr.Stages())
	}
	g, err := SuggestGHC(131072)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSwitches() != 8192 || g.Concentration() != 16 {
		t.Fatalf("ghc switches=%d conc=%d", g.NumSwitches(), g.Concentration())
	}
}

func TestQuickRouteProperty(t *testing.T) {
	nst := build(t, UpperGHC, 4, 4, 4096)
	n := nst.NumEndpoints()
	f := func(a, b uint16) bool {
		src, dst := int(a)%n, int(b)%n
		return topo.CheckRoute(nst, src, dst) == nil &&
			len(topo.Route(nst, src, dst)) == nst.Distance(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestUpperKindString(t *testing.T) {
	if UpperTree.String() != "NestTree" || UpperGHC.String() != "NestGHC" {
		t.Fatal("kind names")
	}
}

func BenchmarkRouteNestGHC(b *testing.B) {
	nst := build(b, UpperGHC, 2, 4, 32768)
	n := nst.NumEndpoints()
	buf := make([]int32, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = nst.RouteAppend(buf[:0], i%n, (i*2654435761)%n)
	}
}

func BenchmarkRouteNestTree(b *testing.B) {
	nst := build(b, UpperTree, 2, 4, 32768)
	n := nst.NumEndpoints()
	buf := make([]int32, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = nst.RouteAppend(buf[:0], i%n, (i*2654435761)%n)
	}
}
