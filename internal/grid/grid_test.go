package grid

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShapeValidate(t *testing.T) {
	cases := []struct {
		s  Shape
		ok bool
	}{
		{Shape{4, 2, 2}, true},
		{Shape{1}, true},
		{Shape{}, false},
		{Shape{0, 2}, false},
		{Shape{3, -1}, false},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) err=%v, want ok=%v", c.s, err, c.ok)
		}
	}
}

func TestNewCube(t *testing.T) {
	s := NewCube(3, 4)
	if !s.Equal(Shape{4, 4, 4}) {
		t.Fatalf("NewCube(3,4) = %v", s)
	}
	if s.Size() != 64 {
		t.Fatalf("Size = %d, want 64", s.Size())
	}
	if s.Dims() != 3 {
		t.Fatalf("Dims = %d, want 3", s.Dims())
	}
}

func TestRankCoordRoundTrip(t *testing.T) {
	s := Shape{4, 2, 3}
	for r := 0; r < s.Size(); r++ {
		c := s.Coord(r)
		if got := s.Rank(c); got != r {
			t.Fatalf("Rank(Coord(%d)) = %d", r, got)
		}
		if !s.Contains(c) {
			t.Fatalf("Coord(%d) = %v not contained", r, c)
		}
	}
}

func TestRankWraps(t *testing.T) {
	s := Shape{4, 4}
	if got := s.Rank([]int{-1, 0}); got != 3 {
		t.Fatalf("Rank(-1,0) = %d, want 3", got)
	}
	if got := s.Rank([]int{4, 0}); got != 0 {
		t.Fatalf("Rank(4,0) = %d, want 0", got)
	}
	if got := s.Rank([]int{0, 5}); got != 4 {
		t.Fatalf("Rank(0,5) = %d, want 4", got)
	}
}

func TestCoordFirstDimFastest(t *testing.T) {
	s := Shape{4, 2, 2}
	c := s.Coord(1)
	if c[0] != 1 || c[1] != 0 || c[2] != 0 {
		t.Fatalf("Coord(1) = %v, want [1 0 0]", c)
	}
	c = s.Coord(4)
	if c[0] != 0 || c[1] != 1 || c[2] != 0 {
		t.Fatalf("Coord(4) = %v, want [0 1 0]", c)
	}
}

func TestWrapDist(t *testing.T) {
	cases := []struct {
		a, b, size, want int
	}{
		{0, 0, 8, 0},
		{0, 1, 8, 1},
		{0, 7, 8, 1},
		{0, 4, 8, 4},
		{1, 6, 8, 3},
		{0, 2, 5, 2},
		{0, 3, 5, 2},
		{2, 2, 1, 0},
	}
	for _, c := range cases {
		if got := WrapDist(c.a, c.b, c.size); got != c.want {
			t.Errorf("WrapDist(%d,%d,%d) = %d, want %d", c.a, c.b, c.size, got, c.want)
		}
	}
}

func TestWrapDeltaRange(t *testing.T) {
	for size := 1; size <= 9; size++ {
		for a := 0; a < size; a++ {
			for b := 0; b < size; b++ {
				d := WrapDelta(a, b, size)
				if d <= -(size+1)/2 || d > size/2 {
					t.Fatalf("WrapDelta(%d,%d,%d) = %d out of range", a, b, size, d)
				}
				if (a+d+size)%size != b {
					t.Fatalf("WrapDelta(%d,%d,%d) = %d does not reach b", a, b, size, d)
				}
			}
		}
	}
}

func TestTorusDist(t *testing.T) {
	s := Shape{4, 4, 4}
	if got := s.TorusDist(0, s.Rank([]int{2, 2, 2})); got != 6 {
		t.Fatalf("TorusDist corner = %d, want 6", got)
	}
	if got := s.TorusDist(0, s.Rank([]int{3, 0, 0})); got != 1 {
		t.Fatalf("TorusDist wrap = %d, want 1", got)
	}
	if s.TorusDiameter() != 6 {
		t.Fatalf("TorusDiameter = %d, want 6", s.TorusDiameter())
	}
}

func TestTorusDistSymmetric(t *testing.T) {
	s := Shape{5, 3, 2}
	f := func(a, b uint16) bool {
		x := int(a) % s.Size()
		y := int(b) % s.Size()
		return s.TorusDist(x, y) == s.TorusDist(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTorusDistTriangleInequality(t *testing.T) {
	s := Shape{4, 4, 2}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a, b, c := rng.Intn(s.Size()), rng.Intn(s.Size()), rng.Intn(s.Size())
		if s.TorusDist(a, c) > s.TorusDist(a, b)+s.TorusDist(b, c) {
			t.Fatalf("triangle inequality violated for %d,%d,%d", a, b, c)
		}
	}
}

func TestMeshDist(t *testing.T) {
	s := Shape{4, 4}
	if got := s.MeshDist(0, s.Rank([]int{3, 3})); got != 6 {
		t.Fatalf("MeshDist = %d, want 6", got)
	}
	if got := s.MeshDist(s.Rank([]int{3, 0}), 0); got != 3 {
		t.Fatalf("MeshDist no wrap = %d, want 3", got)
	}
}

func TestTorusAvgDistMatchesEnumeration(t *testing.T) {
	for _, s := range []Shape{{4}, {5}, {4, 4}, {3, 5}, {2, 3, 4}} {
		total := 0
		n := s.Size()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				total += s.TorusDist(a, b)
			}
		}
		want := float64(total) / float64(n*n)
		got := s.TorusAvgDist()
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("TorusAvgDist(%v) = %g, enumerated %g", s, got, want)
		}
	}
}

func TestHelpers(t *testing.T) {
	if CeilDiv(7, 2) != 4 || CeilDiv(8, 2) != 4 || CeilDiv(1, 8) != 1 {
		t.Fatal("CeilDiv wrong")
	}
	if Pow(2, 10) != 1024 || Pow(3, 0) != 1 || Pow(5, 3) != 125 {
		t.Fatal("Pow wrong")
	}
	if Log2Ceil(1) != 0 || Log2Ceil(2) != 1 || Log2Ceil(3) != 2 || Log2Ceil(1024) != 10 {
		t.Fatal("Log2Ceil wrong")
	}
	if !IsPow2(1) || !IsPow2(64) || IsPow2(0) || IsPow2(12) {
		t.Fatal("IsPow2 wrong")
	}
}

func TestNonUnitFactors(t *testing.T) {
	cases := []struct {
		x, parts int
		want     string
	}{
		{131072, 3, "[32 64 64]"},
		{8192, 4, "[8 8 8 16]"},
		{7, 3, "[7]"},
		{12, 4, "[2 2 3]"},
		{1, 3, "[]"},
	}
	for _, c := range cases {
		if got := fmt.Sprint(NonUnitFactors(c.x, c.parts)); got != c.want {
			t.Errorf("NonUnitFactors(%d, %d) = %s, want %s", c.x, c.parts, got, c.want)
		}
	}
}

func TestShapeString(t *testing.T) {
	if got := (Shape{4, 2, 2}).String(); got != "4x2x2" {
		t.Fatalf("String = %q", got)
	}
}

func TestCoordIntoMatchesCoord(t *testing.T) {
	s := Shape{3, 4, 5}
	buf := make([]int, 3)
	for r := 0; r < s.Size(); r++ {
		s.CoordInto(r, buf)
		c := s.Coord(r)
		for i := range c {
			if buf[i] != c[i] {
				t.Fatalf("CoordInto(%d) = %v, Coord = %v", r, buf, c)
			}
		}
	}
}
