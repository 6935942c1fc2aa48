// Package grid provides mixed-radix coordinate arithmetic used by every
// topology in the simulator: conversion between linear ranks and
// d-dimensional coordinates, wrap-around (torus) distances, and small
// integer helpers.
//
// A Shape is the list of dimension sizes, e.g. {4, 2, 2} for an ExaNeSt
// blade. Rank 0 maps to the origin and the first dimension varies fastest,
// matching the layout conventions of INRFlow.
package grid

import "fmt"

// Shape describes the extent of each dimension of a mixed-radix space.
type Shape []int

// NewCube returns a Shape with d dimensions of side k.
func NewCube(d, k int) Shape {
	s := make(Shape, d)
	for i := range s {
		s[i] = k
	}
	return s
}

// Validate returns an error if any dimension is non-positive.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("grid: empty shape")
	}
	for i, v := range s {
		if v <= 0 {
			return fmt.Errorf("grid: dimension %d has non-positive size %d", i, v)
		}
	}
	return nil
}

// Size returns the number of points in the space (product of dimensions).
func (s Shape) Size() int {
	n := 1
	for _, v := range s {
		n *= v
	}
	return n
}

// Dims returns the number of dimensions.
func (s Shape) Dims() int { return len(s) }

// Coord converts a linear rank to coordinates. The first dimension varies
// fastest. The result is written into a fresh slice.
func (s Shape) Coord(rank int) []int {
	c := make([]int, len(s))
	s.CoordInto(rank, c)
	return c
}

// CoordInto converts a linear rank to coordinates into dst, which must have
// length len(s). It avoids allocation in hot paths.
func (s Shape) CoordInto(rank int, dst []int) {
	for i, v := range s {
		dst[i] = rank % v
		rank /= v
	}
}

// Rank converts coordinates back to a linear rank. Coordinates must be in
// range; out-of-range coordinates are wrapped (torus semantics), which is
// convenient for neighbour computations.
func (s Shape) Rank(coord []int) int {
	rank := 0
	stride := 1
	for i, v := range s {
		c := coord[i] % v
		if c < 0 {
			c += v
		}
		rank += c * stride
		stride *= v
	}
	return rank
}

// Contains reports whether the coordinates lie inside the shape without
// wrapping.
func (s Shape) Contains(coord []int) bool {
	if len(coord) != len(s) {
		return false
	}
	for i, v := range s {
		if coord[i] < 0 || coord[i] >= v {
			return false
		}
	}
	return true
}

// WrapDelta returns the signed shortest displacement from a to b along a
// ring of the given size. The result is in (-size/2, size/2]; ties on even
// rings resolve to the positive direction, matching dimension-order routing
// that prefers the positive link.
func WrapDelta(a, b, size int) int {
	d := (b - a) % size
	if d < 0 {
		d += size
	}
	if d > size/2 {
		d -= size
	} else if d == size-d { // d == size/2 exactly on an even ring
		// keep positive direction
	}
	return d
}

// WrapDist returns the number of hops between a and b along a ring of the
// given size.
func WrapDist(a, b, size int) int {
	d := WrapDelta(a, b, size)
	if d < 0 {
		return -d
	}
	return d
}

// TorusDist returns the torus (wrapped Manhattan) distance between two
// ranks in the shape.
func (s Shape) TorusDist(a, b int) int {
	dist := 0
	for _, v := range s {
		dist += WrapDist(a%v, b%v, v)
		a /= v
		b /= v
	}
	return dist
}

// MeshDist returns the unwrapped Manhattan distance between two ranks.
func (s Shape) MeshDist(a, b int) int {
	dist := 0
	for _, v := range s {
		ca, cb := a%v, b%v
		if ca > cb {
			dist += ca - cb
		} else {
			dist += cb - ca
		}
		a /= v
		b /= v
	}
	return dist
}

// TorusDiameter returns the maximum torus distance between any two points.
func (s Shape) TorusDiameter() int {
	d := 0
	for _, v := range s {
		d += v / 2
	}
	return d
}

// TorusAvgDist returns the exact average torus distance over all ordered
// pairs, including self-pairs (distance zero), computed analytically.
// For a single ring of size k the mean wrapped distance over all ordered
// pairs is k/4 for even k and (k^2-1)/(4k) for odd k; dimensions add.
func (s Shape) TorusAvgDist() float64 {
	mean := 0.0
	for _, k := range s {
		if k%2 == 0 {
			mean += float64(k) / 4
		} else {
			mean += float64(k*k-1) / float64(4*k)
		}
	}
	return mean
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the shape as "a x b x c".
func (s Shape) String() string {
	out := ""
	for i, v := range s {
		if i > 0 {
			out += "x"
		}
		out += fmt.Sprintf("%d", v)
	}
	return out
}

// FactorBalanced splits x into parts factors as evenly as possible: prime
// factors of x are assigned, largest first, to the currently smallest part.
// The result is sorted ascending. x >= 1, parts >= 1.
func FactorBalanced(x, parts int) []int {
	out := make([]int, parts)
	for i := range out {
		out[i] = 1
	}
	var primes []int
	for p := 2; p*p <= x; p++ {
		for x%p == 0 {
			primes = append(primes, p)
			x /= p
		}
	}
	if x > 1 {
		primes = append(primes, x)
	}
	// Largest primes first, each onto the smallest current part.
	for i, j := 0, len(primes)-1; i < j; i, j = i+1, j-1 {
		primes[i], primes[j] = primes[j], primes[i]
	}
	for _, p := range primes {
		minIdx := 0
		for i := 1; i < parts; i++ {
			if out[i] < out[minIdx] {
				minIdx = i
			}
		}
		out[minIdx] *= p
	}
	// Insertion sort; parts is tiny.
	for i := 1; i < parts; i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// NonUnitFactors is FactorBalanced with the unit parts dropped: the
// balanced stage arities or grid dimensions of x, ascending, without the
// degenerate size-1 parts a small x leaves. It is empty for x == 1.
func NonUnitFactors(x, parts int) []int {
	m := FactorBalanced(x, parts)
	for len(m) > 0 && m[0] == 1 {
		m = m[1:]
	}
	return m
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int) int { return (a + b - 1) / b }

// Pow returns base**exp for non-negative integer exponents.
func Pow(base, exp int) int {
	r := 1
	for i := 0; i < exp; i++ {
		r *= base
	}
	return r
}

// Log2Ceil returns the smallest k with 2^k >= n (n >= 1).
func Log2Ceil(n int) int {
	k := 0
	for (1 << k) < n {
		k++
	}
	return k
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
