package core

import (
	"strings"
	"testing"
)

func TestBuildValidSpecs(t *testing.T) {
	for _, spec := range []TopoSpec{
		{Kind: Torus3D, Endpoints: 64},
		{Kind: Fattree, Endpoints: 64},
		{Kind: NestTree, Endpoints: 64, T: 2, U: 4},
		{Kind: NestGHC, Endpoints: 64, T: 2, U: 1},
		{Kind: NestGHC, Endpoints: 512, T: 4, U: 8},
		{Kind: NestGHC, Endpoints: 27, T: 3, U: 1}, // odd t is fine at u=1
		{Kind: Dragonfly, Endpoints: 64},
		{Kind: Jellyfish, Endpoints: 64},
		{Kind: GHCFlat, Endpoints: 64},
		{Kind: Thintree, Endpoints: 64},
	} {
		top, err := Build(spec)
		if err != nil {
			t.Errorf("Build(%+v): %v", spec, err)
			continue
		}
		if top.NumEndpoints() < spec.Endpoints {
			t.Errorf("Build(%+v): only %d endpoints", spec, top.NumEndpoints())
		}
	}
}

func TestBuildRejectsInvalidSpecs(t *testing.T) {
	for _, c := range []struct {
		spec TopoSpec
		want string // substring of the error
	}{
		{TopoSpec{Kind: "mesh", Endpoints: 64}, "unknown topology kind"},
		{TopoSpec{Kind: Torus3D, Endpoints: 1}, "at least 2 endpoints"},
		{TopoSpec{Kind: Torus3D, Endpoints: 64, T: 2, U: 4}, "not a hybrid"},
		{TopoSpec{Kind: Fattree, Endpoints: 64, U: 1}, "not a hybrid"},
		{TopoSpec{Kind: NestGHC, Endpoints: 64, T: 0, U: 4}, "t must be at least 2"},
		{TopoSpec{Kind: NestGHC, Endpoints: 64, T: 2, U: 3}, "u must be 1, 2, 4 or 8"},
		{TopoSpec{Kind: NestGHC, Endpoints: 64, T: 2, U: 0}, "u must be 1, 2, 4 or 8"},
		{TopoSpec{Kind: NestTree, Endpoints: 27, T: 3, U: 2}, "needs an even t"},
		{TopoSpec{Kind: NestTree, Endpoints: 100, T: 2, U: 4}, "do not tile"},
	} {
		_, err := Build(c.spec)
		if err == nil {
			t.Errorf("Build(%+v): expected error containing %q, got nil", c.spec, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Build(%+v): error %q does not contain %q", c.spec, err, c.want)
		}
	}
}

// TestBuildTopologyCompat: the positional (kind, n, t, u) call shape
// maps onto TopoSpec — a flat family is built from a spec without (t, u)
// at exactly n endpoints, and a hybrid with an invalid u is rejected.
func TestBuildTopologyCompat(t *testing.T) {
	top, err := Build(TopoSpec{Kind: Torus3D, Endpoints: 64})
	if err != nil {
		t.Fatalf("Build(torus, 64): %v", err)
	}
	if top.NumEndpoints() != 64 {
		t.Fatalf("got %d endpoints, want 64", top.NumEndpoints())
	}
	if _, err := Build(TopoSpec{Kind: NestGHC, Endpoints: 64, T: 2, U: 3}); err == nil {
		t.Fatal("Build(nestghc, 64, 2, 3): expected invalid-u error")
	}
}
