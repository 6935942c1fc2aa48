package core

import (
	"strings"
	"testing"

	"mtier/internal/cost"
	"mtier/internal/workload"
)

func TestBuildTopologyKinds(t *testing.T) {
	for _, kind := range TopoKinds() {
		spec := TopoSpec{Kind: kind, Endpoints: 512}
		if kind == NestTree || kind == NestGHC {
			spec.T, spec.U = 2, 4
		}
		top, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if top.NumEndpoints() != 512 {
			t.Fatalf("%s: endpoints = %d", kind, top.NumEndpoints())
		}
	}
	if _, err := Build(TopoSpec{Kind: TopoKind("bogus"), Endpoints: 512}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Extension kinds build and carry at least the requested endpoints.
	for _, kind := range []TopoKind{Thintree, GHCFlat, Dragonfly, Jellyfish} {
		top, err := Build(TopoSpec{Kind: kind, Endpoints: 300})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if top.NumEndpoints() < 300 {
			t.Fatalf("%s: endpoints = %d, want >= 300", kind, top.NumEndpoints())
		}
	}
	if _, err := Build(TopoSpec{Kind: Torus3D, Endpoints: 1}); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestPaperPoints(t *testing.T) {
	pts := PaperPoints()
	if len(pts) != 12 {
		t.Fatalf("points = %d, want 12", len(pts))
	}
	if pts[0].Label() != "(2, 8)" || pts[11].Label() != "(8, 1)" {
		t.Fatalf("point order wrong: %v ... %v", pts[0], pts[11])
	}
}

func TestDefaultTasks(t *testing.T) {
	if DefaultTasks(workload.MapReduce, 4096) != 512 {
		t.Fatal("mapreduce should cap tasks")
	}
	if DefaultTasks(workload.NBodies, 4096) != 512 {
		t.Fatal("nbodies should cap tasks")
	}
	if DefaultTasks(workload.UnstructuredApp, 4096) != 4096 {
		t.Fatal("unstructured should fill the machine")
	}
	if DefaultTasks(workload.MapReduce, 256) != 256 {
		t.Fatal("small systems uncapped")
	}
}

func TestRunSmokeAllWorkloads(t *testing.T) {
	for _, w := range workload.Kinds() {
		res, err := Run(Config{
			Kind:      NestGHC,
			Endpoints: 512,
			T:         2,
			U:         4,
			Workload:  w,
			Params:    workload.Params{Seed: 3, MsgBytes: 1e5},
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Result.Makespan <= 0 || res.Flows == 0 {
			t.Fatalf("%s: empty result %+v", w, res)
		}
	}
}

func TestRunRejectsTooManyTasks(t *testing.T) {
	_, err := Run(Config{
		Kind:      Torus3D,
		Endpoints: 64,
		Workload:  workload.Reduce,
		Params:    workload.Params{Tasks: 128},
	}, nil)
	if err == nil {
		t.Fatal("oversized task count accepted")
	}
}

func TestTopoSetShares(t *testing.T) {
	set, err := BuildSet(512, 4)
	if err != nil {
		t.Fatal(err)
	}
	if set.Get(Torus3D, Point{}) == nil || set.Get(Fattree, Point{}) == nil {
		t.Fatal("references missing")
	}
	for _, pt := range set.Points {
		if set.Get(NestTree, pt) == nil || set.Get(NestGHC, pt) == nil {
			t.Fatalf("hybrid missing at %v", pt)
		}
	}
	if a, b := set.Get(NestTree, set.Points[0]), set.Get(NestTree, set.Points[0]); a != b {
		t.Fatal("instances should be shared")
	}
}

func TestTable1Shape(t *testing.T) {
	set, err := BuildSet(512, 4)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Table1(set, 10_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 14 { // 12 points + 2 reference rows
		t.Fatalf("rows = %d, want 14", len(tab.Rows))
	}
	// Distance must grow as uplinks thin: (2,8) row vs (2,1) row.
	if !(tab.Rows[0][1] > tab.Rows[3][1]) {
		t.Errorf("u=8 avg distance %s should exceed u=1 %s", tab.Rows[0][1], tab.Rows[3][1])
	}
}

func TestTable2Shape(t *testing.T) {
	tab, err := Table2(4096, cost.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "Fattree (ref)") {
		t.Fatal("missing fattree reference row")
	}
}

func TestPanelNormalisation(t *testing.T) {
	set, err := BuildSet(512, 0)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Panel(set, workload.Reduce, PanelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := fig.Get("Fattree", "(2, 8)")
	if !ok || v != 1 {
		t.Fatalf("fattree must normalise to 1, got %v (ok=%v)", v, ok)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Values) != 12 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Values))
		}
		for _, val := range s.Values {
			if val <= 0 {
				t.Fatalf("series %s has non-positive point", s.Name)
			}
		}
	}
}

// TestPaperTrends asserts the qualitative findings of §5.2 at small scale.
func TestPaperTrends(t *testing.T) {
	if testing.Short() {
		t.Skip("trend assertions need a full sweep")
	}
	set, err := BuildSet(2048, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Reduce: the ejection port at the root serialises everything, the
	// topology does not matter (§5.2: "no noticeable difference").
	red, err := Panel(set, workload.Reduce, PanelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range red.Series {
		for _, v := range s.Values {
			if v < 0.9 || v > 1.1 {
				t.Errorf("reduce: %s deviates from 1: %g", s.Name, v)
			}
		}
	}

	// UnstructuredApp (heavy): thinning uplinks to u=8 must hurt the
	// hybrids badly; dense hybrids must be competitive with the fattree.
	ua, err := Panel(set, workload.UnstructuredApp, PanelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	thin, _ := ua.Get("NestGHC", "(2, 8)")
	dense, _ := ua.Get("NestGHC", "(2, 1)")
	if thin < 2*dense {
		t.Errorf("unstructuredapp: u=8 (%g) should be >= 2x u=1 (%g)", thin, dense)
	}
	if dense > 1.3 {
		t.Errorf("unstructuredapp: dense hybrid should be fattree-competitive, got %g", dense)
	}

	// Sweep3D (light): the torus must be at least fattree-competitive and
	// hybrids must improve (not degrade) with larger subtori (§5.2).
	sw, err := Panel(set, workload.Sweep3D, PanelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	torusVal, _ := sw.Get("Torus3D", "(2, 8)")
	if torusVal > 1.1 {
		t.Errorf("sweep3d: torus should be fattree-competitive, got %g", torusVal)
	}
	smallT, _ := sw.Get("NestGHC", "(2, 8)")
	bigT, _ := sw.Get("NestGHC", "(8, 8)")
	if bigT > smallT*1.05 {
		t.Errorf("sweep3d: larger subtorus should not be slower: t=8 %g vs t=2 %g", bigT, smallT)
	}
}
