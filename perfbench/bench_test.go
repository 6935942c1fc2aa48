package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"mtier/internal/core"
	"mtier/internal/obs"
	"mtier/internal/workload"
)

// tiny is a one-cell workload small enough for unit tests; its random
// traffic makes every seed a different input.
func tiny(golden string) *workloadDef {
	return singleCell("tiny", "test workload", core.TopoSpec{Kind: core.NestGHC, Endpoints: 512, T: 2, U: 2},
		workload.UnstructuredApp, golden)
}

type runOut struct {
	code   int
	line   map[string]json.RawMessage
	report result
	stderr string
}

// invoke runs the command on defs and decodes its result line and report.
func invoke(t *testing.T, defs []*workloadDef, dir string, args ...string) runOut {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--workload", "tiny", "--seconds", "0", "--out", dir}, args...)
	o := runOut{code: run(args, defs, &stdout, &stderr), stderr: stderr.String()}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o.line); err != nil {
		t.Fatalf("last stdout line is not JSON: %v\n%s", err, stdout.String())
	}
	seed, trace := "1", "0"
	for i := 0; i+1 < len(args); i++ {
		switch args[i] {
		case "--seed":
			seed = args[i+1]
		case "--trace":
			trace = args[i+1]
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("tiny-seed%s-trace%s.json", seed, trace)))
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if err := json.Unmarshal(b, &o.report); err != nil {
		t.Fatalf("report: %v", err)
	}
	return o
}

func metricKeys(t *testing.T, o runOut) []string {
	t.Helper()
	var m map[string]metricValue
	if err := json.Unmarshal(o.line["metrics"], &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k, v := range m {
		if v.Unit == "" {
			t.Errorf("metric %s has no unit", k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestResultLineShape(t *testing.T) {
	o := invoke(t, []*workloadDef{tiny("")}, t.TempDir())
	if o.code != 0 {
		t.Fatalf("exit %d:\n%s", o.code, o.stderr)
	}
	var keys []string
	for k := range o.line {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	if got, want := metricKeys(t, o), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
	if o.report.Attempted < 1+minReps || o.report.Failed != 0 {
		t.Fatalf("attempted %d, failed %d", o.report.Attempted, o.report.Failed)
	}
}

// The seed is an argument: different seeds generate different inputs,
// the same seed the same ones.
func TestSeedIsAnArgument(t *testing.T) {
	defs := []*workloadDef{tiny("")}
	dir := t.TempDir()
	a := invoke(t, defs, dir, "--seed", "7")
	b := invoke(t, defs, dir, "--seed", "8")
	c := invoke(t, defs, dir, "--seed", "7")
	if a.report.Fingerprint == b.report.Fingerprint {
		t.Fatalf("seeds 7 and 8 produced the same fingerprint %s", a.report.Fingerprint)
	}
	if a.report.Fingerprint != c.report.Fingerprint {
		t.Fatalf("seed 7 produced %s, then %s", a.report.Fingerprint, c.report.Fingerprint)
	}
}

// A wrong golden fingerprint trips the gate: the command exits non-zero,
// counts every cell of the repetition as failed, and still writes its
// report and CPU profile.
func TestWrongGoldenTripsGate(t *testing.T) {
	dir := t.TempDir()
	right := invoke(t, []*workloadDef{tiny("")}, dir).report.Fingerprint
	prof := filepath.Join(dir, "cpu.pprof")
	o := invoke(t, []*workloadDef{tiny(strings.Repeat("0", 64))}, dir, "--cpuprofile", prof)
	if o.code == 0 || string(o.line["correct"]) != "false" || string(o.line["failed"]) == "0" {
		t.Fatalf("exit %d, correct %s, failed %s; want a tripped gate", o.code, o.line["correct"], o.line["failed"])
	}
	if len(o.report.Errors) == 0 || !strings.Contains(o.report.Errors[0], "golden") {
		t.Fatalf("report errors %q do not name the golden fingerprint", o.report.Errors)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("CPU profile after a failed gate: %v, %v", st, err)
	}
	if o := invoke(t, []*workloadDef{tiny(right)}, dir); o.code != 0 {
		t.Fatalf("the right golden fails: %v", o.report.Errors)
	}
	// Golden fingerprints are pinned at the default seed only.
	if o := invoke(t, []*workloadDef{tiny(strings.Repeat("0", 64))}, dir, "--seed", "2"); o.code != 0 {
		t.Fatalf("seed 2 checked against the seed-1 golden: %v", o.report.Errors)
	}
}

// The traced pass reports every per-layer metric, and its fingerprints
// match the untraced repetitions' (the gate fails the run otherwise).
func TestTracedRun(t *testing.T) {
	o := invoke(t, []*workloadDef{tiny("")}, t.TempDir(), "--trace", "1")
	if o.code != 0 {
		t.Fatalf("exit %d: %v", o.code, o.report.Errors)
	}
	if got, want := metricKeys(t, o), metricNames(perLayer); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
	m := o.report.Metrics
	if m["flow.simulations"] != 1 || m["topo.routes"] != m["workload.flows"] || m["flow.epochs"] == 0 {
		t.Fatalf("implausible layer counts: %v", m)
	}
	names := map[string]bool{}
	for _, s := range o.report.Spans {
		names[s.Name] = true
	}
	for _, n := range []string{"bench.rep", "bench.rep.traced", "workload.generate", "topo.route", "flow.prepare", "flow.run"} {
		if !names[n] {
			t.Errorf("no %s span in the report", n)
		}
	}
}

// The layer replay runs each simulation again and refuses a result that
// differs from the repetition's.
func TestReplayChecksResult(t *testing.T) {
	ctx := context.Background()
	spec := core.TopoSpec{Kind: core.NestGHC, Endpoints: 512, T: 2, U: 2}
	top, err := core.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunContext(ctx, core.Config{Kind: spec.Kind, Endpoints: spec.Endpoints, T: spec.T, U: spec.U,
		Workload: workload.UnstructuredApp, Params: workload.Params{Seed: 3}}, top)
	if err != nil {
		t.Fatal(err)
	}
	set := cellSet(top, res)
	st, err := replay(ctx, []routeSet{set}, newSpanLog(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.flowAlloc == 0 || st.flows != int64(res.Flows) {
		t.Fatalf("replay allocated %d bytes in the flow layer for %d flows (the run had %d)", st.flowAlloc, st.flows, res.Flows)
	}
	set.makespan *= 2
	if _, err := replay(ctx, []routeSet{set}, newSpanLog(), 0, 1); err == nil {
		t.Fatal("a replay with a different makespan passed")
	}
}

// A runner with parallel cells calls one probe and one registry concurrently.
func TestProbeConcurrent(t *testing.T) {
	p := &epochProbe{}
	reg := obs.NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.OnEpoch(obs.EpochSnapshot{AffectedFlows: 2, DirtyLinks: 3, WallTime: 5})
				reg.Counter("flow.epochs").Inc()
			}
		}()
	}
	wg.Wait()
	if p.epochs.Load() != 8000 || p.affected.Load() != 16000 || p.dirty.Load() != 24000 || p.wallNs.Load() != 40000 {
		t.Fatalf("probe totals %d %d %d %d", p.epochs.Load(), p.affected.Load(), p.dirty.Load(), p.wallNs.Load())
	}
	if got := reg.Snapshot().Counters["flow.epochs"]; got != 8000 {
		t.Fatalf("registry counted %d epochs", got)
	}
}

// BENCHMARK.json declares exactly the workloads, other than the manual
// ones, and the metrics the command measures.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var want []string
	for _, d := range catalog() {
		if !d.manual {
			want = append(want, d.name+": "+d.why)
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %q, want %q", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit+" "+m.Better)
		}
		for _, d := range defs {
			w = append(w, d.name+" "+d.unit+" "+d.better)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s %q, want %q", kind, g, w)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median %g", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max %g", got)
	}
}

// wall_s keeps the quiet repetitions, or the least-stolen ones when too
// few were quiet.
func TestQuietWalls(t *testing.T) {
	walls := []float64{5, 9, 6, 8}
	stolen := []float64{0.01, 0.20, 0.05, 0.10}
	if q, noisy := quietWalls(walls, stolen, 2); !reflect.DeepEqual(q, []float64{5, 6}) || noisy != 2 {
		t.Fatalf("quiet %v, noisy %d", q, noisy)
	}
	if q, noisy := quietWalls(walls, stolen, 3); !reflect.DeepEqual(q, []float64{5, 6, 8}) || noisy != 1 {
		t.Fatalf("fallback %v, noisy %d", q, noisy)
	}
}

// metricNames lists the names of defs, sorted.
func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}
