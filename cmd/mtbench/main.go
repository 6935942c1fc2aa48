// Command mtbench runs a fixed set of benchmark regimes and records a
// trajectory: the deterministic simulation outputs (makespan, epochs,
// flows, a canonical record digest) plus wall-clock timings, one JSON
// document per invocation. Trajectory records are committed to bench/
// so the repository carries its own performance history, and CI replays
// the regimes against the latest committed baseline.
//
// Wall-clock comparisons across machines are normalised by a calibration
// regime: a small fixed simulation run several times, taking the minimum.
// A regime regresses when
//
//	new.wall > base.wall * (new.calibration/base.calibration) * (1+threshold)
//
// The deterministic fields are compared exactly: a digest or makespan
// drift is a correctness failure, not a performance one.
//
// Usage:
//
//	mtbench -out BENCH_new.json
//	mtbench -out BENCH_new.json -baseline bench/BENCH_6.json -threshold 0.15
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mtier/internal/cli"
	"mtier/internal/core"
	"mtier/internal/flow"
	"mtier/internal/obs"
	"mtier/internal/wal"
	"mtier/internal/workload"
)

// BenchSchema versions the trajectory document.
const BenchSchema = "mtier/bench-trajectory/v1"

// calibrationRuns is how often the calibration regime repeats; the
// minimum wall time is the machine-speed proxy.
const calibrationRuns = 3

type regime struct {
	name string
	cfg  core.Config
}

// regimes returns the fixed benchmark set. Sizes are modest (seconds,
// not minutes, per regime) so CI can afford the sweep; seeds are pinned
// so every deterministic output is comparable across runs and machines.
func regimes() []regime {
	return []regime{
		{"nestghc-allreduce", core.Config{
			Kind: core.NestGHC, Endpoints: 1024, T: 2, U: 4,
			Workload: workload.AllReduce,
			Params:   workload.Params{Seed: 1},
		}},
		{"nestghc-unstructured", core.Config{
			Kind: core.NestGHC, Endpoints: 1024, T: 2, U: 4,
			Workload: workload.UnstructuredApp,
			Params:   workload.Params{Seed: 1},
		}},
		{"nesttree-mapreduce", core.Config{
			Kind: core.NestTree, Endpoints: 1024, T: 2, U: 4,
			Workload: workload.MapReduce,
			Params:   workload.Params{Seed: 1},
		}},
		{"fattree-alltoall", core.Config{
			Kind: core.Fattree, Endpoints: 512,
			Workload: workload.AllToAll,
			Params:   workload.Params{Seed: 1},
		}},
		{"torus-sweep3d", core.Config{
			Kind: core.Torus3D, Endpoints: 1024,
			Workload: workload.Sweep3D,
			Params:   workload.Params{Seed: 1},
		}},
		{"nestghc-parallel4", core.Config{
			Kind: core.NestGHC, Endpoints: 1024, T: 2, U: 4,
			Workload: workload.UnstructuredMgnt,
			Params:   workload.Params{Seed: 1},
			Sim:      flow.Options{Workers: 4},
		}},
		// The paper-scale regime: the full 131,072-endpoint machine,
		// whose link table is never built. Dominated by closed-form
		// routing of the ~2.2M AllReduce flows, it is the trajectory's
		// canary for the closed-form engine's throughput.
		{"nestghc-131k-allreduce", core.Config{
			Kind: core.NestGHC, Endpoints: 131072, T: 4, U: 4,
			Workload: workload.AllReduce,
			Params:   workload.Params{Seed: 1},
			Sim:      flow.Options{Workers: 4},
		}},
	}
}

// calibrationConfig is the machine-speed probe: small enough to repeat,
// large enough to exercise the engine's hot loop.
func calibrationConfig() core.Config {
	return core.Config{
		Kind: core.NestGHC, Endpoints: 512, T: 2, U: 2,
		Workload: workload.AllReduce,
		Params:   workload.Params{Seed: 1},
	}
}

// RegimeResult is one regime's trajectory entry. Makespan, Epochs,
// Flows and RecordSHA256 are deterministic (identical across runs and
// Workers settings); WallSeconds is machine- and load-dependent and only
// compared after calibration scaling.
type RegimeResult struct {
	Name         string  `json:"name"`
	Config       string  `json:"config"`
	MakespanS    float64 `json:"makespan_s"`
	Epochs       int     `json:"epochs"`
	Flows        int     `json:"flows"`
	RecordSHA256 string  `json:"record_sha256"`
	WallSeconds  float64 `json:"wall_seconds"`
}

// Environment pins where a trajectory was recorded.
type Environment struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// Trajectory is the whole benchmark document.
type Trajectory struct {
	Schema             string         `json:"schema"`
	CalibrationSeconds float64        `json:"calibration_seconds"`
	Environment        Environment    `json:"environment"`
	Regimes            []RegimeResult `json:"regimes"`
}

func main() {
	var (
		out       = flag.String("out", "", "write the trajectory JSON to this file (default stdout)")
		baseline  = flag.String("baseline", "", "compare against this committed trajectory and exit non-zero on regression")
		threshold = flag.Float64("threshold", 0.15, "allowed calibrated wall-time growth per regime (0.15 = +15%)")
	)
	p := cli.New("mtbench", flag.CommandLine)
	flag.Parse()
	ctx := p.Start(0)
	if *threshold < 0 {
		p.Exit(fmt.Errorf("negative -threshold %g", *threshold))
	}

	// A writer-less meter: the terminal keeps mtbench's per-regime lines,
	// while /progress serves machine-readable completion.
	traj, err := record(ctx, p.Meter(calibrationRuns+len(regimes()), false))
	p.Check(err)

	write := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(traj)
	}
	if *out == "" {
		err = write(os.Stdout)
	} else {
		err = wal.WriteFile(*out, write)
	}
	p.Check(err)

	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		p.Check(err)
		failures := compare(base, traj, *threshold)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "mtbench: REGRESSION:", f)
		}
		if len(failures) > 0 {
			p.Exit(fmt.Errorf("%d regression(s) against %s", len(failures), *baseline))
		}
		fmt.Fprintf(os.Stderr, "mtbench: %d regime(s) within %.0f%% of %s (calibration ratio %.2f)\n",
			len(traj.Regimes), *threshold*100, *baseline, traj.CalibrationSeconds/base.CalibrationSeconds)
	}
	p.Exit(nil)
}

// record runs calibration and every regime once, collecting the
// trajectory. meter (optional) advances once per calibration run and
// regime for /progress.
func record(ctx context.Context, meter *obs.ProgressMeter) (*Trajectory, error) {
	traj := &Trajectory{
		Schema: BenchSchema,
		Environment: Environment{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
	}
	calib := calibrationConfig()
	best := 0.0
	for i := 0; i < calibrationRuns; i++ {
		start := time.Now()
		if _, err := core.RunContext(ctx, calib, nil); err != nil {
			return nil, fmt.Errorf("calibration run: %w", err)
		}
		if w := time.Since(start).Seconds(); i == 0 || w < best {
			best = w
		}
		meter.Step("calibration")
	}
	traj.CalibrationSeconds = best
	fmt.Fprintf(os.Stderr, "mtbench: calibration %.3fs (min of %d)\n", best, calibrationRuns)

	for _, r := range regimes() {
		start := time.Now()
		res, err := core.RunContext(ctx, r.cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("regime %s: %w", r.name, err)
		}
		wall := time.Since(start).Seconds()
		// The digest must be machine-independent: the run record's
		// environment block (CPU count, GOMAXPROCS) is zeroed alongside
		// the timings Fingerprint already drops.
		rec := res.Record()
		rec.Env = obs.Environment{}
		sum, err := rec.SHA256()
		if err != nil {
			return nil, fmt.Errorf("regime %s: fingerprint: %w", r.name, err)
		}
		traj.Regimes = append(traj.Regimes, RegimeResult{
			Name:         r.name,
			Config:       describe(r.cfg),
			MakespanS:    res.Result.Makespan,
			Epochs:       res.Result.Epochs,
			Flows:        res.Flows,
			RecordSHA256: sum,
			WallSeconds:  wall,
		})
		fmt.Fprintf(os.Stderr, "mtbench: %-22s %.3fs wall, makespan %.6fs, %d epochs\n",
			r.name, wall, res.Result.Makespan, res.Result.Epochs)
		meter.Step(r.name)
	}
	return traj, nil
}

// describe renders a regime's configuration compactly for the record.
func describe(cfg core.Config) string {
	s := fmt.Sprintf("%s n=%d", cfg.Kind, cfg.Endpoints)
	if cfg.T > 0 || cfg.U > 0 {
		s += fmt.Sprintf(" t=%d u=%d", cfg.T, cfg.U)
	}
	s += fmt.Sprintf(" %s seed=%d", cfg.Workload, cfg.Params.Seed)
	if cfg.Sim.Workers > 1 {
		s += fmt.Sprintf(" workers=%d", cfg.Sim.Workers)
	}
	return s
}

func loadBaseline(path string) (*Trajectory, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if t.Schema != BenchSchema {
		return nil, fmt.Errorf("baseline %s has schema %q, want %q", path, t.Schema, BenchSchema)
	}
	if t.CalibrationSeconds <= 0 {
		return nil, fmt.Errorf("baseline %s has no calibration time", path)
	}
	return &t, nil
}

// compare reports every deviation of the new trajectory from the
// baseline: deterministic drift (digest, makespan, epochs, flows — exact
// match required) and calibrated wall-time regressions beyond threshold.
// Regimes present on one side only are reported too: a silently dropped
// regime would otherwise shrink coverage unnoticed.
func compare(base, cur *Trajectory, threshold float64) []string {
	var failures []string
	scale := cur.CalibrationSeconds / base.CalibrationSeconds
	baseByName := map[string]RegimeResult{}
	for _, r := range base.Regimes {
		baseByName[r.Name] = r
	}
	seen := map[string]bool{}
	for _, r := range cur.Regimes {
		seen[r.Name] = true
		b, ok := baseByName[r.Name]
		if !ok {
			// New regimes are fine (the next committed baseline absorbs
			// them) — only note them.
			fmt.Fprintf(os.Stderr, "mtbench: note: regime %s has no baseline entry\n", r.Name)
			continue
		}
		if r.RecordSHA256 != b.RecordSHA256 || r.MakespanS != b.MakespanS ||
			r.Epochs != b.Epochs || r.Flows != b.Flows {
			failures = append(failures, fmt.Sprintf(
				"%s: deterministic drift (makespan %g vs %g, epochs %d vs %d, flows %d vs %d, sha %.12s vs %.12s)",
				r.Name, r.MakespanS, b.MakespanS, r.Epochs, b.Epochs, r.Flows, b.Flows,
				r.RecordSHA256, b.RecordSHA256))
			continue
		}
		limit := b.WallSeconds * scale * (1 + threshold)
		if r.WallSeconds > limit {
			failures = append(failures, fmt.Sprintf(
				"%s: wall %.3fs exceeds calibrated limit %.3fs (baseline %.3fs, calibration ratio %.2f)",
				r.Name, r.WallSeconds, limit, b.WallSeconds, scale))
		}
	}
	for _, b := range base.Regimes {
		if !seen[b.Name] {
			failures = append(failures, fmt.Sprintf("%s: regime missing from the new trajectory", b.Name))
		}
	}
	return failures
}
