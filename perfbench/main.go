// Command perfbench is the repository benchmark. It times the simulator
// on four workloads from outside, by calling the public entry points of
// each layer (core.Build, workload.Generate, place.Mapping/Apply,
// fault.Generate/Wrap, flow.SimulateContext, core.RunContext,
// core.PanelContext, core.DegradationSweepContext, sched.JobsFromSpec,
// sched.RunContext and core.OpenRun), and checks every repetition's
// results against golden record fingerprints and workload invariants.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload faults-allreduce --seed 1 --seconds 50 --trace 0
//
// --workload is one of paper131k, panel-mgnt, faults-allreduce,
// open-shared, or all (every workload in turn, in one process). With
// --trace 0 the last line of standard output is one JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a traced pass. A table of every metric goes to standard error, and a
// JSON report with every sample and span to the --out directory, on every
// exit path. The exit status is 0 only when every check passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"mtier/internal/obs"
)

// Repetition counts. A workload runs one untimed warm-up repetition, then
// timed repetitions until --seconds have passed and at least minReps of
// them were quiet (minPairs untraced/traced pairs with --trace 1). A
// repetition is quiet when the hypervisor stole at most quietSteal of the
// machine's CPU time while it ran. A run short of quiet repetitions goes on
// while the next one still ends within overrun × --seconds. Set-up repeats
// at least setupReps times and for setupSeconds, at most setupMaxReps times.
const (
	minReps      = 3
	minPairs     = 1
	quietSteal   = 0.05
	overrun      = 1.3
	setupReps    = 7
	setupSeconds = 0.5
	setupMaxReps = 1000
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"flows_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. Times are self times of one
// repetition; counts are per repetition.
var perLayer = []metricDef{
	{"topo.build_s", "s", "lower"},
	{"topo.alloc_mb", "MB", "lower"},
	{"topo.route_s", "s", "lower"},
	{"topo.routes", "count", "lower"},
	{"topo.route_hops", "count", "lower"},
	{"topo.pair_reuse_ratio", "ratio", "higher"},
	{"workload.generate_s", "s", "lower"},
	{"workload.flows", "count", "lower"},
	{"workload.bytes", "bytes", "lower"},
	{"workload.alloc_mb", "MB", "lower"},
	{"place.apply_s", "s", "lower"},
	{"fault.generate_s", "s", "lower"},
	{"fault.wrap_s", "s", "lower"},
	{"fault.failed_links", "count", "lower"},
	{"fault.detours", "count", "lower"},
	{"fault.path_stretch_mean", "ratio", "lower"},
	{"flow.simulations", "count", "lower"},
	{"flow.prepare_s", "s", "lower"},
	{"flow.waterfill_s", "s", "lower"},
	{"flow.run_other_s", "s", "lower"},
	{"flow.epochs", "count", "lower"},
	{"flow.epochs_per_flow", "ratio", "lower"},
	{"flow.waterfill.full", "count", "lower"},
	{"flow.waterfill.incremental", "count", "higher"},
	{"flow.incremental_ratio", "ratio", "higher"},
	{"flow.waterfill.affected_flows_per_epoch", "count", "lower"},
	{"flow.waterfill.dirty_links_per_epoch", "count", "lower"},
	{"flow.fault.disconnected_flows", "count", "lower"},
	{"flow.alloc_mb", "MB", "lower"},
	{"rep.alloc_mb", "MB", "lower"},
	{"core.cells", "count", "lower"},
	{"core.cell_s_p50", "s", "lower"},
	{"core.cell_s_tail", "s", "lower"},
	{"core.parallel_efficiency", "ratio", "higher"},
	{"sched.jobs", "count", "lower"},
	{"sched.jobs_from_spec_s", "s", "lower"},
	{"sched.job_sim_s", "s", "lower"},
	{"sched.fabric_s", "s", "lower"},
	{"sched.loop_s", "s", "lower"},
	{"sched.fabric_epochs", "count", "lower"},
	{"gc.cpu_s", "s", "lower"},
	{"gc.cycles", "count", "lower"},
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

func main() { os.Exit(run(os.Args[1:], catalog(), os.Stdout, os.Stderr)) }

type options struct {
	seed    int64
	seconds float64
	traced  bool
}

// run is the whole command; it returns the exit status after every
// deferred flush (profiles, reports) has run.
func run(args []string, defs []*workloadDef, stdout, stderr io.Writer) int {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed (golden fingerprints are pinned at 1)")
	seconds := fs.Float64("seconds", 50, "measurement time per workload, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench", "out"), "directory for the JSON reports")
	prof := obs.AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []*workloadDef
	for _, d := range defs {
		if *name == d.name || *name == "all" {
			selected = append(selected, d)
		}
	}
	switch {
	case len(selected) == 0:
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want %s or all)\n", *name, strings.Join(names, ", "))
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	case *seconds < 0:
		fmt.Fprintf(stderr, "perfbench: negative -seconds %g\n", *seconds)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer stopProfiles()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opt := options{seed: *seed, seconds: *seconds, traced: *traced == 1}
	var results []*result
	for _, d := range selected {
		r := measure(ctx, d, opt)
		results = append(results, r)
		if err := r.write(*out); err != nil {
			r.fail("writing report: %v", err)
		}
		r.print(stderr)
	}

	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, m := range r.defs() {
			key := m.name
			if len(results) > 1 {
				key = r.Workload + "/" + m.name
			}
			line.Metrics[key] = metricValue{Value: r.Metrics[m.name], Unit: m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's measurement, written out as its report.
type result struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailRatio float64  `json:"fail_ratio"`
	Errors    []string `json:"errors,omitempty"`
	// NoisyReps counts the timed repetitions left out of wall_s because
	// the hypervisor stole more than quietSteal of the machine meanwhile.
	NoisyReps   int                  `json:"noisy_repetitions"`
	Fingerprint string               `json:"fingerprint"`
	Golden      string               `json:"golden,omitempty"`
	Metrics     map[string]float64   `json:"metrics"`
	Samples     map[string][]float64 `json:"samples"`
	Spans       []span               `json:"spans"`
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// measure sets up and runs one workload, gating every repetition.
func measure(ctx context.Context, w *workloadDef, opt options) *result {
	r := &result{Workload: w.name, Why: w.why, Seed: opt.seed, Traced: opt.traced, Correct: true,
		Metrics: map[string]float64{}, Samples: map[string][]float64{}}
	if opt.seed == defaultSeed {
		r.Golden = w.golden
	}
	log := newSpanLog()
	defer func() {
		r.Spans = log.list
		if r.Attempted > 0 {
			r.FailRatio = float64(r.Failed) / float64(r.Attempted)
		}
	}()
	releaseMemory()
	inst := setup(ctx, w, opt.seed, r, log)
	if inst == nil {
		r.Attempted, r.Failed = 1, 1
		return r
	}

	perRep := 1 // cells or jobs a repetition attempts, once known
	var first *outcome
	var repSpan int // span id of the latest repetition
	// rep runs and gates one repetition; nil means it failed.
	rep := func(run int, h *hooks) (*outcome, repSample) {
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			r.fail("resetting peak RSS: %v", err)
		}
		before, steal := readRuntime(), stealSeconds()
		t0 := time.Now()
		o, err := guarded(ctx, inst.rep, h)
		t1 := time.Now()
		after, steal := readRuntime(), stealSeconds()-steal
		peak, perr := peakRSSMB()
		if perr != nil {
			r.fail("reading peak RSS: %v", perr)
		}
		name := "bench.rep"
		if h != nil {
			name = "bench.rep.traced"
		}
		repSpan = log.add(name, 0, run, t0, t1)
		if err != nil {
			r.Attempted += perRep
			r.Failed += perRep
			r.fail("repetition %d: %v", run, err)
			return nil, repSample{}
		}
		perRep = o.attempted
		r.Attempted += o.attempted
		ok := true
		if o.invariant != nil {
			ok = false
			r.fail("repetition %d: invariant: %v", run, o.invariant)
		}
		if first == nil {
			first = o
			r.Fingerprint = o.fingerprint
			if r.Golden != "" && o.fingerprint != r.Golden {
				ok = false
				r.fail("fingerprint %s differs from the golden %s", o.fingerprint, r.Golden)
			}
		} else if o.fingerprint != first.fingerprint {
			ok = false
			r.fail("repetition %d (traced=%v): fingerprint %s differs from the first repetition's %s",
				run, h != nil, o.fingerprint, first.fingerprint)
		}
		if !ok {
			r.Failed += o.attempted
		}
		wall := t1.Sub(t0).Seconds()
		return o, repSample{wall: wall, stolen: steal / (wall * float64(runtime.NumCPU())), peakMB: peak,
			rt: runtimeSample{allocs: after.allocs - before.allocs, gcCycles: after.gcCycles - before.gcCycles,
				gcCPU: after.gcCPU - before.gcCPU}}
	}

	start := time.Now()
	warm, _ := rep(0, nil)
	if warm == nil {
		return r
	}
	if inst.verify != nil {
		if err := inst.verify(ctx, warm); err != nil {
			r.Failed += warm.attempted
			r.fail("verify: %v", err)
		}
	}
	need := minReps
	if opt.traced {
		need = minPairs
	}
	var layers []map[string]float64
	var longest float64 // the longest loop iteration so far, in seconds
	for run, done := 1, 0; ; run++ {
		iter := time.Now()
		o, s := rep(run, nil)
		if o == nil {
			return r
		}
		r.sample("wall_s", s.wall)
		r.sample("host.stolen_share", s.stolen)
		r.sample("peak_rss_mb", s.peakMB)
		r.sample("rep.alloc_mb", float64(s.rt.allocs)/1e6)
		r.sample("gc.cpu_s", s.rt.gcCPU)
		r.sample("gc.cycles", float64(s.rt.gcCycles))
		busy, slowest := 0.0, 0.0
		for _, b := range o.cellBusy {
			busy += b
			slowest = max(slowest, b)
		}
		r.sample("core.cell_s_p50", median(o.cellBusy))
		r.sample("core.cell_s_tail", slowest)
		r.sample("core.parallel_efficiency", busy/(s.wall*threads))
		if opt.traced {
			h := newHooks()
			to, ts := rep(run, h)
			if to == nil {
				return r
			}
			r.sample("trace.wall_s", ts.wall)
			lm, err := layerMetrics(ctx, to, h, log, repSpan, run)
			if err != nil {
				r.fail("repetition %d: layer replay: %v", run, err)
				return r
			}
			layers = append(layers, lm)
		}
		done++
		longest = max(longest, time.Since(iter).Seconds())
		elapsed := time.Since(start).Seconds()
		if done < need {
			continue
		}
		if elapsed >= opt.seconds && quietCount(r.Samples["host.stolen_share"]) >= need {
			break
		}
		if elapsed+longest > overrun*opt.seconds {
			break
		}
	}

	walls, noisy := quietWalls(r.Samples["wall_s"], r.Samples["host.stolen_share"], need)
	r.NoisyReps = noisy
	wall := median(walls)
	r.Metrics["wall_s"] = wall
	r.Metrics["flows_per_s"] = float64(first.flows) / wall
	r.Metrics["setup_s"] = median(r.Samples["setup_s"])
	r.Metrics["peak_rss_mb"] = median(r.Samples["peak_rss_mb"])
	if !opt.traced {
		return r
	}

	for _, k := range []string{"topo.build_s", "topo.alloc_mb", "rep.alloc_mb", "gc.cpu_s", "gc.cycles",
		"core.cell_s_p50", "core.cell_s_tail", "core.parallel_efficiency", "trace.wall_s"} {
		r.Metrics[k] = median(r.Samples[k])
	}
	r.Metrics["core.cells"] = float64(len(first.cellBusy))
	r.Metrics["trace.overhead_ratio"] = r.Metrics["trace.wall_s"] / wall
	for k := range layers[0] {
		vals := make([]float64, len(layers))
		for i, lm := range layers {
			vals[i] = lm[k]
		}
		r.Samples[k] = vals
		r.Metrics[k] = median(vals)
	}
	return r
}

// repSample is what the benchmark measured around one repetition.
type repSample struct {
	wall   float64 // host seconds
	stolen float64 // share of the machine's CPU time the hypervisor stole meanwhile
	peakMB float64 // resident-set high-water mark
	rt     runtimeSample
}

// quietCount counts the repetitions whose stolen share is at most quietSteal.
func quietCount(stolen []float64) int {
	n := 0
	for _, s := range stolen {
		if s <= quietSteal {
			n++
		}
	}
	return n
}

// quietWalls returns the wall times of the quiet repetitions, or, when
// fewer than need were quiet, of the need least-stolen ones; noisy counts
// the repetitions left out.
func quietWalls(walls, stolen []float64, need int) (quiet []float64, noisy int) {
	for i, w := range walls {
		if stolen[i] <= quietSteal {
			quiet = append(quiet, w)
		}
	}
	if len(quiet) < need {
		idx := make([]int, len(walls))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return stolen[idx[a]] < stolen[idx[b]] })
		quiet = quiet[:0]
		for _, i := range idx[:min(need, len(idx))] {
			quiet = append(quiet, walls[i])
		}
	}
	return quiet, len(walls) - len(quiet)
}

// guarded runs one repetition, reporting a panic outside the core
// runner's cell isolation as the repetition's error.
func guarded(ctx context.Context, rep func(context.Context, *hooks) (*outcome, error), h *hooks) (o *outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			o, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return rep(ctx, h)
}

func (r *result) sample(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }

// setup runs the workload's set-up repeatedly, sampling setup_s,
// topo.build_s and topo.alloc_mb, and returns the last instance (nil when
// set-up failed).
func setup(ctx context.Context, w *workloadDef, seed int64, r *result, log *spanLog) *instance {
	var inst *instance
	start := time.Now()
	for i := 0; i < setupMaxReps && (i < setupReps || time.Since(start).Seconds() < setupSeconds); i++ {
		runtime.GC()
		a0 := allocBytes()
		t0 := time.Now()
		in, err := w.setup(ctx, seed)
		t1 := time.Now()
		log.add("bench.setup", 0, i, t0, t1)
		if err != nil {
			r.fail("set-up: %v", err)
			return nil
		}
		r.sample("setup_s", t1.Sub(t0).Seconds())
		r.sample("topo.build_s", in.build)
		r.sample("topo.alloc_mb", float64(allocBytes()-a0)/1e6)
		inst = in
	}
	return inst
}

// layerMetrics turns one traced repetition into per-layer values: the
// program's hooks give the flow engine's phases and counters, and a
// replay of the repetition's inputs through the public layer calls gives
// the workload, placement, fault and routing layers.
func layerMetrics(ctx context.Context, o *outcome, h *hooks, log *spanLog, repSpan, run int) (map[string]float64, error) {
	t0 := time.Now()
	root := log.add("bench.replay", 0, run, t0, t0)
	st, err := replay(ctx, o.sets, log, root, run)
	if err != nil {
		return nil, err
	}
	log.end(root, time.Now())
	pt := foldPhases(h, log, repSpan, run)
	snap := h.reg.Snapshot()
	counter := func(name string) float64 { return float64(snap.Counters[name]) }

	epochs := counter("flow.epochs")
	if probed := float64(h.probe.epochs.Load()); probed != epochs {
		return nil, fmt.Errorf("probe saw %g epochs, the registry counted %g", probed, epochs)
	}
	waterfill := float64(h.probe.wallNs.Load()) / 1e9
	full, inc := counter("flow.waterfill.full"), counter("flow.waterfill.incremental")
	m := map[string]float64{
		"topo.route_s":                            st.route,
		"topo.routes":                             float64(st.routes),
		"topo.route_hops":                         float64(st.hops),
		"topo.pair_reuse_ratio":                   ratio(float64(st.pairs-st.distinct), float64(st.pairs)),
		"workload.generate_s":                     st.generate,
		"workload.flows":                          float64(st.flows),
		"workload.bytes":                          st.bytes,
		"workload.alloc_mb":                       float64(st.workloadAlloc) / 1e6,
		"flow.alloc_mb":                           float64(st.flowAlloc) / 1e6,
		"place.apply_s":                           st.apply,
		"fault.generate_s":                        st.faultGen,
		"fault.wrap_s":                            st.faultWrap,
		"fault.failed_links":                      float64(st.failedLinks),
		"fault.detours":                           counter("fault.detour_routes"),
		"fault.path_stretch_mean":                 snap.Histograms["fault.path_stretch"].Mean,
		"flow.simulations":                        float64(pt.count["flow.prepare"]),
		"flow.prepare_s":                          pt.sum["flow.prepare"],
		"flow.waterfill_s":                        waterfill,
		"flow.run_other_s":                        pt.sum["flow.run"] - waterfill,
		"flow.epochs":                             epochs,
		"flow.epochs_per_flow":                    ratio(epochs, float64(o.flows)),
		"flow.waterfill.full":                     full,
		"flow.waterfill.incremental":              inc,
		"flow.incremental_ratio":                  ratio(inc, full+inc),
		"flow.fault.disconnected_flows":           counter("flow.fault.disconnected_flows"),
		"flow.waterfill.affected_flows_per_epoch": ratio(counter("flow.waterfill.affected_flows"), epochs),
		"flow.waterfill.dirty_links_per_epoch":    ratio(counter("flow.waterfill.dirty_links"), epochs),
	}
	for _, k := range []string{"sched.jobs", "sched.jobs_from_spec_s", "sched.job_sim_s", "sched.fabric_s",
		"sched.loop_s", "sched.fabric_epochs"} {
		m[k] = 0
	}
	if s := o.sched; s != nil {
		sims := pt.sum["flow.prepare"] + pt.sum["flow.run"]
		fabric := pt.last["flow.prepare"] + pt.last["flow.run"]
		m["sched.jobs"] = float64(s.jobs)
		m["sched.jobs_from_spec_s"] = s.jobsFromSpec
		m["sched.fabric_s"] = fabric
		m["sched.job_sim_s"] = sims - fabric
		m["sched.loop_s"] = s.runContext - sims
		m["sched.fabric_epochs"] = float64(s.fabricEpochs)
	}
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// write stores the report as <workload>-seed<seed>-trace<0|1>.json.
func (r *result) write(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if r.Traced {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, t)), b, 0o644)
}

// print renders the result as a table on w.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench: %s seed=%d trace=%v: %d attempted, %d failed (fail_ratio %g), %d timed repetitions (%d noisy), fingerprint %.16s\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.FailRatio, len(r.Samples["wall_s"]), r.NoisyReps, r.Fingerprint)
	defs := append([]metricDef(nil), endToEnd...)
	if r.Traced {
		defs = append(defs, perLayer...)
	}
	for _, m := range defs {
		if v, ok := r.Metrics[m.name]; ok {
			fmt.Fprintf(w, "  %-42s %14.6g %-6s n=%d\n", m.name, v, m.unit, len(r.Samples[m.name]))
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  FAIL:", e)
	}
}
