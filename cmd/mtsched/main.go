// Command mtsched is the open-system traffic driver: a multi-client
// workload spec (or a built-in default mix) generates a streamed job
// arrival process, the jobs are scheduled FCFS onto one machine under a
// chosen allocation policy, and the schedule is reported with per-job
// waits/stretch and per-SLO-class latency percentiles. The whole pipeline
// is deterministic: the same spec, seed and machine produce a
// byte-identical record for every -workers setting.
//
// Usage:
//
//	mtsched -spec examples/specs/mixed.yaml -topo nestghc -n 2048
//	mtsched -jobs 12 -rate 100 -alloc randomfit -json
//	mtsched -spec spec.yaml -duration 2.5 -shared -json > record.json
//	mtsched -spec spec.yaml -topo torus -n 64 -record > run-record.json
//	mtsched -spec spec.yaml -topo torus -n 64 -fingerprint  # digest only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mtier/internal/arrival"
	"mtier/internal/cli"
	"mtier/internal/core"
	"mtier/internal/flow"
	"mtier/internal/sched"
	"mtier/internal/workload"
)

func main() {
	var (
		topoName  = flag.String("topo", "nestghc", "topology kind")
		n         = flag.Int("n", 2048, "machine size (QFDBs)")
		tFlag     = flag.Int("t", 2, "subtorus nodes per dimension (hybrids)")
		uFlag     = flag.Int("u", 2, "one uplink per u QFDBs (hybrids)")
		specPath  = flag.String("spec", "", "multi-client workload spec file (YAML or JSON)")
		jobs      = flag.Int("jobs", 0, "cap the job stream at this many arrivals (0 = spec value)")
		duration  = flag.Float64("duration", 0, "cap the arrival stream at this horizon in seconds (0 = spec value)")
		rate      = flag.Float64("rate", 200, "aggregate arrival rate in jobs/s (built-in spec only)")
		alloc     = flag.String("alloc", "firstfit", "allocation policy: firstfit|randomfit")
		seed      = flag.Int64("seed", 1, "experiment seed (overrides the spec seed when set explicitly)")
		shared    = flag.Bool("shared", false, "replay the schedule on a shared fabric to measure cross-job interference")
		workers   = flag.Int("workers", 0, "intra-run worker threads; results are identical for every value (0 = GOMAXPROCS, 1 = serial)")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
		jsonOut   = flag.Bool("json", false, "emit the schedule as a schema'd JSON document")
		recordOut = flag.Bool("record", false, "emit the schema v3 run record (the document mtserve's /v1/open serves) instead of the sched document")
		fpOut     = flag.Bool("fingerprint", false, "print only the hex sha256 of the run record's canonical (timing-stripped) form")
	)
	flag.Var(aliasValue{flag.Lookup("spec").Value}, "workload-spec", "alias of -spec")
	p := cli.New("mtsched", flag.CommandLine)
	flag.Parse()
	ctx := p.Start(*timeout)

	kind, err := core.ParseTopoKind(*topoName)
	p.Check(err)
	_, err = sched.ParseAllocPolicy(*alloc)
	p.Check(err)

	tspec := core.TopoSpec{Kind: kind, Endpoints: *n}
	switch kind {
	case core.NestTree, core.NestGHC:
		tspec.T, tspec.U = *tFlag, *uFlag
	}
	top, err := core.Build(tspec)
	p.Check(err)

	spec, err := loadOrDefaultSpec(*specPath, top.NumEndpoints(), *rate)
	p.Check(err)
	// Explicit CLI bounds/seed override the spec's.
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	if seedSet || spec.Seed == 0 {
		spec.Seed = *seed
	}
	if *jobs > 0 {
		spec.Jobs = *jobs
	}
	if *duration > 0 {
		spec.Duration = *duration
	}
	p.Check(spec.Validate())

	// The run itself goes through core.OpenRun — the exact pipeline the
	// mtserve daemon executes for /v1/open — so -record and -fingerprint
	// are byte-comparable with the service's responses.
	or := core.OpenRun{
		Topo:    tspec,
		Spec:    spec,
		Alloc:   sched.AllocPolicy(*alloc),
		Shared:  *shared,
		Workers: *workers,
		Metrics: p.Metrics,
	}
	cell, err := or.RunContext(ctx, top)
	p.Check(err)

	switch {
	case *fpOut:
		sum, err := cell.Record(or.Config()).SHA256()
		p.Check(err)
		fmt.Println(sum)
	case *recordOut:
		err = cell.Record(or.Config()).WriteJSON(os.Stdout)
	case *jsonOut:
		err = writeJSON(os.Stdout, cell.Topology, top.NumEndpoints(), *alloc, spec, cell.Jobs, cell.Schedule)
	default:
		printText(os.Stdout, cell.Topology, top.NumEndpoints(), *alloc, spec, cell.Jobs, cell.Schedule)
	}
	p.Exit(err)
}

// aliasValue lets a second flag name write through to an existing flag.
type aliasValue struct{ flag.Value }

// loadOrDefaultSpec loads the -spec file, or falls back to a built-in
// two-client mix (latency-sensitive interactive traffic vs bursty batch
// training) sized to the machine.
func loadOrDefaultSpec(path string, endpoints int, rate float64) (*workload.OpenSpec, error) {
	if path != "" {
		return workload.LoadSpec(path)
	}
	tasks := endpoints / 8
	if tasks < 2 {
		tasks = 2
	}
	return &workload.OpenSpec{
		Schema:        workload.SpecSchema,
		AggregateRate: rate,
		Jobs:          16,
		Clients: []workload.ClientSpec{
			{
				Name:         "interactive",
				RateFraction: 0.5,
				SLOClass:     workload.SLOCritical,
				Workload:     workload.AllReduce,
				Params:       workload.Params{Tasks: tasks, MsgBytes: 1e6},
			},
			{
				Name:         "batch",
				RateFraction: 0.5,
				SLOClass:     workload.SLOBatch,
				Workload:     workload.UnstructuredApp,
				Arrival:      arrival.Spec{Process: arrival.Gamma, CV: 2},
				Params:       workload.Params{Tasks: 2 * tasks, MsgBytes: 4e6},
			},
		},
	}, nil
}

// schedJob is one scheduled job in the JSON document.
type schedJob struct {
	Name      string  `json:"name"`
	Workload  string  `json:"workload"`
	Client    string  `json:"client"`
	Class     string  `json:"class"`
	Tasks     int     `json:"tasks"`
	Submit    float64 `json:"submit_s"`
	Start     float64 `json:"start_s"`
	End       float64 `json:"end_s"`
	Run       float64 `json:"run_s"`
	Wait      float64 `json:"wait_s"`
	Stretch   float64 `json:"stretch"`
	Flows     int     `json:"flows"`
	FabricEnd float64 `json:"fabric_end_s,omitempty"`
}

// schedDocument is the schema'd JSON form of one mtsched run.
// History: v1 — closed-system synthetic stream (machine, jobs, makespan,
// mean wait). v2 (PR 7) — open-system redesign: the generating spec is
// echoed, jobs carry client/SLO class (and shared-fabric endings when
// requested), and per-class latency percentiles plus Jain fairness are
// reported.
type schedDocument struct {
	Schema       string               `json:"schema"`
	Machine      string               `json:"machine"`
	Endpoints    int                  `json:"endpoints"`
	Allocation   string               `json:"allocation"`
	Seed         int64                `json:"seed"`
	Spec         *workload.OpenSpec   `json:"spec,omitempty"`
	Jobs         []schedJob           `json:"jobs"`
	MakespanS    float64              `json:"makespan_s"`
	MeanWaitS    float64              `json:"mean_wait_s"`
	JainFairness float64              `json:"jain_fairness"`
	Classes      []sched.ClassMetrics `json:"classes"`
	Fabric       *flow.Result         `json:"fabric,omitempty"`
}

func buildDocument(machine string, endpoints int, alloc string, spec *workload.OpenSpec, jobs []sched.Job, sch *sched.Schedule) schedDocument {
	doc := schedDocument{
		Schema:       "mtier/sched-record/v2",
		Machine:      machine,
		Endpoints:    endpoints,
		Allocation:   alloc,
		Seed:         spec.Seed,
		Spec:         spec,
		Jobs:         make([]schedJob, len(sch.Events)),
		MakespanS:    sch.MakespanS,
		MeanWaitS:    sch.MeanWaitS,
		JainFairness: sch.JainFairness,
		Classes:      sch.Classes,
		Fabric:       sch.Fabric,
	}
	for i, e := range sch.Events {
		doc.Jobs[i] = schedJob{
			Name:      e.Name,
			Workload:  string(jobs[i].Workload),
			Client:    spec.Clients[e.Client].Name,
			Class:     e.Class,
			Tasks:     jobs[i].Params.Tasks,
			Submit:    e.Submit,
			Start:     e.Start,
			End:       e.End,
			Run:       e.RunTime,
			Wait:      e.WaitTime,
			Stretch:   e.Stretch,
			Flows:     e.FlowCount,
			FabricEnd: e.FabricEnd,
		}
	}
	return doc
}

func writeJSON(w io.Writer, machine string, endpoints int, alloc string, spec *workload.OpenSpec, jobs []sched.Job, sch *sched.Schedule) error {
	doc := buildDocument(machine, endpoints, alloc, spec, jobs, sch)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func printText(w io.Writer, machine string, endpoints int, alloc string, spec *workload.OpenSpec, jobs []sched.Job, sch *sched.Schedule) {
	fmt.Fprintf(w, "machine: %s (%d endpoints), allocation: %s, %d jobs from %d clients\n\n",
		machine, endpoints, alloc, len(jobs), len(spec.Clients))
	fmt.Fprintf(w, "%-24s %-10s %6s %8s %10s %10s %8s %7s\n",
		"job", "class", "tasks", "submit", "start", "end", "wait", "stretch")
	for i, e := range sch.Events {
		fmt.Fprintf(w, "%-24s %-10s %6d %8.4f %10.4f %10.4f %8.4f %7.2f\n",
			e.Name, e.Class, jobs[i].Params.Tasks, e.Submit, e.Start, e.End, e.WaitTime, e.Stretch)
	}
	fmt.Fprintf(w, "\nmakespan: %.4f s   mean wait: %.4f s   Jain fairness: %.3f\n",
		sch.MakespanS, sch.MeanWaitS, sch.JainFairness)
	fmt.Fprintf(w, "\n%-12s %5s %10s %10s %10s %10s %9s\n",
		"class", "jobs", "p50 lat", "p95 lat", "p99 lat", "mean wait", "stretch")
	for _, cm := range sch.Classes {
		fmt.Fprintf(w, "%-12s %5d %10.4f %10.4f %10.4f %10.4f %9.2f\n",
			cm.Class, cm.Jobs, cm.P50LatencyS, cm.P95LatencyS, cm.P99LatencyS, cm.MeanWaitS, cm.MeanStretch)
	}
	if sch.Fabric != nil {
		fmt.Fprintf(w, "\nshared fabric: makespan %.4f s, max link util %.3f, mean link util %.3f\n",
			sch.Fabric.Makespan, sch.Fabric.MaxLinkUtilization, sch.Fabric.MeanLinkUtilization)
	}
}
