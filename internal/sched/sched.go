// Package sched is the job-scheduling substrate of the simulator,
// mirroring INRFlow's "selection, allocation and mapping" policies: jobs
// queue FCFS, an allocation policy picks the endpoints of each job, and
// each running job's communication phase is simulated on the topology to
// obtain its duration.
//
// The package supports both closed-system batches (a fixed job list with
// submit times) and open-system streams (jobs generated from a
// multi-client workload spec via JobsFromSpec). By default concurrently
// running jobs occupy disjoint endpoint sets and are simulated in
// isolation, matching the per-workload methodology of the paper's
// evaluation; Config.SharedFabric additionally replays the accepted
// schedule as one merged simulation with per-job release times, so
// cross-job network interference becomes measurable.
package sched

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"mtier/internal/flow"
	"mtier/internal/topo"
	"mtier/internal/workload"
	"mtier/internal/xrand"
)

// AllocPolicy selects endpoints for a job.
type AllocPolicy string

const (
	// FirstFit allocates the lowest contiguous run of free endpoints,
	// preserving subtorus locality.
	FirstFit AllocPolicy = "firstfit"
	// RandomFit allocates uniformly random free endpoints, modelling a
	// fragmented machine.
	RandomFit AllocPolicy = "randomfit"
)

// ParseAllocPolicy validates a user-supplied allocation policy name.
func ParseAllocPolicy(s string) (AllocPolicy, error) {
	switch AllocPolicy(s) {
	case FirstFit, RandomFit:
		return AllocPolicy(s), nil
	}
	return "", fmt.Errorf("sched: unknown allocation policy %q (valid: %s, %s)", s, FirstFit, RandomFit)
}

// Job is one scheduled application run.
type Job struct {
	// Name labels the job in the trace.
	Name string
	// Workload and Params define the traffic the job generates; Params.Tasks
	// is the number of endpoints the job needs.
	Workload workload.Kind
	Params   workload.Params
	// Submit is the submission time in seconds.
	Submit float64
	// Class is the job's SLO class for per-class metric grouping (empty
	// means "standard"). The scheduler itself stays FCFS across classes.
	Class string
	// Client indexes the client population the job belongs to (open-system
	// streams; -1 or 0 for hand-built batches).
	Client int
	// Spec, when non-nil, overrides the generated workload DAG with a
	// custom one (task-id endpoints in [0, Params.Tasks)). Workload is then
	// only a label.
	Spec *flow.Spec
}

// Event records one job's lifecycle in the resulting schedule trace.
type Event struct {
	Name       string
	Submit     float64
	Start      float64
	End        float64
	Endpoints  []int32
	FlowCount  int
	WaitTime   float64
	RunTime    float64
	Makespan   float64 // == RunTime; the job's communication completion time
	Stretch    float64 // (wait+run)/run
	Allocation AllocPolicy
	// Class is the job's SLO class with the default resolved.
	Class string
	// Client is the job's client population index.
	Client int
	// FabricEnd is the job's completion time in the shared-fabric replay
	// (0 unless Config.SharedFabric is set). FabricEnd >= End - the shared
	// run adds cross-job contention on top of the isolated duration.
	FabricEnd float64
}

// Config parameterises a scheduling run. Topo is required; the zero
// values of the remaining fields are ready to use.
type Config struct {
	// Topo is the machine the jobs run on.
	Topo topo.Topology
	// Alloc is the endpoint-allocation policy. Empty means FirstFit.
	Alloc AllocPolicy
	// Sim tunes the per-job flow simulations.
	Sim flow.Options
	// Seed drives the RandomFit shuffles (per-job sub-streams, so the
	// schedule is independent of evaluation order).
	Seed int64
	// SharedFabric additionally replays the accepted schedule as one
	// merged flow simulation with per-job release times, populating
	// Schedule.Fabric and Event.FabricEnd with contention-aware endings.
	SharedFabric bool
}

// Schedule is the result of a scheduling run: the per-job trace plus the
// aggregate and per-SLO-class metrics of the whole campaign.
type Schedule struct {
	// Events has one entry per job, in input order.
	Events []Event
	// MakespanS is the completion time of the last job, in seconds.
	MakespanS float64 `json:"makespan_s"`
	// MeanWaitS averages queue wait over jobs.
	MeanWaitS float64 `json:"mean_wait_s"`
	// JainFairness is Jain's index over per-job stretches: 1 when every
	// job is slowed equally, towards 1/n when slowdown concentrates.
	JainFairness float64 `json:"jain_fairness"`
	// Classes holds per-SLO-class latency/wait/stretch metrics, ordered
	// strictest class first.
	Classes []ClassMetrics `json:"classes"`
	// Fabric is the shared-fabric replay result (nil unless
	// Config.SharedFabric).
	Fabric *flow.Result `json:"fabric,omitempty"`
}

// completionHeap orders running jobs by end time, job index breaking ties
// so the drain order is a strict total order.
type completionHeap struct {
	end   []float64
	idx   []int
	alloc [][]int32
}

func (h *completionHeap) Len() int { return len(h.end) }
func (h *completionHeap) Less(i, j int) bool {
	if h.end[i] != h.end[j] {
		return h.end[i] < h.end[j]
	}
	return h.idx[i] < h.idx[j]
}
func (h *completionHeap) Swap(i, j int) {
	h.end[i], h.end[j] = h.end[j], h.end[i]
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.alloc[i], h.alloc[j] = h.alloc[j], h.alloc[i]
}
func (h *completionHeap) Push(x any) {
	e := x.(runningJob)
	h.end = append(h.end, e.end)
	h.idx = append(h.idx, e.idx)
	h.alloc = append(h.alloc, e.alloc)
}
func (h *completionHeap) Pop() any {
	n := len(h.end) - 1
	e := runningJob{end: h.end[n], idx: h.idx[n], alloc: h.alloc[n]}
	h.end, h.idx, h.alloc = h.end[:n], h.idx[:n], h.alloc[:n]
	return e
}

type runningJob struct {
	end   float64
	idx   int
	alloc []int32
}

// Run executes the jobs with a background context. See RunContext.
func Run(cfg Config, jobs []Job) (*Schedule, error) {
	return RunContext(context.Background(), cfg, jobs)
}

// RunContext executes the jobs FCFS (no backfilling: the head of the
// queue blocks everyone behind it) and returns the schedule with one
// Event per job, in input order. The loop is event-driven — time advances
// to the next arrival or completion — so a long-waiting job costs no
// simulation work while it queues. Cancelling the context aborts between
// (and inside) per-job simulations.
func RunContext(ctx context.Context, cfg Config, jobs []Job) (*Schedule, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("sched: nil topology")
	}
	if cfg.Alloc == "" {
		cfg.Alloc = FirstFit
	}
	if _, err := ParseAllocPolicy(string(cfg.Alloc)); err != nil {
		return nil, err
	}
	n := cfg.Topo.NumEndpoints()
	used := make([]bool, n)
	free := n
	events := make([]Event, len(jobs))

	// Queue in submission order, stable for equal times: ties keep input
	// order, so equal-submit batches schedule deterministically.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Submit < jobs[order[b]].Submit })

	for _, idx := range order {
		if t := jobs[idx].Params.Tasks; t < 1 || t > n {
			return nil, fmt.Errorf("sched: job %q needs %d endpoints, machine has %d", jobs[idx].Name, t, n)
		}
	}

	active := &completionHeap{}
	now := 0.0
	for _, idx := range order {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sched: canceled at t=%g: %w", now, err)
		}
		job := &jobs[idx]
		if job.Submit > now {
			// The machine may drain while nobody is waiting; completions
			// before the next arrival free endpoints without moving `now`
			// past the arrival itself.
			for active.Len() > 0 && active.end[0] <= job.Submit {
				r := heap.Pop(active).(runningJob)
				for _, ep := range r.alloc {
					used[ep] = false
				}
				free += len(r.alloc)
			}
			now = job.Submit
		}
		tasks := job.Params.Tasks
		for free < tasks || (cfg.Alloc == FirstFit && !hasContiguousRun(used, tasks)) {
			if active.Len() == 0 {
				return nil, fmt.Errorf("sched: job %q cannot be allocated (%d tasks, %d free)", job.Name, tasks, free)
			}
			r := heap.Pop(active).(runningJob)
			if r.end > now {
				now = r.end
			}
			for _, ep := range r.alloc {
				used[ep] = false
			}
			free += len(r.alloc)
		}
		alloc, err := allocate(cfg.Alloc, cfg.Seed, used, tasks, idx)
		if err != nil {
			return nil, err
		}
		for _, ep := range alloc {
			used[ep] = true
		}
		free -= tasks

		spec, err := jobSpec(job)
		if err != nil {
			return nil, err
		}
		mapped := mapSpec(spec, alloc, 0)
		res, err := flow.SimulateContext(ctx, cfg.Topo, mapped, cfg.Sim)
		if err != nil {
			return nil, fmt.Errorf("sched: job %q: %w", job.Name, err)
		}
		start := now
		end := start + res.Makespan
		heap.Push(active, runningJob{end: end, alloc: alloc, idx: idx})
		run := res.Makespan
		wait := start - job.Submit
		stretch := 1.0
		if run > 0 {
			stretch = (wait + run) / run
		}
		class, err := workload.ParseSLOClass(job.Class)
		if err != nil {
			return nil, fmt.Errorf("sched: job %q: %w", job.Name, err)
		}
		events[idx] = Event{
			Name:       job.Name,
			Submit:     job.Submit,
			Start:      start,
			End:        end,
			Endpoints:  alloc,
			FlowCount:  len(spec.Flows),
			WaitTime:   wait,
			RunTime:    run,
			Makespan:   run,
			Stretch:    stretch,
			Allocation: cfg.Alloc,
			Class:      class,
			Client:     job.Client,
		}
	}

	sch := &Schedule{Events: events}
	sch.summarise()
	if cfg.SharedFabric {
		if err := sch.replayShared(ctx, cfg, jobs); err != nil {
			return nil, err
		}
	}
	return sch, nil
}

// jobSpec builds (or passes through) the job's flow DAG in task-id space.
func jobSpec(job *Job) (*flow.Spec, error) {
	if job.Spec != nil {
		return job.Spec, nil
	}
	spec, err := workload.Generate(job.Workload, job.Params)
	if err != nil {
		return nil, fmt.Errorf("sched: job %q: %w", job.Name, err)
	}
	return spec, nil
}

// mapSpec rebases a task-id DAG onto allocated endpoints, releasing every
// flow no earlier than `start` (0 preserves plain dependency semantics).
func mapSpec(spec *flow.Spec, alloc []int32, start float64) *flow.Spec {
	mapped := &flow.Spec{Flows: make([]flow.Flow, len(spec.Flows))}
	for i, f := range spec.Flows {
		mapped.Flows[i] = flow.Flow{Src: alloc[f.Src], Dst: alloc[f.Dst], Bytes: f.Bytes, Deps: f.Deps, Start: start}
	}
	return mapped
}

// replayShared re-simulates the accepted schedule as one merged flow spec
// on the shared fabric: every job's flows are release-gated at its
// scheduled start, so concurrent jobs now contend for links instead of
// running in isolated copies of the machine. Event.FabricEnd records each
// job's contention-aware completion.
func (sch *Schedule) replayShared(ctx context.Context, cfg Config, jobs []Job) error {
	merged := &flow.Spec{}
	type span struct{ lo, hi int }
	spans := make([]span, len(sch.Events))
	for i := range sch.Events {
		ev := &sch.Events[i]
		spec, err := jobSpec(&jobs[i])
		if err != nil {
			return err
		}
		base := int32(len(merged.Flows))
		spans[i] = span{lo: int(base), hi: int(base) + len(spec.Flows)}
		for _, f := range spec.Flows {
			deps := make([]int32, len(f.Deps))
			for j, d := range f.Deps {
				deps[j] = d + base
			}
			merged.Flows = append(merged.Flows, flow.Flow{
				Src:   ev.Endpoints[f.Src],
				Dst:   ev.Endpoints[f.Dst],
				Bytes: f.Bytes,
				Deps:  deps,
				Start: ev.Start,
			})
		}
	}
	opt := cfg.Sim
	opt.RecordFlowEnds = true
	res, err := flow.SimulateContext(ctx, cfg.Topo, merged, opt)
	if err != nil {
		return fmt.Errorf("sched: shared-fabric replay: %w", err)
	}
	for i := range sch.Events {
		end := sch.Events[i].Start
		for f := spans[i].lo; f < spans[i].hi; f++ {
			if res.FlowEnds[f] > end {
				end = res.FlowEnds[f]
			}
		}
		sch.Events[i].FabricEnd = end
	}
	res.FlowEnds = nil // per-flow detail served its purpose; keep records lean
	sch.Fabric = res
	return nil
}

func hasContiguousRun(used []bool, k int) bool {
	run := 0
	for _, u := range used {
		if u {
			run = 0
			continue
		}
		run++
		if run >= k {
			return true
		}
	}
	return false
}

func allocate(policy AllocPolicy, seed int64, used []bool, k, jobIdx int) ([]int32, error) {
	switch policy {
	case FirstFit:
		run := 0
		for i := range used {
			if used[i] {
				run = 0
				continue
			}
			run++
			if run == k {
				out := make([]int32, k)
				for j := 0; j < k; j++ {
					out[j] = int32(i - k + 1 + j)
				}
				return out, nil
			}
		}
		return nil, fmt.Errorf("sched: no contiguous run of %d endpoints", k)
	case RandomFit:
		var freeList []int32
		for i, u := range used {
			if !u {
				freeList = append(freeList, int32(i))
			}
		}
		if len(freeList) < k {
			return nil, fmt.Errorf("sched: only %d endpoints free, need %d", len(freeList), k)
		}
		rng := xrand.New(seed).SplitN("alloc", jobIdx)
		rng.Shuffle32(freeList)
		out := freeList[:k]
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		return out, nil
	default:
		return nil, fmt.Errorf("sched: unknown allocation policy %q", policy)
	}
}
