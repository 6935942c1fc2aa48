package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mtier/internal/fault"
	"mtier/internal/flow"
	"mtier/internal/obs"
	"mtier/internal/place"
	"mtier/internal/topo"
	"mtier/internal/trace"
	"mtier/internal/workload"
)

// hooks are the program's own instrumentation points, attached to a
// traced repetition: the flight recorder (flow.prepare / flow.run /
// flow.waterfill spans), the per-epoch probe and the counter registry.
// A nil *hooks leaves them off.
type hooks struct {
	tracer *trace.Recorder
	probe  *epochProbe
	reg    *obs.Registry
	// t0 is when tracer's clock started, on the benchmark's clock.
	t0 time.Time
}

func newHooks() *hooks {
	return &hooks{t0: time.Now(), tracer: trace.NewRecorder(), probe: &epochProbe{}, reg: obs.NewRegistry()}
}

// sim attaches the hooks to flow options.
func (h *hooks) sim(o flow.Options) flow.Options {
	if h != nil {
		o.Tracer, o.Probe, o.Metrics = h.tracer, h.probe, h.reg
	}
	return o
}

// epochProbe sums the per-epoch snapshots of every simulation it is
// attached to. A runner with parallel cells calls it concurrently, so it
// counts atomically.
type epochProbe struct {
	epochs, wallNs, affected, dirty atomic.Int64
}

func (p *epochProbe) OnEpoch(s obs.EpochSnapshot) {
	p.epochs.Add(1)
	p.wallNs.Add(int64(s.WallTime))
	p.affected.Add(int64(s.AffectedFlows))
	p.dirty.Add(int64(s.DirtyLinks))
}

// span is one interval the benchmark recorded around a layer call, or
// copied from the program's flight recorder. Times are seconds since the
// benchmark started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Run    int     `json:"run"`    // repetition (or set-up) index within the workload
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps spans in memory until the report is written.
type spanLog struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent, run int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.list) + 1
	l.list = append(l.list, span{ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds()})
	return id
}

// end sets the end of span id, for a span whose children were recorded
// while it was open.
func (l *spanLog) end(id int, t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.list[id-1].End = t.Sub(l.t0).Seconds()
}

// programPhases are the flight recorder's wall-clock phase spans that the
// benchmark folds into its own log and totals. The per-epoch
// flow.waterfill spans are summed through the probe instead.
var programPhases = map[string]bool{
	"core.workload": true, "core.faults": true, "flow.prepare": true, "flow.run": true,
}

// phaseTotals sums the recorded phase spans by name. last holds the
// duration of the latest-starting span of each name: the open-system
// fabric replay is the final simulation.
type phaseTotals struct {
	sum   map[string]float64
	count map[string]int
	last  map[string]float64
}

// foldPhases totals the traced repetition's phase spans and copies them
// into the span log under parent.
func foldPhases(h *hooks, l *spanLog, parent, run int) phaseTotals {
	pt := phaseTotals{sum: map[string]float64{}, count: map[string]int{}, last: map[string]float64{}}
	lastTS := map[string]float64{}
	for _, e := range h.tracer.Events() {
		if e.PID != trace.WallPID || e.Ph != "X" || !programPhases[e.Name] {
			continue
		}
		d := e.Dur / 1e6
		pt.sum[e.Name] += d
		pt.count[e.Name]++
		if ts, ok := lastTS[e.Name]; !ok || e.TS >= ts {
			lastTS[e.Name], pt.last[e.Name] = e.TS, d
		}
		start := h.t0.Add(time.Duration(e.TS * float64(time.Microsecond)))
		l.add(e.Name, parent, run, start, start.Add(time.Duration(e.Dur*float64(time.Microsecond))))
	}
	return pt
}

// replayStats is what re-running the layers from outside measured: the
// public workload, placement, fault, routing and flow calls, with the same
// inputs a repetition's simulations had.
type replayStats struct {
	generate, apply, faultGen, faultWrap, route float64 // seconds
	flows, routes, hops, pairs, distinct        int64
	failedLinks                                 int64
	bytes                                       float64
	workloadAlloc, flowAlloc                    uint64
}

// routeOK is fault.Degraded's disconnection-aware routing.
type routeOK interface {
	RouteAppendOK(buf []int32, src, dst int) ([]int32, bool)
}

// replay regenerates every route set through the public layer calls,
// timing each and recording one span per call under parent. Each set's
// simulation runs again, one at a time, so that its allocation is the
// flow layer's alone; its result must equal the repetition's.
func replay(ctx context.Context, sets []routeSet, l *spanLog, parent, run int) (*replayStats, error) {
	st := &replayStats{}
	var buf []int32
	for _, s := range sets {
		t0, a0 := time.Now(), allocBytes()
		spec, err := workload.Generate(s.kind, s.params)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		mapping := s.alloc
		if mapping == nil {
			if mapping, err = place.Mapping(s.policy, s.params.Tasks, s.top.NumEndpoints(), s.params.Seed); err != nil {
				return nil, err
			}
		}
		mapped, err := place.Apply(spec, mapping)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		st.workloadAlloc += allocBytes() - a0
		st.generate += t1.Sub(t0).Seconds()
		st.apply += t2.Sub(t1).Seconds()
		l.add("workload.generate", parent, run, t0, t1)
		l.add("place.apply", parent, run, t1, t2)
		st.flows += int64(len(mapped.Flows))
		for _, f := range mapped.Flows {
			st.bytes += f.Bytes
		}

		var rt topo.Topology = s.top
		var set *fault.Set
		if s.faults != nil && !s.faults.Empty() {
			t3 := time.Now()
			set, err = fault.Generate(s.top, *s.faults)
			if err != nil {
				return nil, err
			}
			t4 := time.Now()
			rt = fault.Wrap(s.top, set, nil)
			t5 := time.Now()
			st.faultGen += t4.Sub(t3).Seconds()
			st.faultWrap += t5.Sub(t4).Seconds()
			st.failedLinks += int64(set.LinksDown())
			l.add("fault.generate", parent, run, t3, t4)
			l.add("fault.wrap", parent, run, t4, t5)
		}

		t6 := time.Now()
		if ok, isOK := rt.(routeOK); isOK {
			for _, f := range mapped.Flows {
				var routed bool
				buf, routed = ok.RouteAppendOK(buf[:0], int(f.Src), int(f.Dst))
				if routed {
					st.routes++
					st.hops += int64(len(buf))
				}
			}
		} else {
			for _, f := range mapped.Flows {
				buf = rt.RouteAppend(buf[:0], int(f.Src), int(f.Dst))
				st.routes++
				st.hops += int64(len(buf))
			}
		}
		t7 := time.Now()
		st.route += t7.Sub(t6).Seconds()
		l.add("topo.route", parent, run, t6, t7)

		// Route preparation dedups (src,dst) pairs within one simulation.
		seen := make(map[uint64]struct{}, len(mapped.Flows))
		for _, f := range mapped.Flows {
			seen[uint64(uint32(f.Src))<<32|uint64(uint32(f.Dst))] = struct{}{}
		}
		st.pairs += int64(len(mapped.Flows))
		st.distinct += int64(len(seen))

		// The run simulated on a fresh fault wrapper, which computed its
		// detours inside the simulation; so does the replay.
		ft := rt
		if set != nil {
			ft = fault.Wrap(s.top, set, nil)
		}
		t8, a8 := time.Now(), allocBytes()
		res, err := flow.SimulateContext(ctx, ft, mapped, s.sim)
		if err != nil {
			return nil, err
		}
		t9 := time.Now()
		st.flowAlloc += allocBytes() - a8
		l.add("flow.simulate", parent, run, t8, t9)
		if res.Makespan != s.makespan || (s.epochs >= 0 && res.Epochs != s.epochs) {
			return nil, fmt.Errorf("replayed simulation on %s: makespan %g, %d epochs; the repetition had %g, %d",
				s.top.Name(), res.Makespan, res.Epochs, s.makespan, s.epochs)
		}
	}
	return st, nil
}

// runtimeSample is the process's cumulative allocation and GC work.
type runtimeSample struct {
	allocs, gcCycles uint64
	gcCPU            float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	r := runtimeSample{allocs: allocBytes()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	return r
}

// allocBytes is the cumulative heap allocation of the process
// (MemStats.TotalAlloc, which flushes per-thread allocation caches).
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
