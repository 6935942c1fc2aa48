// Command mtsim runs one workload on one topology and reports the
// completion time and congestion statistics — the basic unit of the
// paper's evaluation.
//
// Usage:
//
//	mtsim -topo nestghc -t 2 -u 4 -n 8192 -workload unstructuredapp
//	mtsim -topo torus -n 4096 -workload sweep3d -msg 262144
//	mtsim -topo fattree -n 4096 -workload mapreduce -tasks 256 -place strided
//	mtsim -topo nestghc -n 2048 -workload allreduce -json        # run record
//	mtsim -topo nestghc -n 2048 -workload reduce -epochcsv e.csv # congestion series
//	mtsim -topo torus -n 4096 -workload bisection -cpuprofile cpu.pprof
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mtier/internal/cli"
	"mtier/internal/core"
	"mtier/internal/cost"
	"mtier/internal/flow"
	"mtier/internal/obs"
	"mtier/internal/place"
	"mtier/internal/trace"
	"mtier/internal/wal"
	"mtier/internal/workload"
)

func main() {
	var (
		topoName = flag.String("topo", "nestghc", "topology kind (torus, fattree, nesttree, nestghc, thintree, ghc, dragonfly, jellyfish)")
		n        = flag.Int("n", 4096, "total number of QFDBs (endpoints)")
		tFlag    = flag.Int("t", 2, "subtorus nodes per dimension (hybrids)")
		uFlag    = flag.Int("u", 4, "one uplink per u QFDBs (hybrids)")
		wName    = flag.String("workload", "unstructuredapp", "workload kind")
		tasks    = flag.Int("tasks", 0, "task count (0 = workload default)")
		msg      = flag.Float64("msg", 0, "base message size in bytes (0 = workload default)")
		latBase  = flag.Float64("latbase", core.DefaultLatencyBase, "per-flow startup latency (s)")
		latHop   = flag.Float64("lathop", core.DefaultLatencyPerHop, "per-hop latency (s)")
		seed     = flag.Int64("seed", 1, "workload seed")
		placePol = flag.String("place", "", "placement: linear|strided|random (default auto)")
		eps      = flag.Float64("eps", 0.01, "completion batching window (0 = exact)")
		bw       = flag.Float64("bw", flow.DefaultBandwidth, "link bandwidth in bytes/s")
		noPorts  = flag.Bool("noports", false, "disable injection/ejection port model")
		adaptive = flag.Bool("adaptive", false, "least-loaded adaptive routing (multi-path topologies)")
		exact    = flag.Bool("exact", false, "use the reference full-recompute waterfill instead of the incremental engine")
		workers  = flag.Int("workers", 0, "intra-run worker threads; results are identical for every value (0 = GOMAXPROCS, 1 = serial)")
		traceOut = flag.String("trace", "", "write a per-flow completion trace (CSV) to this file")
		jsonOut  = flag.Bool("json", false, "emit the run record as JSON on stdout instead of text")
		fpOut    = flag.Bool("fingerprint", false, "print only the hex sha256 of the run record's canonical (timing-stripped) form")
		epochCSV = flag.String("epochcsv", "", "write the per-epoch congestion time series (CSV) to this file")
		timeout  = flag.Duration("timeout", 0, "abort the simulation after this long (0 = no deadline)")
		traceEvt = flag.String("traceevents", "", "write a Chrome trace_event JSON file (load in Perfetto / chrome://tracing)")
		hotspots = flag.Int("hotspots", 0, "report the K hottest links and per-tier utilization tables (0 = off)")
	)
	p := cli.New("mtsim", flag.CommandLine)
	flag.Parse()
	// SIGINT/SIGTERM cancel the run at its next epoch boundary (so a
	// mis-sized simulation dies cleanly instead of needing kill -9); a
	// second signal hard-exits. -timeout bounds the run the same way.
	ctx := p.Start(*timeout)

	// Validate the enumerated flags up front so typos fail with the list
	// of valid values instead of an error from deep inside the run.
	kind, err := core.ParseTopoKind(*topoName)
	p.Check(err)
	wkind, err := workload.ParseKind(*wName)
	p.Check(err)
	pol, err := place.ParsePolicy(*placePol)
	p.Check(err)
	p.Exit(run(ctx, core.Config{
		Kind:      kind,
		Endpoints: *n,
		T:         *tFlag,
		U:         *uFlag,
		Workload:  wkind,
		Params: workload.Params{
			Tasks:    *tasks,
			MsgBytes: *msg,
			Seed:     *seed,
		},
		Placement: pol,
		Sim: flow.Options{
			LinkBandwidth:   *bw,
			RelEpsilon:      *eps,
			LatencyBase:     *latBase,
			LatencyPerHop:   *latHop,
			DisablePorts:    *noPorts,
			AdaptiveRouting: *adaptive,
			ExactRecompute:  *exact,
			Workers:         *workers,
			HotspotK:        *hotspots,
			Metrics:         p.Metrics,
		},
	}, *traceOut, *epochCSV, *traceEvt, *jsonOut, *fpOut))
}

func run(ctx context.Context, cfg core.Config, traceOut, epochCSV, traceEvt string, jsonOut, fpOut bool) (err error) {
	if traceOut != "" {
		f, cerr := os.Create(traceOut)
		if cerr != nil {
			return cerr
		}
		w := bufio.NewWriter(f)
		fmt.Fprintln(w, "flow,src,dst,bytes,start,end")
		cfg.Sim.Trace = w
		defer func() {
			// Simulate reports mid-run write errors; the final flush still
			// needs its own check.
			if ferr := w.Flush(); ferr != nil && err == nil {
				err = fmt.Errorf("flushing trace: %w", ferr)
			}
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing trace: %w", cerr)
			}
		}()
	}
	var rec *obs.EpochRecorder
	if epochCSV != "" {
		rec = obs.NewEpochRecorder(nil)
		cfg.Sim.Probe = rec
	}
	var flight *trace.Recorder
	if traceEvt != "" {
		flight = trace.NewRecorder()
		cfg.Sim.Tracer = flight
	}
	start := time.Now()
	res, err := core.RunContext(ctx, cfg, nil)
	if err != nil {
		return err
	}
	if flight != nil {
		if err := wal.WriteFile(traceEvt, flight.WriteTraceEvents); err != nil {
			return err
		}
	}
	if rec != nil {
		if err := wal.WriteFile(epochCSV, rec.WriteCSV); err != nil {
			return err
		}
	}
	if fpOut {
		// The same digest mtserve returns in X-Mtier-Record-Sha256, so CI
		// can assert CLI/daemon record identity without diffing documents.
		sum, err := res.Record().SHA256()
		if err != nil {
			return err
		}
		fmt.Println(sum)
		return nil
	}
	if jsonOut {
		return res.Record().WriteJSON(os.Stdout)
	}
	fmt.Printf("topology:            %s\n", res.Topology)
	fmt.Printf("workload:            %s (%d flows, %.3g bytes)\n", cfg.Workload, res.Flows, res.Result.BytesDelivered)
	fmt.Printf("makespan:            %.6f s\n", res.Result.Makespan)
	fmt.Printf("epochs:              %d\n", res.Result.Epochs)
	fmt.Printf("max link util:       %.3f\n", res.Result.MaxLinkUtilization)
	fmt.Printf("mean link util:      %.3f\n", res.Result.MeanLinkUtilization)
	fmt.Printf("max port util:       %.3f\n", res.Result.MaxPortUtilization)
	if e, eerr := cost.Energy(res.Result, res.Switches, res.Links, cost.DefaultEnergyModel()); eerr == nil {
		fmt.Printf("network energy:      %.3f J (%.0f%% dynamic)\n", e.TotalJoules, 100*e.DynamicFraction)
	}
	fmt.Printf("phases:              build %.3fs  workload %.3fs  simulate %.3fs\n",
		res.Phases.BuildSeconds, res.Phases.WorkloadSeconds, res.Phases.SimulateSeconds)
	fmt.Printf("wall time:           %v\n", time.Since(start))
	if res.Result.Hotspots != nil {
		printHotspots(os.Stdout, res.Result.Hotspots)
	}
	return nil
}

// printHotspots renders the hot-spot attribution report: the K hottest
// links by time-integrated bytes, then the per-tier utilization and
// path-composition tables.
func printHotspots(w io.Writer, rep *flow.HotspotReport) {
	fmt.Fprintf(w, "\nhottest links (top %d by bytes carried):\n", rep.K)
	fmt.Fprintf(w, "  %6s  %6s  %6s  %-10s  %12s  %6s\n", "link", "from", "to", "tier", "bytes", "util")
	for _, l := range rep.TopLinks {
		fmt.Fprintf(w, "  %6d  %6d  %6d  %-10s  %12.4g  %6.3f\n",
			l.Link, l.From, l.To, l.TierName, l.Bytes, l.Utilization)
	}
	fmt.Fprintln(w, "\nper-tier utilization:")
	fmt.Fprintf(w, "  %-10s  %6s  %6s  %12s  %9s  %9s  %s\n",
		"tier", "links", "active", "bytes", "mean util", "max util", "histogram 0..1")
	for _, t := range rep.Tiers {
		fmt.Fprintf(w, "  %-10s  %6d  %6d  %12.4g  %9.3f  %9.3f  %v\n",
			t.Name, t.Links, t.ActiveLinks, t.Bytes, t.MeanUtilization, t.MaxUtilization, t.Histogram)
	}
	fmt.Fprintln(w, "\nper-tier path composition:")
	fmt.Fprintf(w, "  %-10s  %10s  %9s  %8s\n", "tier", "flows", "mean hops", "max hops")
	for _, t := range rep.Tiers {
		fmt.Fprintf(w, "  %-10s  %10d  %9.3f  %8d\n", t.Name, t.FlowsTraversing, t.MeanHops, t.MaxHops)
	}
}
