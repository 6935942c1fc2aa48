// Command mttopo reproduces Table 1 of the paper: average distance under
// uniform traffic and diameter for the hybrid topologies (NestGHC and
// NestTree across the 12 (t,u) design points) with the fattree and torus
// references. It can also analyse a single topology in detail.
//
// Usage:
//
//	mttopo -n 131072                 # full paper scale (static analysis only)
//	mttopo -n 8192 -samples 500000   # smaller system, fewer samples
//	mttopo -one nestghc -t 4 -u 2    # distance histogram of one instance
//	mttopo -csv                      # emit CSV instead of aligned text
package main

import (
	"context"
	"flag"
	"fmt"

	"mtier/internal/cli"
	"mtier/internal/core"
	"mtier/internal/metrics"
	"mtier/internal/report"
)

func main() {
	var (
		n       = flag.Int("n", 8192, "total number of QFDBs (endpoints)")
		samples = flag.Int("samples", 2_000_000, "sampled pairs for large systems")
		seed    = flag.Int64("seed", 1, "sampling seed")
		one     = flag.String("one", "", "analyse a single topology: torus|fattree|nesttree|nestghc")
		tFlag   = flag.Int("t", 2, "subtorus nodes per dimension (hybrids)")
		uFlag   = flag.Int("u", 4, "one uplink per u QFDBs (hybrids)")
		workers = flag.Int("workers", 0, "worker threads for builds and distance measurement; exhaustive results are identical for every value, sampled estimates are a function of (seed, workers) (0 = NumCPU, 1 = serial)")
		csv     = flag.Bool("csv", false, "emit CSV")
	)
	p := cli.New("mttopo", flag.CommandLine)
	flag.Parse()

	ctx := p.Start(0)

	if *one != "" {
		kind, err := core.ParseTopoKind(*one)
		p.Check(err)
		p.Exit(analyseOne(kind, *n, *tFlag, *uFlag, *samples, *workers, *seed, *csv))
	}
	p.Exit(table1(ctx, *n, *samples, *workers, *seed, *csv))
}

func table1(ctx context.Context, n, samples, workers int, seed int64, csv bool) error {
	set, err := core.BuildSetContext(ctx, n, workers)
	if err != nil {
		return err
	}
	tab, err := core.Table1Context(ctx, set, samples, seed, workers)
	if err != nil {
		return err
	}
	return cli.Emit(tab, csv)
}

func analyseOne(kind core.TopoKind, n, t, u, samples, workers int, seed int64, csv bool) error {
	spec := core.TopoSpec{Kind: kind, Endpoints: n}
	switch kind {
	case core.NestTree, core.NestGHC:
		spec.T, spec.U = t, u
	}
	top, err := core.Build(spec)
	if err != nil {
		return err
	}
	s := metrics.Distances(top, metrics.Options{Samples: samples, Seed: seed, Workers: workers})
	tab := report.NewTable(fmt.Sprintf("%s — distance distribution", top.Name()), "distance", "pairs", "fraction")
	for d, c := range s.Histogram {
		if c == 0 {
			continue
		}
		tab.AddRow(d, c, float64(c)/float64(s.Pairs))
	}
	if err := cli.Emit(tab, csv); err != nil {
		return err
	}
	fmt.Printf("\nendpoints=%d vertices=%d links=%d\n", top.NumEndpoints(), top.NumVertices(), top.NumLinks())
	fmt.Printf("mean=%.4f (exact=%v)  max=%d (exact=%v)  pairs=%d\n",
		s.Mean, s.ExactMean, s.Max, s.ExactMax, s.Pairs)
	ll := metrics.LinkLoads(top, metrics.LinkLoadOptions{Samples: samples, Seed: seed})
	fmt.Printf("uniform channel load: max=%.3f mean=%.3f  saturation throughput=%.3f of line rate\n",
		ll.MaxLoad, ll.MeanLoad, ll.Throughput)
	return nil
}
