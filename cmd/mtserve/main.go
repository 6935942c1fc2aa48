// Command mtserve is the long-lived simulation service: an HTTP+JSON
// daemon accepting experiment and open-system submissions, running them
// on the supervised runner with per-request deadlines, token-bucket
// admission with honest 429 + Retry-After shedding, a content-addressed
// cache of built topologies, and two-stage graceful shutdown (SIGTERM
// stops admission, drains in-flight runs up to -drain, then cancels).
//
// Usage:
//
//	mtserve -listen :9433
//	mtserve -listen :9433 -maxconcurrent 4 -maxqueue 8 -rate 10 -burst 20
//	mtserve -listen :9433 -tenantquota 2 -membudget 2147483648 -drain 30s
//
//	curl -s -X POST localhost:9433/v1/experiments -d '{
//	    "kind":"nestghc","endpoints":64,"t":2,"u":2,
//	    "workload":"allreduce","params":{"seed":1},
//	    "sim":{"link_bandwidth":1.25e9}}'
//	curl -s -X POST --data-binary @examples/specs/mixed.yaml \
//	    'localhost:9433/v1/open?kind=nestghc&endpoints=64&t=2&u=2'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"mtier/internal/cli"
	"mtier/internal/core"
	"mtier/internal/serve"
)

func main() {
	var (
		listen   = flag.String("listen", ":9433", "HTTP listen address")
		maxConc  = flag.Int("maxconcurrent", 0, "simultaneous simulations (0 = GOMAXPROCS)")
		maxQueue = flag.Int("maxqueue", 0, "submissions waiting for a run slot before shedding (0 = 2x maxconcurrent, negative = no queue)")
		rate     = flag.Float64("rate", 0, "token-bucket admission rate in submissions/s (0 = unlimited)")
		burst    = flag.Int("burst", 0, "token-bucket capacity (0 = rate-derived)")
		quota    = flag.Int("tenantquota", 0, "per-tenant in-flight submission cap (0 = unlimited)")
		timeout  = flag.Duration("timeout", 5*time.Minute, "default per-request run deadline")
		maxTo    = flag.Duration("maxtimeout", 30*time.Minute, "largest per-request deadline a client may ask for")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline before in-flight runs are canceled")
		budget   = flag.Int64("membudget", 0, "soft heap budget in bytes; over it, admission concurrency is trimmed (0 = off)")
		cacheN   = flag.Int("cache", core.DefaultTopoCacheEntries, "built-topology cache entries")
		workers  = flag.Int("workers", 0, "intra-run worker threads per simulation; records are identical for every value (0 = GOMAXPROCS)")
	)
	p := cli.New("mtserve", nil)
	flag.Parse()
	if *drain < 0 {
		p.Exit(fmt.Errorf("negative -drain %v", *drain))
	}

	srv, err := serve.New(serve.Options{
		MaxConcurrent:    *maxConc,
		MaxQueue:         *maxQueue,
		Rate:             *rate,
		Burst:            *burst,
		TenantConcurrent: *quota,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTo,
		Workers:          *workers,
		MemBudgetBytes:   *budget,
		CacheEntries:     *cacheN,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mtserve: "+format+"\n", args...)
		},
	})
	p.Check(err)
	p.Check(srv.Listen(*listen))
	fmt.Fprintln(os.Stderr, "mtserve: serving on http://"+srv.Addr())

	// First SIGINT/SIGTERM starts the graceful drain; a second hard-exits
	// (core.SignalContext's escalation). The wait-then-drain-with-deadline
	// shape is core.AwaitDrain — the same two-stage semantics the sweep
	// CLIs and dispatch workers share.
	err = core.AwaitDrain(p.Start(0), *drain, func(dctx context.Context) error {
		fmt.Fprintf(os.Stderr, "mtserve: draining (deadline %v)\n", *drain)
		return srv.Shutdown(dctx)
	})
	if err != nil {
		p.Exit(fmt.Errorf("drain deadline passed; in-flight runs were canceled: %v", err))
	}
	fmt.Fprintln(os.Stderr, "mtserve: drained cleanly")
	p.Exit(nil)
}
