// Package cli is the process lifecycle every mtier command shares: the
// profile and -obslisten flags, the signal and -timeout context, the
// progress meter, and the exit-code policy. A command exits only through
// Process.Exit, which stops the profiles (writing them out) and closes
// the observability server before the process ends, so a failing run
// leaves the same readable profiles as a successful one.
//
// Exit statuses: 0 on success, core.SignalExitCode (130) when the run was
// canceled by SIGINT/SIGTERM, 1 on any other failure — including a
// failure to write an output.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"mtier/internal/core"
	"mtier/internal/obs"
	"mtier/internal/report"
)

// Process is one command invocation's lifecycle.
type Process struct {
	// Prog prefixes every diagnostic line.
	Prog string
	// Ctx is canceled by the first SIGINT/SIGTERM and, with a -timeout,
	// by its deadline. Set by Start.
	Ctx context.Context
	// Metrics is the registry served on -obslisten; nil without it.
	Metrics *obs.Registry

	prof    *obs.ProfileFlags
	obsAddr string
	srv     *obs.Server
	timeout time.Duration
	// stops release what Start acquired; Exit runs them in reverse.
	stops []func()
}

// New returns the lifecycle of command prog. A non-nil fs gets the
// -cpuprofile, -memprofile, -traceout and -obslisten flags registered;
// parse it before Start.
func New(prog string, fs *flag.FlagSet) *Process {
	p := &Process{Prog: prog, Ctx: context.Background()}
	if fs != nil {
		p.prof = obs.AddProfileFlags(fs)
		fs.StringVar(&p.obsAddr, "obslisten", "", "serve /metrics, /progress and pprof on this address (e.g. :9090)")
	}
	return p
}

// Start begins the lifecycle: the two-stage signal context, the timeout
// (0 = none), the requested profiles and the observability server. It
// returns Ctx. A failure to start exits the process.
func (p *Process) Start(timeout time.Duration) context.Context {
	if timeout < 0 {
		p.Exit(fmt.Errorf("negative -timeout %v", timeout))
	}
	ctx, stopSignals := core.SignalContext(context.Background(), p.Prog, os.Stderr)
	p.stops = append(p.stops, stopSignals)
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		p.stops = append(p.stops, cancel)
		p.timeout = timeout
	}
	p.Ctx = ctx
	if p.prof != nil {
		stopProfiles, err := p.prof.Start()
		p.Check(err)
		p.stops = append(p.stops, stopProfiles)
	}
	if p.obsAddr != "" {
		p.Metrics = obs.NewRegistry()
		srv, err := obs.NewServer(p.obsAddr, p.Metrics)
		p.Check(err)
		p.srv = srv
		p.stops = append(p.stops, func() { srv.Close() })
		fmt.Fprintln(os.Stderr, p.Prog+": observability endpoint on http://"+srv.Addr())
	}
	return ctx
}

// Status is an error that carries only an exit status, for a failure
// that has already been reported. Status(0) exits 0.
type Status int

func (s Status) Error() string { return fmt.Sprintf("exit status %d", int(s)) }

// Exit ends the process with the status err maps to, after reporting err
// on stderr and stopping everything Start began. A nil err exits 0.
func (p *Process) Exit(err error) {
	code := p.report(err)
	for i := len(p.stops) - 1; i >= 0; i-- {
		p.stops[i]()
	}
	os.Exit(code)
}

// Check exits through Exit when err is non-nil.
func (p *Process) Check(err error) {
	if err != nil {
		p.Exit(err)
	}
}

// report prints err and returns its exit status.
func (p *Process) report(err error) int {
	var st Status
	switch {
	case err == nil:
		return 0
	case errors.As(err, &st):
		return int(st)
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "%s: interrupted: %v\n", p.Prog, err)
		return core.SignalExitCode
	case p.timeout > 0 && errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "%s: run exceeded -timeout %v: %v\n", p.Prog, p.timeout, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", p.Prog, err)
	return 1
}

// Logf prints one diagnostic line on its own line of stderr, so it does
// not run into a live progress line.
func (p *Process) Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "\n"+p.Prog+": "+format+"\n", args...)
}

// Meter returns the progress meter for total units: drawn on stderr when
// draw is set, writer-less when only -obslisten's /progress reads it,
// and nil otherwise (every ProgressMeter method is nil-safe).
func (p *Process) Meter(total int, draw bool) *obs.ProgressMeter {
	var m *obs.ProgressMeter
	switch {
	case draw:
		m = obs.NewProgressMeter(os.Stderr, total)
	case p.srv != nil:
		m = obs.NewProgressMeter(nil, total)
	}
	if p.srv != nil {
		p.srv.SetProgress(m)
	}
	return m
}

// Emit writes tab to stdout as CSV, or as aligned text followed by a
// blank line.
func Emit(tab *report.Table, csv bool) error {
	if csv {
		return tab.WriteCSV(os.Stdout)
	}
	if err := tab.WriteText(os.Stdout); err != nil {
		return err
	}
	_, err := fmt.Println()
	return err
}
