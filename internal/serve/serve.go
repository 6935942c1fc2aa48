package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mtier/internal/core"
	"mtier/internal/obs"
	"mtier/internal/place"
	"mtier/internal/sched"
	"mtier/internal/workload"
)

// StatusSchema identifies the /v1/status document format.
const StatusSchema = "mtier/serve-status/v1"

// maxBodyBytes bounds request bodies: experiment configs and workload
// specs are small documents; anything larger is a mistake or an attack.
const maxBodyBytes = 4 << 20

// Options tunes the daemon. The zero value serves with GOMAXPROCS
// concurrent runs, a queue twice that deep, no rate limit, no tenant
// quotas, a 5-minute default and 30-minute maximum per-request deadline,
// and a fresh metrics registry.
type Options struct {
	// MaxConcurrent bounds simultaneous simulations (0 = GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds submissions waiting for a run slot; beyond it the
	// daemon sheds with 429 + Retry-After (0 = 2×MaxConcurrent; a
	// negative value means no queueing at all).
	MaxQueue int
	// Rate is the token-bucket admission rate in submissions/second
	// (0 = unlimited).
	Rate float64
	// Burst is the bucket capacity (0 = max(1, ceil(Rate))); ignored
	// without a Rate.
	Burst int
	// TenantConcurrent caps one tenant's in-flight (running + queued)
	// submissions (0 = unlimited).
	TenantConcurrent int
	// DefaultTimeout bounds a run whose request carries no timeout_s
	// (0 = 5 minutes).
	DefaultTimeout time.Duration
	// MaxTimeout is the largest per-request deadline a client may ask
	// for; larger requests are refused with 400 (0 = 30 minutes).
	MaxTimeout time.Duration
	// Workers is the intra-run simulation thread count per request;
	// records are identical for every value (0 = GOMAXPROCS).
	Workers int
	// MemBudgetBytes, when positive, arms the soft memory watchdog:
	// while the live heap exceeds the budget, admission concurrency is
	// trimmed one slot per poll tick (never below one).
	MemBudgetBytes int64
	// MemPollInterval is the watchdog sampling period (0 = 250ms).
	MemPollInterval time.Duration
	// CacheEntries bounds the content-addressed topology cache
	// (0 = core.DefaultTopoCacheEntries).
	CacheEntries int
	// Registry receives every metric; nil creates a fresh one.
	Registry *obs.Registry
	// Logf, when non-nil, receives operational events (panics, shedding,
	// drain progress).
	Logf func(format string, args ...any)
}

// Validate rejects option values the CLI must refuse up front.
func (o *Options) Validate() error {
	if o.MaxConcurrent < 0 {
		return fmt.Errorf("serve: negative max concurrency %d", o.MaxConcurrent)
	}
	if o.Rate < 0 {
		return fmt.Errorf("serve: negative admission rate %g", o.Rate)
	}
	if o.Burst < 0 {
		return fmt.Errorf("serve: negative admission burst %d", o.Burst)
	}
	if o.TenantConcurrent < 0 {
		return fmt.Errorf("serve: negative tenant quota %d", o.TenantConcurrent)
	}
	if o.DefaultTimeout < 0 || o.MaxTimeout < 0 {
		return fmt.Errorf("serve: negative request timeout")
	}
	if o.MemBudgetBytes < 0 {
		return fmt.Errorf("serve: negative memory budget %d", o.MemBudgetBytes)
	}
	return nil
}

// withDefaults resolves the zero values.
func (o Options) withDefaults() Options {
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.MaxQueue == 0:
		o.MaxQueue = 2 * o.MaxConcurrent
	case o.MaxQueue < 0:
		o.MaxQueue = 0
	}
	if o.Rate > 0 && o.Burst == 0 {
		o.Burst = int(o.Rate) + 1
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 5 * time.Minute
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 30 * time.Minute
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// Server is the long-lived simulation service: submissions run on the
// supervised runner under per-request deadlines, share built topologies
// through a content-addressed cache, and pass through token-bucket
// admission with bounded queueing. A panicking simulation answers 500
// with the recovered stack and the daemon keeps serving; SIGTERM-driven
// shutdown stops admission, drains in-flight runs up to a deadline, and
// only then cancels.
type Server struct {
	opt   Options
	reg   *obs.Registry
	cache *core.TopoCache
	adm   *admission
	mux   *http.ServeMux
	start time.Time

	// runCtx parents every admitted run; cancelRuns fires only when the
	// drain deadline passes with runs still in flight.
	runCtx     context.Context
	cancelRuns context.CancelFunc

	ln   net.Listener
	hsrv *http.Server

	// testRunHook, when set, runs inside the supervised section of every
	// admitted request — tests store hooks (atomically, so they can swap
	// them between requests) to inject panics, blocking and deadline
	// overruns deterministically.
	testRunHook atomic.Pointer[func(ctx context.Context)]
}

// New builds a server (not yet listening — use Listen, or mount
// Handler on a listener of your own).
func New(opt Options) (*Server, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	s := &Server{
		opt:   opt,
		reg:   opt.Registry,
		cache: core.NewTopoCache(opt.CacheEntries, opt.Registry),
		adm:   newAdmission(opt, opt.Registry),
		start: time.Now(),
	}
	s.runCtx, s.cancelRuns = context.WithCancel(context.Background())
	s.adm.startWatchdog(opt.MemBudgetBytes, opt.MemPollInterval, nil)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/v1/open", s.handleOpen)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Cache returns the server's topology cache.
func (s *Server) Cache() *core.TopoCache { return s.cache }

// Listen starts serving on addr (e.g. ":9433" or "127.0.0.1:0").
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listening on %s: %w", addr, err)
	}
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go s.hsrv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown/Close
	return nil
}

// Addr returns the bound address (useful with a ":0" listen request).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// BeginDrain stops admission: /readyz flips to 503 and every new
// submission is refused with 503, while in-flight runs — and the
// observation endpoints — keep serving.
func (s *Server) BeginDrain() { s.adm.beginDrain() }

// Draining reports whether admission is closed.
func (s *Server) Draining() bool {
	s.adm.mu.Lock()
	defer s.adm.mu.Unlock()
	return s.adm.draining
}

// Shutdown is the two-stage graceful stop: admission closes
// immediately, in-flight runs drain until ctx expires, and only then
// are the stragglers canceled (they abort at their next epoch boundary
// and answer 503). The HTTP listener closes last, so health and metrics
// stay scrapeable throughout the drain. Returns ctx.Err() when the
// drain deadline forced cancellation, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	err := s.adm.awaitIdle(ctx)
	if err != nil {
		s.logf("drain deadline passed; canceling in-flight runs")
		s.cancelRuns()
		s.adm.awaitIdle(context.Background()) //nolint:errcheck // Background never expires; runs die at their next epoch
	}
	s.adm.stopWatchdog()
	if s.hsrv != nil {
		hctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if herr := s.hsrv.Shutdown(hctx); err == nil {
			err = herr
		}
	}
	return err
}

// Close hard-stops the listener and cancels every run (for tests; the
// daemon path goes through Shutdown).
func (s *Server) Close() error {
	s.BeginDrain()
	s.cancelRuns()
	s.adm.stopWatchdog()
	if s.hsrv != nil {
		return s.hsrv.Close()
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// tenantName extracts the submitting tenant from the X-Mtier-Tenant
// header ("default" when absent), bounded so headers cannot bloat the
// per-tenant table key space arbitrarily.
func tenantName(r *http.Request) string {
	t := strings.TrimSpace(r.Header.Get("X-Mtier-Tenant"))
	if t == "" {
		return "default"
	}
	if len(t) > 64 {
		t = t[:64]
	}
	return t
}

// errorDoc is the JSON body of every non-2xx answer.
type errorDoc struct {
	Error string `json:"error"`
	// Stack carries the recovered goroutine stack when the failure was a
	// panic inside the simulation (status 500).
	Stack string `json:"stack,omitempty"`
}

func writeError(w http.ResponseWriter, status int, doc errorDoc) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(doc) //nolint:errcheck // client went away
}

// ExperimentRequest is the wire form of POST /v1/experiments: the
// config section of a run record (the serialised mtier.Experiment —
// topology kind/size/(t,u), workload, params, placement, sim options
// and optional fault spec) plus per-request controls. A record's config
// can therefore be POSTed back verbatim to replay it.
type ExperimentRequest struct {
	core.Config
	// TimeoutS overrides the server's default per-request deadline, in
	// seconds; it may not exceed the server's maximum.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// decodeBody strictly decodes a bounded JSON body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// validateExperiment rejects malformed submissions before admission, so
// bad requests cost a 400 and no run slot.
func validateExperiment(req *ExperimentRequest) error {
	spec := topoSpecOf(req.Config)
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, err := workload.ParseKind(string(req.Workload)); err != nil {
		return err
	}
	if req.Placement != "" {
		if _, err := place.ParsePolicy(string(req.Placement)); err != nil {
			return err
		}
	}
	if req.Faults != nil {
		if err := req.Faults.Validate(); err != nil {
			return err
		}
	}
	if req.TimeoutS < 0 {
		return fmt.Errorf("negative timeout_s %g", req.TimeoutS)
	}
	return nil
}

// topoSpecOf lifts the topology spec out of a run config, mirroring
// core.RunContext's conditional assembly (flat families ignore (t,u)).
func topoSpecOf(cfg core.Config) core.TopoSpec {
	spec := core.TopoSpec{Kind: cfg.Kind, Endpoints: cfg.Endpoints}
	switch cfg.Kind {
	case core.NestTree, core.NestGHC:
		spec.T, spec.U = cfg.T, cfg.U
	}
	return spec
}

// handleExperiments runs one closed-system experiment cell: the posted
// config is validated, admitted, its topology served from the shared
// cache (building once under singleflight no matter how many identical
// submissions race), and the cell executed on the supervised runner.
// The response is the run record, byte-identical in fingerprint to the
// same configuration run through the mtsim CLI.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errorDoc{Error: "POST only"})
		return
	}
	var req ExperimentRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	if err := validateExperiment(&req); err != nil {
		writeError(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	s.serveRun(w, r, req.TimeoutS, func(ctx context.Context) (*obs.RunRecord, bool, error) {
		top, hit, err := s.cache.Get(ctx, topoSpecOf(req.Config), req.Faults)
		if err != nil {
			return nil, false, err
		}
		cfg := req.Config
		cfg.Sim.Metrics = s.reg
		cfg.Sim.Workers = s.opt.Workers
		res, err := core.RunContext(ctx, cfg, top)
		if err != nil {
			return nil, hit, err
		}
		return res.Record(), hit, nil
	})
}

// openQuery are the machine/run controls of POST /v1/open, carried as
// query parameters so the body can stay a verbatim workload-spec
// document (the same YAML or JSON bytes the mtsched -spec flag loads).
type openQuery struct {
	topo     core.TopoSpec
	alloc    sched.AllocPolicy
	shared   bool
	timeoutS float64
}

func parseOpenQuery(r *http.Request) (openQuery, error) {
	q := r.URL.Query()
	var oq openQuery
	kind, err := core.ParseTopoKind(q.Get("kind"))
	if err != nil {
		return oq, err
	}
	oq.topo.Kind = kind
	intArg := func(name string) (int, error) {
		v := q.Get(name)
		if v == "" {
			return 0, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("query parameter %s=%q is not an integer", name, v)
		}
		return n, nil
	}
	if oq.topo.Endpoints, err = intArg("endpoints"); err != nil {
		return oq, err
	}
	if oq.topo.T, err = intArg("t"); err != nil {
		return oq, err
	}
	if oq.topo.U, err = intArg("u"); err != nil {
		return oq, err
	}
	if err := oq.topo.Validate(); err != nil {
		return oq, err
	}
	oq.alloc = sched.FirstFit
	if v := q.Get("alloc"); v != "" {
		if oq.alloc, err = sched.ParseAllocPolicy(v); err != nil {
			return oq, err
		}
	}
	switch v := q.Get("shared"); v {
	case "", "false", "0":
	case "true", "1":
		oq.shared = true
	default:
		return oq, fmt.Errorf("query parameter shared=%q is not a boolean", v)
	}
	if v := q.Get("timeout_s"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil || t < 0 {
			return oq, fmt.Errorf("query parameter timeout_s=%q is not a non-negative number", v)
		}
		oq.timeoutS = t
	}
	return oq, nil
}

// handleOpen runs one open-system cell: the body is a workload-spec
// document (YAML or JSON, exactly the bytes mtsched -spec would load),
// the machine and allocation policy come from query parameters, and the
// response is the schema-v3 run record — fingerprint-identical to
// mtsched -record for the same inputs.
func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errorDoc{Error: "POST only"})
		return
	}
	oq, err := parseOpenQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("reading spec body: %v", err)})
		return
	}
	spec, err := workload.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	s.serveRun(w, r, oq.timeoutS, func(ctx context.Context) (*obs.RunRecord, bool, error) {
		top, hit, err := s.cache.Get(ctx, oq.topo, nil)
		if err != nil {
			return nil, false, err
		}
		or := core.OpenRun{
			Topo:    oq.topo,
			Spec:    spec,
			Alloc:   oq.alloc,
			Shared:  oq.shared,
			Workers: s.opt.Workers,
			Metrics: s.reg,
		}
		cell, err := or.RunContext(ctx, top)
		if err != nil {
			return nil, hit, err
		}
		return cell.Record(or.Config()), hit, nil
	})
}

// serveRun is the shared execution pipeline behind both submission
// endpoints: admission → per-request context (client disconnect and the
// drain-deadline cancel both abort the simulation at its next epoch
// boundary) → deadline → supervised run → record response with its
// fingerprint digest in X-Mtier-Record-Sha256.
func (s *Server) serveRun(w http.ResponseWriter, r *http.Request, timeoutS float64, run func(ctx context.Context) (*obs.RunRecord, bool, error)) {
	deadline := s.opt.DefaultTimeout
	if timeoutS > 0 {
		deadline = time.Duration(timeoutS * float64(time.Second))
	}
	if deadline > s.opt.MaxTimeout {
		writeError(w, http.StatusBadRequest, errorDoc{
			Error: fmt.Sprintf("timeout_s %g exceeds the server maximum %v", timeoutS, s.opt.MaxTimeout)})
		return
	}
	tenant := tenantName(r)
	release, aerr := s.adm.admit(r.Context(), tenant)
	if aerr != nil {
		if aerr.status == 0 {
			return // client went away while queued; nobody to answer
		}
		if aerr.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(aerr.retryAfter))
		}
		writeError(w, aerr.status, errorDoc{Error: aerr.msg})
		return
	}
	start := time.Now()
	defer func() { release(time.Since(start).Seconds()) }()

	// The run aborts when the client disconnects, when its deadline
	// expires, or when the drain deadline cancels the stragglers.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.runCtx, cancel)
	defer stop()
	if deadline > 0 {
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithTimeout(ctx, deadline)
		defer dcancel()
	}

	var rec *obs.RunRecord
	var cacheHit bool
	err := core.Supervise(ctx, core.RunnerOptions{Metrics: s.reg, Logf: s.opt.Logf}, func(ctx context.Context) error {
		if hook := s.testRunHook.Load(); hook != nil {
			(*hook)(ctx)
		}
		var rerr error
		rec, cacheHit, rerr = run(ctx)
		return rerr
	})
	if err != nil {
		s.writeRunError(w, r, err, deadline)
		return
	}
	sum, err := rec.SHA256()
	if err != nil {
		writeError(w, http.StatusInternalServerError, errorDoc{Error: fmt.Sprintf("fingerprinting record: %v", err)})
		return
	}
	s.reg.Counter("serve.completed").Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Mtier-Record-Sha256", sum)
	w.Header().Set("X-Mtier-Cache", cacheState(cacheHit))
	rec.WriteJSON(w) //nolint:errcheck // client went away
}

func cacheState(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// writeRunError maps a failed run onto an honest status: a recovered
// panic answers 500 with the stack (the daemon survives — that is the
// point of the supervised runner), an expired per-request deadline 504,
// a drain-deadline cancellation 503, a client disconnect nothing at
// all, and any other error 422 (the submission was well-formed JSON but
// not runnable).
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, err error, deadline time.Duration) {
	var ce *core.CellError
	switch {
	case errors.As(err, &ce) && len(ce.Stack) > 0:
		s.logf("request %s: recovered simulation panic: %v", r.URL.Path, ce.Err)
		writeError(w, http.StatusInternalServerError, errorDoc{
			Error: fmt.Sprintf("simulation panicked: %v", ce.Err),
			Stack: string(ce.Stack),
		})
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.Counter("serve.deadline_exceeded").Inc()
		writeError(w, http.StatusGatewayTimeout, errorDoc{
			Error: fmt.Sprintf("run exceeded its %v deadline: %v", deadline, err)})
	case errors.Is(err, context.Canceled):
		if s.runCtx.Err() != nil {
			s.reg.Counter("serve.drain_canceled").Inc()
			writeError(w, http.StatusServiceUnavailable, errorDoc{
				Error: "server drain deadline passed; run canceled"})
			return
		}
		// Client disconnect: the cooperative cancellation did its job —
		// the simulation aborted at its next epoch — and there is no one
		// left to answer.
		s.reg.Counter("serve.client_gone").Inc()
		s.logf("request %s: client disconnected; run canceled", r.URL.Path)
	default:
		s.reg.Counter("serve.run_errors").Inc()
		writeError(w, http.StatusUnprocessableEntity, errorDoc{Error: err.Error()})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	io.WriteString(w, "ok\n") //nolint:errcheck // client went away
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n") //nolint:errcheck // client went away
		return
	}
	io.WriteString(w, "ready\n") //nolint:errcheck // client went away
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w, "mtier") //nolint:errcheck // client went away
}

// cacheStatus is the cache section of /v1/status.
type cacheStatus struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// statusDoc is the /v1/status document: live admission state, the
// per-tenant table, and cache effectiveness.
type statusDoc struct {
	Schema        string                 `json:"schema"`
	Accepting     bool                   `json:"accepting"`
	UptimeSeconds float64                `json:"uptime_seconds"`
	Admission     admissionStatus        `json:"admission"`
	Tenants       map[string]tenantStats `json:"tenants"`
	Cache         cacheStatus            `json:"cache"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	adm, tenants := s.adm.snapshot()
	hits, misses, evictions := s.cache.Stats()
	doc := statusDoc{
		Schema:        StatusSchema,
		Accepting:     !s.Draining(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Admission:     adm,
		Tenants:       tenants,
		Cache: cacheStatus{
			Entries:   s.cache.Len(),
			Hits:      hits,
			Misses:    misses,
			Evictions: evictions,
		},
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // client went away
}
