package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"mtier/internal/core"
	"mtier/internal/obs"
)

// VerifyMode selects how much of the merged campaign the coordinator
// re-derives through the serial oracle after the merge.
type VerifyMode string

const (
	// VerifyOff trusts the merge's duplicate-fingerprint checks alone.
	VerifyOff VerifyMode = "off"
	// VerifySample re-runs a 3-cell sample (first, middle, last of the
	// canonical order) in-process and compares fingerprints — the
	// default: it catches systematic divergence at constant cost.
	VerifySample VerifyMode = "sample"
	// VerifyFull re-runs every completed cell serially — the full
	// oracle, doubling campaign cost; for CI smoke grids and audits.
	VerifyFull VerifyMode = "full"
)

// ParseVerifyMode validates a -dispatch-verify flag value.
func ParseVerifyMode(s string) (VerifyMode, error) {
	switch VerifyMode(s) {
	case VerifyOff, VerifySample, VerifyFull:
		return VerifyMode(s), nil
	}
	return "", fmt.Errorf("dispatch: unknown verify mode %q (want off, sample or full)", s)
}

// Spawner launches one worker incarnation. The returned command must
// not be started — the coordinator wires its stdin/stdout pipes and
// starts it. The CLIs spawn their own binary with -worker flags; tests
// substitute a re-exec of the test binary.
type Spawner func(worker int, journalPath string) (*exec.Cmd, error)

// Options configures a distributed campaign run.
type Options struct {
	// Dir holds the campaign's durable state: ledger.jsonl, one
	// worker-NNNN.jsonl journal per worker incarnation, and the final
	// merged.jsonl. Re-running a killed coordinator with the same Dir
	// resumes: completed cells are recognised from the worker journals
	// and poison quarantines are recovered from the ledger.
	Dir string
	// Workers is the number of concurrently live worker processes.
	Workers int
	// LeaseTTL expires a lease with no heartbeat renewal (default 30s).
	LeaseTTL time.Duration
	// PoisonAfter quarantines a cell once it has struck this many
	// distinct worker incarnations (default 2). A cell that every
	// currently-live worker has struck is quarantined early — waiting
	// cannot produce a fresh incarnation when failures don't kill
	// workers.
	PoisonAfter int
	// DrainGrace bounds each stage of worker shutdown: EOF/SIGTERM →
	// grace → SIGKILL (default 10s).
	DrainGrace time.Duration
	// Verify selects post-merge serial-oracle verification (default
	// sample).
	Verify VerifyMode
	// Spawn launches worker processes. Required.
	Spawn Spawner
	// MaxSpawns bounds total worker incarnations, a backstop against
	// respawn storms (default Workers + PoisonAfter×cells).
	MaxSpawns int
	// Metrics, when non-nil, receives dispatch.* counters and gauges.
	Metrics *obs.Registry
	// Meter, when non-nil, advances once per campaign cell (resumed
	// cells step as cached).
	Meter *obs.ProgressMeter
	// Logf receives coordinator diagnostics (default stderr).
	Logf func(format string, args ...any)
}

// PoisonedCell is one quarantined cell of a finished campaign.
type PoisonedCell struct {
	Key     string `json:"key"`
	Label   string `json:"label"`
	Workers []int  `json:"workers"` // incarnations it struck
	Reason  string `json:"reason"`
	Stack   string `json:"stack,omitempty"`
}

// Report is the outcome of a distributed campaign.
type Report struct {
	// Cells is the campaign size; Completed counts cells with a merged
	// result (Completed + len(Poisoned) == Cells on a finished run).
	Cells     int
	Completed int
	// Resumed counts cells recognised from prior worker journals at
	// startup instead of re-run.
	Resumed int
	// Duplicates counts cells finished by more than one worker — each
	// verified bit-identical at merge.
	Duplicates int
	// Reclaimed counts leases taken back from failed, exited or
	// expired workers and re-queued.
	Reclaimed int
	// Expired counts leases reclaimed specifically by TTL expiry.
	Expired int
	// Spawned counts worker incarnations launched this run.
	Spawned int
	// Verified counts cells re-derived through the serial oracle.
	Verified int
	// Poisoned lists quarantined cells in canonical order. A non-empty
	// list means the campaign is incomplete: callers must report the
	// quarantine and exit nonzero.
	Poisoned []PoisonedCell
	// MergedPath is the merged journal — a normal sweep journal any
	// single-process run can resume from, which is exactly how the CLIs
	// assemble tables and the campaign fingerprint from it.
	MergedPath string
}

// wevent is one occurrence on a worker: a protocol message, or — with
// msg nil — the process exit (err carries the wait status).
type wevent struct {
	w   *workerProc
	msg *wireMsg
	err error
}

type workerProc struct {
	inc     int // incarnation number, unique for all time within Dir
	slot    int // stable 0..Workers-1 position, survives respawn
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	journal string
	helloed bool
	exited  bool
	// dying marks a worker being put down (expired lease or drain
	// escalation): its messages are ignored and it gets no new leases.
	dying  bool
	termAt time.Time
	// lease state: cell index (-1 idle), key, TTL deadline, and the
	// last time a renewal hit the ledger (renews are throttled).
	lease       int
	leaseKey    string
	deadline    time.Time
	ledgerRenew time.Time
	cells       *obs.Counter // per-slot throughput
}

type failInfo struct {
	reason string
	stack  string
}

type coordinator struct {
	opt    Options
	cells  []Cell
	index  map[string]int
	ledger *Ledger
	events chan wevent

	workers   map[int]*workerProc
	queue     []int
	completed map[string]bool
	poisoned  map[string]*PoisonedCell
	strikes   map[string]map[int]bool
	lastFail  map[string]failInfo
	journals  []string
	nextInc   int
	draining  bool
	drainAt   time.Time

	rep *Report

	cLeases, cRenews, cExpired, cReclaimed *obs.Counter
	cCompleted, cDuplicates, cPoisoned     *obs.Counter
	cSpawned, cFailures                    *obs.Counter
	gLive, gPending                        *obs.Gauge
}

// Run executes a campaign across worker processes and returns when
// every cell is either merged or quarantined. The error return is for
// infrastructure failure or cancellation — a campaign that finished
// with poisoned cells returns a nil error and a Report whose Poisoned
// list the caller must surface with a nonzero exit.
func Run(ctx context.Context, cells []Cell, opt Options) (*Report, error) {
	if opt.Spawn == nil {
		return nil, fmt.Errorf("dispatch: Options.Spawn is required")
	}
	if opt.Dir == "" {
		return nil, fmt.Errorf("dispatch: Options.Dir is required")
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 30 * time.Second
	}
	if opt.PoisonAfter <= 0 {
		opt.PoisonAfter = 2
	}
	if opt.DrainGrace <= 0 {
		opt.DrainGrace = 10 * time.Second
	}
	if opt.Verify == "" {
		opt.Verify = VerifySample
	}
	if opt.MaxSpawns <= 0 {
		opt.MaxSpawns = opt.Workers + opt.PoisonAfter*len(cells)
	}
	if opt.Logf == nil {
		opt.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dispatch: "+format+"\n", args...)
		}
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("dispatch: creating campaign dir: %w", err)
	}

	c := &coordinator{
		opt:       opt,
		cells:     cells,
		index:     make(map[string]int, len(cells)),
		events:    make(chan wevent, 4*opt.Workers+16),
		workers:   make(map[int]*workerProc),
		completed: make(map[string]bool),
		poisoned:  make(map[string]*PoisonedCell),
		strikes:   make(map[string]map[int]bool),
		lastFail:  make(map[string]failInfo),
		nextInc:   1,
		rep:       &Report{Cells: len(cells)},
	}
	for i, cell := range cells {
		if _, dup := c.index[cell.Key]; dup {
			return nil, fmt.Errorf("dispatch: duplicate cell key %.12s… at index %d", cell.Key, i)
		}
		c.index[cell.Key] = i
	}
	if reg := opt.Metrics; reg != nil {
		c.cLeases = reg.Counter("dispatch.leases")
		c.cRenews = reg.Counter("dispatch.renews")
		c.cExpired = reg.Counter("dispatch.leases_expired")
		c.cReclaimed = reg.Counter("dispatch.leases_reclaimed")
		c.cCompleted = reg.Counter("dispatch.cells_completed")
		c.cDuplicates = reg.Counter("dispatch.cells_duplicate")
		c.cPoisoned = reg.Counter("dispatch.cells_poisoned")
		c.cSpawned = reg.Counter("dispatch.workers_spawned")
		c.cFailures = reg.Counter("dispatch.cell_failures")
		c.gLive = reg.Gauge("dispatch.workers_live")
		c.gPending = reg.Gauge("dispatch.cells_pending")
	}

	ledger, recs, err := OpenLedger(filepath.Join(opt.Dir, "ledger.jsonl"))
	if err != nil {
		return nil, err
	}
	c.ledger = ledger
	defer ledger.Close()
	if err := c.recover(recs); err != nil {
		return nil, err
	}

	if len(c.queue) > 0 {
		if err := c.loop(ctx); err != nil {
			return c.rep, err
		}
	}
	if err := c.finish(ctx); err != nil {
		return c.rep, err
	}
	return c.rep, nil
}

// recover rebuilds campaign state from a previous coordinator's Dir:
// completed cells from the worker journals (tolerating crash-truncated
// tails), quarantines and strike history from the ledger, and the
// incarnation counter from the journal filenames so respawns never
// collide with prior files.
func (c *coordinator) recover(recs []Record) error {
	prior, err := filepath.Glob(filepath.Join(c.opt.Dir, "worker-*.jsonl"))
	if err != nil {
		return fmt.Errorf("dispatch: scanning worker journals: %w", err)
	}
	sort.Strings(prior)
	for _, p := range prior {
		var inc int
		if _, err := fmt.Sscanf(filepath.Base(p), "worker-%d.jsonl", &inc); err == nil && inc >= c.nextInc {
			c.nextInc = inc + 1
		}
		cellsDone, err := core.ReadJournal(p)
		if err != nil {
			return err
		}
		for key := range cellsDone {
			if _, ours := c.index[key]; ours && !c.completed[key] {
				c.completed[key] = true
				c.rep.Resumed++
				c.opt.Meter.StepCached(Label(c.cells[c.index[key]].Config))
			}
		}
		c.journals = append(c.journals, p)
	}
	for _, rec := range recs {
		i, ours := c.index[rec.Key]
		if !ours {
			continue
		}
		switch rec.Op {
		case OpAbandon:
			m := c.strikes[rec.Key]
			if m == nil {
				m = make(map[int]bool)
				c.strikes[rec.Key] = m
			}
			m[rec.Worker] = true
			c.lastFail[rec.Key] = failInfo{reason: rec.Reason, stack: rec.Stack}
		case OpPoison:
			if c.poisoned[rec.Key] == nil {
				c.poisoned[rec.Key] = &PoisonedCell{
					Key:    rec.Key,
					Label:  Label(c.cells[i].Config),
					Reason: rec.Reason,
					Stack:  rec.Stack,
				}
			}
		}
	}
	// A cell whose strike history already crossed the threshold — the
	// previous coordinator died between the strike and the poison
	// record — is quarantined now, unless some worker finished it.
	for key, m := range c.strikes {
		if !c.completed[key] && c.poisoned[key] == nil && len(m) >= c.opt.PoisonAfter {
			c.poison(key, "")
		}
	}
	for key, pc := range c.poisoned {
		pc.Workers = strikeList(c.strikes[key])
	}
	for i, cell := range c.cells {
		if !c.completed[cell.Key] && c.poisoned[cell.Key] == nil {
			c.queue = append(c.queue, i)
		}
	}
	if c.rep.Resumed > 0 || len(c.poisoned) > 0 {
		c.opt.Logf("resuming campaign: %d/%d cells already journaled, %d poisoned, %d to run",
			c.rep.Resumed, len(c.cells), len(c.poisoned), len(c.queue))
	}
	c.setPending()
	return nil
}

// loop is the coordinator's event loop: spawn, assign, react to worker
// messages and exits, expire leases on ticks, and drain when the grid
// is exhausted or ctx is canceled.
func (c *coordinator) loop(ctx context.Context) error {
	for i := 0; i < c.opt.Workers && i < len(c.queue); i++ {
		if err := c.spawn(i); err != nil {
			c.killAll()
			return err
		}
	}
	tick := c.opt.LeaseTTL / 4
	if tick > time.Second {
		tick = time.Second
	}
	if tick < 20*time.Millisecond {
		tick = 20 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		if c.campaignDone() && !c.draining {
			c.beginDrain()
		}
		if c.draining && c.liveWorkers() == 0 {
			return nil
		}
		select {
		case ev := <-c.events:
			if err := c.handle(ev); err != nil {
				c.killAll()
				return err
			}
		case <-ticker.C:
			c.tick()
		case <-ctx.Done():
			c.opt.Logf("canceled — draining %d worker(s); rerun with the same flags to resume from %s",
				c.liveWorkers(), c.opt.Dir)
			c.beginDrain()
			derr := core.AwaitDrain(ctx, c.opt.DrainGrace, c.drainWorkers)
			if derr != nil {
				c.opt.Logf("drain: %v", derr)
			}
			return fmt.Errorf("dispatch: campaign interrupted: %w (journals in %s are resumable)", ctx.Err(), c.opt.Dir)
		}
	}
}

// handle processes one worker event.
func (c *coordinator) handle(ev wevent) error {
	w := ev.w
	if ev.msg == nil {
		return c.handleExit(w, ev.err)
	}
	if w.exited || (w.dying && ev.msg.Type != msgHello) {
		return nil
	}
	switch ev.msg.Type {
	case msgHello:
		if ev.msg.Proto != ProtoVersion {
			return fmt.Errorf("dispatch: worker %d speaks protocol %q, coordinator speaks %q — mixed binaries?",
				w.inc, ev.msg.Proto, ProtoVersion)
		}
		w.helloed = true
		c.assignIdle()
	case msgHeartbeat:
		if w.lease < 0 || ev.msg.Key != w.leaseKey {
			return nil
		}
		w.deadline = time.Now().Add(c.opt.LeaseTTL)
		count(c.cRenews)
		if time.Since(w.ledgerRenew) >= c.opt.LeaseTTL/2 {
			w.ledgerRenew = time.Now()
			if err := c.ledger.Append(Record{Op: OpRenew, Key: w.leaseKey, Worker: w.inc}); err != nil {
				return err
			}
		}
	case msgDone:
		if w.lease < 0 || ev.msg.Key != w.leaseKey {
			c.opt.Logf("worker %d reported done for unleased cell %.12s… — ignoring", w.inc, ev.msg.Key)
			return nil
		}
		key := w.leaseKey
		c.releaseLease(w)
		if c.completed[key] {
			c.rep.Duplicates++
			count(c.cDuplicates)
		} else {
			c.completed[key] = true
			count(c.cCompleted)
			count(w.cells)
			c.opt.Meter.Step(Label(c.cells[c.index[key]].Config))
			if err := c.ledger.Append(Record{Op: OpComplete, Key: key, Worker: w.inc}); err != nil {
				return err
			}
		}
		c.setPending()
		c.assignIdle()
	case msgFail:
		if w.lease < 0 || ev.msg.Key != w.leaseKey {
			return nil
		}
		key := w.leaseKey
		c.releaseLease(w)
		count(c.cFailures)
		c.opt.Logf("worker %d failed cell %s: %s", w.inc, Label(c.cells[c.index[key]].Config), ev.msg.Error)
		if err := c.ledger.Append(Record{Op: OpAbandon, Key: key, Worker: w.inc,
			Reason: "worker failed: " + ev.msg.Error, Stack: ev.msg.Stack}); err != nil {
			return err
		}
		c.strike(key, w.inc, "worker failed: "+ev.msg.Error, ev.msg.Stack)
		c.requeue(key)
		c.assignIdle()
	}
	return nil
}

// handleExit reacts to a worker process ending: reclaim its lease (a
// strike — the cell may have taken the process down), and respawn a
// replacement while work remains.
func (c *coordinator) handleExit(w *workerProc, werr error) error {
	if w.exited {
		return nil
	}
	w.exited = true
	c.setLive()
	status := "exit status 0"
	if werr != nil {
		status = werr.Error()
	}
	if w.lease >= 0 {
		key := w.leaseKey
		c.releaseLease(w)
		c.rep.Reclaimed++
		count(c.cReclaimed)
		c.opt.Logf("worker %d exited (%s) holding cell %s — lease reclaimed", w.inc, status, Label(c.cells[c.index[key]].Config))
		if err := c.ledger.Append(Record{Op: OpAbandon, Key: key, Worker: w.inc,
			Reason: "worker exited: " + status}); err != nil {
			return err
		}
		c.strike(key, w.inc, "worker exited: "+status, "")
		c.requeue(key)
	} else if !c.draining {
		c.opt.Logf("worker %d exited (%s)", w.inc, status)
	}
	if !c.draining && c.workRemains() {
		if c.rep.Spawned >= c.opt.MaxSpawns {
			if c.liveWorkers() == 0 {
				return fmt.Errorf("dispatch: respawn budget (%d) exhausted with %d cell(s) unfinished — journals in %s are resumable",
					c.opt.MaxSpawns, len(c.queue), c.opt.Dir)
			}
		} else if err := c.spawn(w.slot); err != nil {
			return err
		}
		c.assignIdle()
	}
	return nil
}

// tick expires silent leases and escalates shutdown of dying workers.
func (c *coordinator) tick() {
	now := time.Now()
	for _, w := range c.workers {
		if w.exited {
			continue
		}
		if w.lease >= 0 && !w.dying && now.After(w.deadline) {
			key := w.leaseKey
			c.releaseLease(w)
			c.rep.Expired++
			c.rep.Reclaimed++
			count(c.cExpired)
			count(c.cReclaimed)
			c.opt.Logf("worker %d lease on %s expired (no heartbeat for %v) — reclaiming and putting the worker down",
				w.inc, Label(c.cells[c.index[key]].Config), c.opt.LeaseTTL)
			if err := c.ledger.Append(Record{Op: OpAbandon, Key: key, Worker: w.inc,
				Reason: fmt.Sprintf("lease expired: no heartbeat within %v", c.opt.LeaseTTL)}); err != nil {
				c.opt.Logf("ledger: %v", err)
			}
			c.strike(key, w.inc, "lease expired", "")
			c.requeue(key)
			c.putDown(w, now)
		}
		if w.dying && now.After(w.termAt.Add(c.opt.DrainGrace)) {
			c.opt.Logf("worker %d ignored SIGTERM for %v — SIGKILL", w.inc, c.opt.DrainGrace)
			_ = w.cmd.Process.Kill()
			w.termAt = now.Add(24 * time.Hour) // don't re-kill every tick
		}
	}
	if c.draining && time.Since(c.drainAt) > c.opt.DrainGrace {
		for _, w := range c.workers {
			if !w.exited && !w.dying {
				c.putDown(w, now)
			}
		}
	}
	c.assignIdle()
}

// spawn launches one worker incarnation into a slot.
func (c *coordinator) spawn(slot int) error {
	inc := c.nextInc
	c.nextInc++
	journal := filepath.Join(c.opt.Dir, fmt.Sprintf("worker-%04d.jsonl", inc))
	cmd, err := c.opt.Spawn(inc, journal)
	if err != nil {
		return fmt.Errorf("dispatch: spawning worker %d: %w", inc, err)
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("dispatch: worker %d stdin: %w", inc, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("dispatch: worker %d stdout: %w", inc, err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("dispatch: starting worker %d: %w", inc, err)
	}
	w := &workerProc{inc: inc, slot: slot, cmd: cmd, stdin: stdin, journal: journal, lease: -1}
	if c.opt.Metrics != nil {
		w.cells = c.opt.Metrics.Counter(fmt.Sprintf("dispatch.worker.%d.cells", slot))
	}
	c.workers[inc] = w
	c.journals = append(c.journals, journal)
	c.rep.Spawned++
	count(c.cSpawned)
	c.setLive()
	c.opt.Logf("worker %d (slot %d, pid %d) spawned", inc, slot, cmd.Process.Pid)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var msg wireMsg
			if err := json.Unmarshal(line, &msg); err != nil {
				continue // a worker writing junk will be caught by lease expiry
			}
			c.events <- wevent{w: w, msg: &msg}
		}
		c.events <- wevent{w: w, err: cmd.Wait()}
	}()
	return nil
}

// assignIdle hands queued cells to every idle live worker, skipping
// cells a worker has already struck; a cell every live worker has
// struck can never run again (failures don't mint new incarnations),
// so it is quarantined immediately rather than starved forever.
func (c *coordinator) assignIdle() {
	for _, w := range c.workers {
		if w.exited || w.dying || !w.helloed || w.lease >= 0 {
			continue
		}
		if i, ok := c.pickCell(w); ok {
			if err := c.assign(w, i); err != nil {
				c.opt.Logf("assigning to worker %d: %v — putting it down", w.inc, err)
				c.requeue(c.cells[i].Key)
				c.putDown(w, time.Now())
			}
		}
	}
	c.poisonUnassignable()
	c.setPending()
}

// pickCell removes and returns the first queued cell this worker has
// not struck.
func (c *coordinator) pickCell(w *workerProc) (int, bool) {
	for qi := 0; qi < len(c.queue); qi++ {
		i := c.queue[qi]
		key := c.cells[i].Key
		if c.completed[key] || c.poisoned[key] != nil {
			c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
			qi--
			continue
		}
		if c.strikes[key][w.inc] {
			continue
		}
		c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
		return i, true
	}
	return 0, false
}

// poisonUnassignable quarantines queued cells that can never run
// again. A plain failure doesn't kill its worker, so no respawn (and
// no fresh incarnation) is coming from it: once every live worker has
// struck a cell AND nothing else is in flight that could change the
// worker population, waiting is a permanent stall and the cell is
// quarantined even below the PoisonAfter threshold.
func (c *coordinator) poisonUnassignable() {
	live, idle := 0, true
	for _, w := range c.workers {
		if w.exited || w.dying {
			continue
		}
		live++
		if !w.helloed || w.lease >= 0 {
			idle = false // in-flight work can still finish, fail or crash
		}
	}
	if live == 0 {
		return
	}
	for _, i := range append([]int(nil), c.queue...) {
		key := c.cells[i].Key
		if len(c.strikes[key]) == 0 || c.completed[key] || c.poisoned[key] != nil {
			continue
		}
		struckAll := true
		for _, w := range c.workers {
			if !w.exited && !w.dying && !c.strikes[key][w.inc] {
				struckAll = false
				break
			}
		}
		if struckAll && (idle || c.rep.Spawned >= c.opt.MaxSpawns) {
			c.poison(key, "failed on every available worker")
		}
	}
}

// assign leases one cell to a worker: ledger first, then the wire.
func (c *coordinator) assign(w *workerProc, i int) error {
	cell := c.cells[i]
	if err := c.ledger.Append(Record{Op: OpLease, Key: cell.Key, Worker: w.inc}); err != nil {
		return err
	}
	count(c.cLeases)
	w.lease = i
	w.leaseKey = cell.Key
	w.deadline = time.Now().Add(c.opt.LeaseTTL)
	w.ledgerRenew = time.Now()
	b, err := json.Marshal(wireMsg{Type: msgAssign, Key: cell.Key, Config: &cell.Config})
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := w.stdin.Write(b); err != nil {
		c.releaseLease(w)
		return err
	}
	return nil
}

func (c *coordinator) releaseLease(w *workerProc) {
	w.lease = -1
	w.leaseKey = ""
}

// requeue puts a reclaimed cell back at the end of the queue unless it
// has since completed (a duplicate finisher) or been poisoned.
func (c *coordinator) requeue(key string) {
	if c.completed[key] || c.poisoned[key] != nil {
		return
	}
	for _, i := range c.queue {
		if c.cells[i].Key == key {
			return
		}
	}
	c.queue = append(c.queue, c.index[key])
	c.setPending()
}

// strike records that one worker incarnation went down on (or failed)
// a cell; crossing the PoisonAfter threshold quarantines it.
func (c *coordinator) strike(key string, inc int, reason, stack string) {
	m := c.strikes[key]
	if m == nil {
		m = make(map[int]bool)
		c.strikes[key] = m
	}
	m[inc] = true
	c.lastFail[key] = failInfo{reason: reason, stack: stack}
	if len(m) >= c.opt.PoisonAfter {
		c.poison(key, "")
	}
}

// poison quarantines a cell: a durable ledger record with the last
// failure's error and stack, a report entry, and the campaign moves on.
func (c *coordinator) poison(key, why string) {
	if c.poisoned[key] != nil || c.completed[key] {
		return
	}
	fi := c.lastFail[key]
	reason := fi.reason
	if why != "" {
		if reason != "" {
			reason = why + "; last failure: " + reason
		} else {
			reason = why
		}
	}
	i := c.index[key]
	pc := &PoisonedCell{
		Key:     key,
		Label:   Label(c.cells[i].Config),
		Workers: strikeList(c.strikes[key]),
		Reason:  reason,
		Stack:   fi.stack,
	}
	if err := c.ledger.Append(Record{Op: OpPoison, Key: key, Reason: reason, Stack: fi.stack}); err != nil {
		c.opt.Logf("ledger: %v", err)
	}
	c.poisoned[key] = pc
	count(c.cPoisoned)
	c.opt.Meter.Step(pc.Label + " [poisoned]")
	c.opt.Logf("cell %s (%.12s…) poisoned after striking %d distinct worker(s): %s", pc.Label, key, len(pc.Workers), reason)
}

// putDown starts a worker's two-stage demise: SIGTERM now (its
// SignalContext cancels the in-flight cell at the next epoch), SIGKILL
// after DrainGrace if it lingers.
func (c *coordinator) putDown(w *workerProc, now time.Time) {
	if w.exited || w.dying {
		return
	}
	w.dying = true
	w.termAt = now
	_ = w.stdin.Close()
	_ = w.cmd.Process.Signal(syscall.SIGTERM)
}

// beginDrain closes every live worker's stdin — the protocol's clean
// shutdown — and arms the tick escalation for stragglers.
func (c *coordinator) beginDrain() {
	c.draining = true
	c.drainAt = time.Now()
	for _, w := range c.workers {
		if !w.exited && !w.dying {
			_ = w.stdin.Close()
		}
	}
}

// drainWorkers consumes events until every worker has exited, with the
// deadline escalating to SIGKILL.
func (c *coordinator) drainWorkers(dctx context.Context) error {
	for _, w := range c.workers {
		if !w.exited {
			_ = w.stdin.Close()
			_ = w.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	killed := false
	for c.liveWorkers() > 0 {
		select {
		case ev := <-c.events:
			if ev.msg == nil {
				ev.w.exited = true
				c.setLive()
			}
		case <-dctx.Done():
			if killed {
				return dctx.Err()
			}
			killed = true
			for _, w := range c.workers {
				if !w.exited {
					_ = w.cmd.Process.Kill()
				}
			}
		}
	}
	return nil
}

// killAll is the abrupt teardown on coordinator-side errors.
func (c *coordinator) killAll() {
	for _, w := range c.workers {
		if !w.exited {
			_ = w.stdin.Close()
			_ = w.cmd.Process.Kill()
		}
	}
}

func (c *coordinator) campaignDone() bool {
	return len(c.completed)+len(c.poisoned) >= len(c.cells)
}

func (c *coordinator) workRemains() bool {
	for _, i := range c.queue {
		key := c.cells[i].Key
		if !c.completed[key] && c.poisoned[key] == nil {
			return true
		}
	}
	return false
}

func (c *coordinator) liveWorkers() int {
	n := 0
	for _, w := range c.workers {
		if !w.exited {
			n++
		}
	}
	return n
}

func (c *coordinator) setLive() {
	if c.gLive != nil {
		c.gLive.Set(float64(c.liveWorkers()))
	}
}

func (c *coordinator) setPending() {
	if c.gPending != nil {
		c.gPending.Set(float64(len(c.cells) - len(c.completed) - len(c.poisoned)))
	}
}

// finish merges the per-worker journals into the canonical merged
// journal and verifies it against the serial oracle per the verify
// mode. Every requested key must be accounted for: missing-but-not-
// poisoned cells mean the campaign state is inconsistent and the merge
// refuses.
func (c *coordinator) finish(ctx context.Context) error {
	keys := make([]string, len(c.cells))
	for i, cell := range c.cells {
		keys[i] = cell.Key
	}
	var srcs []string
	for _, p := range c.journals {
		if _, err := os.Stat(p); err == nil {
			srcs = append(srcs, p)
		}
	}
	mergedPath := filepath.Join(c.opt.Dir, "merged.jsonl")
	merged, mrep, err := core.MergeJournals(mergedPath, keys, srcs)
	if err != nil {
		return err
	}
	defer merged.Close()
	for _, key := range mrep.Missing {
		if c.poisoned[key] == nil {
			return fmt.Errorf("dispatch: merge is missing cell %.12s… which is not poisoned — campaign state inconsistent, refusing to report success", key)
		}
	}
	c.rep.Completed = mrep.Records
	// The merge's count is authoritative: it sees duplicates across
	// resumed journals this coordinator never observed live, and it has
	// fingerprint-verified every one of them.
	c.rep.Duplicates = mrep.Duplicates
	c.rep.MergedPath = mergedPath
	for _, cell := range c.cells {
		if pc := c.poisoned[cell.Key]; pc != nil {
			c.rep.Poisoned = append(c.rep.Poisoned, *pc)
		}
	}
	return c.verify(ctx, merged)
}

// verify re-derives cells through the serial oracle — core.RunContext
// in this process, same seeds, no dispatch — and compares timing- and
// environment-stripped fingerprints with the merged journal's. Any
// divergence refuses success: the distributed campaign's promise is
// that it is indistinguishable from a serial run.
func (c *coordinator) verify(ctx context.Context, merged *core.Journal) error {
	var idxs []int
	switch c.opt.Verify {
	case VerifyOff:
		return nil
	case VerifySample:
		for _, i := range []int{0, len(c.cells) / 2, len(c.cells) - 1} {
			if i >= 0 && i < len(c.cells) && c.completed[c.cells[i].Key] {
				idxs = append(idxs, i)
			}
		}
		sort.Ints(idxs)
		idxs = dedupInts(idxs)
	case VerifyFull:
		for i, cell := range c.cells {
			if c.completed[cell.Key] {
				idxs = append(idxs, i)
			}
		}
	}
	for _, i := range idxs {
		cell := c.cells[i]
		res, ok := merged.Cached(cell.Key)
		if !ok {
			return fmt.Errorf("dispatch: verify: merged journal lost cell %.12s…", cell.Key)
		}
		want, err := core.ResultFingerprint(res)
		if err != nil {
			return err
		}
		serial, err := core.RunContext(ctx, cell.Config, nil)
		if err != nil {
			return fmt.Errorf("dispatch: verify: serial oracle failed on %s: %w", Label(cell.Config), err)
		}
		got, err := core.ResultFingerprint(serial)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("dispatch: verify: cell %s (%.12s…) diverges from the serial oracle — refusing to report the distributed run as bit-identical", Label(cell.Config), cell.Key)
		}
		c.rep.Verified++
	}
	if c.rep.Verified > 0 {
		c.opt.Logf("verified %d cell(s) against the serial oracle (%s mode) — fingerprints agree", c.rep.Verified, c.opt.Verify)
	}
	return nil
}

func strikeList(m map[int]bool) []int {
	var out []int
	for inc := range m {
		out = append(out, inc)
	}
	sort.Ints(out)
	return out
}

func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}
