package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// progressRedrawInterval rate-limits the in-place stderr redraws: a
// resumed sweep splicing thousands of journal-cached cells would
// otherwise emit one terminal write per cell. Finishing cells and the
// final cell always draw, so short sweeps still show every step.
const progressRedrawInterval = 50 * time.Millisecond

// ProgressMeter renders a single live status line for a long sweep:
// cells done / total, the label of the most recently finished cell, and an
// ETA extrapolated from the running mean cell duration. It redraws in
// place with carriage returns, so point it at a terminal stream (stderr)
// — never at the stream carrying tables or CSV.
//
// Cells spliced from a checkpoint journal are recorded with StepCached:
// they count toward completion but are excluded from the rate estimate,
// so a resumed sweep's ETA reflects the cost of the cells it actually
// simulates instead of being diluted toward zero by the cached ones.
//
// Step and StepCached may be called from concurrent sweep workers.
type ProgressMeter struct {
	mu        sync.Mutex
	w         io.Writer
	total     int
	done      int
	cached    int
	start     time.Time
	lastLen   int
	lastLabel string
	lastDraw  time.Time
	// now is swappable for tests.
	now func() time.Time
}

// NewProgressMeter creates a meter for total units writing to w. A
// non-positive total yields an inert meter whose methods are no-ops, so
// callers can thread one unconditionally. A nil w tracks progress (for
// Snapshot and the /progress endpoint) without drawing.
func NewProgressMeter(w io.Writer, total int) *ProgressMeter {
	p := &ProgressMeter{w: w, total: total, now: time.Now}
	p.start = p.now()
	return p
}

// Step records one finished unit (labelled for display) and redraws.
func (p *ProgressMeter) Step(label string) { p.step(label, false) }

// StepCached records one unit spliced from a checkpoint journal: it
// advances completion but not the rate estimate.
func (p *ProgressMeter) StepCached(label string) { p.step(label, true) }

func (p *ProgressMeter) step(label string, cached bool) {
	if p == nil || p.total <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if cached {
		p.cached++
		label += " [cached]"
	}
	p.lastLabel = label
	if p.w == nil {
		// Writer-less meters still count (the /progress endpoint reads
		// them via Snapshot); they just never draw.
		return
	}
	ts := p.now()
	// Rate limit: intermediate steps inside the redraw window are
	// absorbed into the next draw; the final cell always lands.
	if p.done < p.total && !p.lastDraw.IsZero() && ts.Sub(p.lastDraw) < progressRedrawInterval {
		return
	}
	p.lastDraw = ts
	line := fmt.Sprintf("[%d/%d] %s", p.done, p.total, label)
	if eta, ok := p.etaLocked(ts); ok {
		line += fmt.Sprintf("  eta %s", formatETA(eta))
	}
	p.draw(line)
}

// etaLocked extrapolates the remaining time from the mean duration of
// the simulated (non-cached) cells. No simulated cell yet means no
// estimate.
func (p *ProgressMeter) etaLocked(ts time.Time) (time.Duration, bool) {
	if p.done >= p.total {
		return 0, false
	}
	simulated := p.done - p.cached
	if simulated <= 0 {
		return 0, false
	}
	elapsed := ts.Sub(p.start)
	mean := elapsed / time.Duration(simulated)
	return mean * time.Duration(p.total-p.done), true
}

// ProgressSnapshot is the meter's state at a point in time, served as
// JSON by the observability HTTP endpoint.
type ProgressSnapshot struct {
	Total          int     `json:"total"`
	Done           int     `json:"done"`
	Cached         int     `json:"cached"`
	LastLabel      string  `json:"last_label,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ETASeconds is -1 when no estimate exists yet.
	ETASeconds float64 `json:"eta_seconds"`
}

// Snapshot captures the meter's current state. Safe on a nil or inert
// meter (returns the zero snapshot with ETASeconds -1).
func (p *ProgressMeter) Snapshot() ProgressSnapshot {
	if p == nil || p.total <= 0 {
		return ProgressSnapshot{ETASeconds: -1}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ts := p.now()
	s := ProgressSnapshot{
		Total:          p.total,
		Done:           p.done,
		Cached:         p.cached,
		LastLabel:      p.lastLabel,
		ElapsedSeconds: ts.Sub(p.start).Seconds(),
		ETASeconds:     -1,
	}
	if eta, ok := p.etaLocked(ts); ok {
		s.ETASeconds = eta.Seconds()
	}
	return s
}

// Clear erases the live line so output landing on a shared terminal
// starts clean; the next step redraws it.
func (p *ProgressMeter) Clear() {
	if p == nil || p.w == nil || p.total <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprint(p.w, "\r\033[K")
	p.lastLen = 0
}

// Finish clears the live line and prints a one-line summary with the
// total elapsed time.
func (p *ProgressMeter) Finish() {
	if p == nil || p.w == nil || p.total <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	elapsed := p.now().Sub(p.start)
	p.draw(fmt.Sprintf("[%d/%d] done in %s", p.done, p.total, formatETA(elapsed)))
	fmt.Fprintln(p.w)
	p.lastLen = 0
}

// draw writes the line over the previous one, padding with spaces so a
// shorter line fully erases a longer predecessor.
func (p *ProgressMeter) draw(line string) {
	pad := ""
	if n := p.lastLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(p.w, "\r%s%s", line, pad)
	p.lastLen = len(line)
}

// formatETA renders a duration with second granularity (sub-second
// durations keep millisecond precision so short sweeps still show
// movement).
func formatETA(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	if d < time.Second {
		return d.Round(time.Millisecond).String()
	}
	return d.Round(time.Second).String()
}
