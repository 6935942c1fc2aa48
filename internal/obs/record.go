package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"runtime"
)

// RunRecordSchema identifies the run-record document format. Bump the
// suffix on breaking changes so downstream tooling can dispatch.
// History: v1 (PR 1) — config/topology/result/phases/environment;
// v2 (PR 6) — the result section gains the optional per-link/per-tier
// hot-spot attribution (flow.HotspotReport) and the config section the
// hotspot_k option;
// v3 (PR 7) — an optional sched section carries open-system scheduling
// outcomes (per-SLO-class latency percentiles, waits, stretch, Jain
// fairness) for records produced by spec-driven campaigns; absent on
// plain single-workload runs.
const RunRecordSchema = "mtier/run-record/v3"

// PhaseTimings holds the wall-clock cost of each phase of a simulation
// cell. These are the only non-deterministic fields of a RunRecord;
// Fingerprint strips them so records can be compared byte-for-byte.
type PhaseTimings struct {
	// BuildSeconds is the topology-construction time (0 when a prebuilt
	// instance was supplied, as in sweeps).
	BuildSeconds float64 `json:"build_seconds"`
	// WorkloadSeconds covers workload generation and task placement.
	WorkloadSeconds float64 `json:"workload_seconds"`
	// SimulateSeconds is the flow-engine run time.
	SimulateSeconds float64 `json:"simulate_seconds"`
}

// Total returns the summed phase time in seconds.
func (p PhaseTimings) Total() float64 {
	return p.BuildSeconds + p.WorkloadSeconds + p.SimulateSeconds
}

// Environment captures the process environment a record was produced in.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CaptureEnvironment reads the current process environment.
func CaptureEnvironment() Environment {
	return Environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// TopologyInfo records the invariants of the topology instance a cell ran
// on, so cost/energy accounting and sanity checks need not rebuild it.
type TopologyInfo struct {
	Name      string `json:"name"`
	Endpoints int    `json:"endpoints"`
	Vertices  int    `json:"vertices"`
	Switches  int    `json:"switches"`
	Links     int    `json:"links"`
}

// RunRecord is the self-describing document of one simulation cell: enough
// to reproduce the run (config + seed), audit the machine it modelled
// (topology invariants), interpret the outcome (result metrics) and judge
// the measurement itself (phase timings, environment). Config and Result
// are declared as any so this package stays dependency-free; callers fill
// them with their own JSON-serialisable structs.
type RunRecord struct {
	Schema   string       `json:"schema"`
	Config   any          `json:"config"`
	Topology TopologyInfo `json:"topology"`
	Flows    int          `json:"flows"`
	Seed     int64        `json:"seed"`
	Result   any          `json:"result"`
	// Sched carries the open-system scheduling outcome when the record
	// was produced by a spec-driven campaign cell (schema v3); nil — and
	// absent from the JSON form — on plain single-workload runs.
	Sched  any          `json:"sched,omitempty"`
	Phases PhaseTimings `json:"phases"`
	Env    Environment  `json:"environment"`
}

// WriteJSON writes the record as indented JSON.
func (r *RunRecord) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MarshalLine renders the record as a single JSON line (for JSONL streams
// of per-cell sweep records).
func (r *RunRecord) MarshalLine() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Fingerprint returns the canonical JSON form of the record with the
// timing fields zeroed: two runs of the same config and seed must produce
// byte-identical fingerprints. encoding/json emits struct fields in
// declaration order and map keys sorted, so the bytes are stable.
func (r *RunRecord) Fingerprint() ([]byte, error) {
	c := *r
	c.Phases = PhaseTimings{}
	return json.Marshal(&c)
}

// SHA256 is the hex sha256 of the record's Fingerprint: the digest
// mtserve returns in X-Mtier-Record-Sha256 and the CLIs print for
// -fingerprint.
func (r *RunRecord) SHA256() (string, error) {
	fp, err := r.Fingerprint()
	if err != nil {
		return "", err
	}
	return Digest(fp), nil
}

// Digest is the hex sha256 over fps concatenated in the order given: one
// record's digest, or a campaign's over its cells' fingerprints.
func Digest(fps ...[]byte) string {
	h := sha256.New()
	for _, fp := range fps {
		h.Write(fp)
	}
	return hex.EncodeToString(h.Sum(nil))
}
