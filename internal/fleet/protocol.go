// Package fleet distributes sweep and fault-campaign jobs across worker
// processes over an HTTP control plane, with the robustness guarantees of
// a local run: the merged tables, metrics exports and campaign reports are
// byte-identical to a single-machine run, no matter how many workers ran,
// which of them died mid-cell, or how the network mangled the result
// stream.
//
// The design leans on two existing invariants. First, every unit of work
// (a harness.Cell, a fault campaign unit) is deterministic and
// location-independent, identified by a stable fingerprint — so any worker
// may run any unit, twice if need be, and the bytes come out the same.
// Second, the journal's JSONL record format already serializes unit
// results durably; the fleet reuses its record encoding as the wire
// format of the worker's result stream. The gateway itself is a
// harness.Plan that a harness.Runner executes like any local plan, so a
// fleet job's journal is a local run's journal: each resumes the other.
//
// Work is handed out as leases: a unit index plus its fingerprint and a
// deadline. Workers heartbeat to extend their lease; a lease that expires
// (worker died, hung, or partitioned) is re-dispatched to another worker
// after a seeded-jitter exponential backoff, a bounded number of times.
// Duplicate results — the unavoidable race of re-dispatch — are deduped by
// fingerprint with a byte-equality cross-check: a duplicate that differs
// from the accepted bytes is a determinism violation and fails the job
// loudly. A version/scope handshake rejects workers built from a different
// protocol, journal format, or option set before they can run anything.
package fleet

import (
	"encoding/json"

	"tvarak/internal/param"
)

// ProtocolVersion is the fleet control-plane version. Gateway and worker
// must agree exactly; the join handshake rejects any mismatch with an
// error naming both versions.
const ProtocolVersion = 1

// Record kinds carried on the wire. Result payloads are kind-specific: a
// sweep unit's payload is the harness.Result JSON the run's journal holds
// under "cell"; a campaign unit's is the fault.UnitReport JSON it holds
// under "unit".
const (
	// KindResult is a completed unit's result record: fingerprint plus
	// the unit's payload bytes.
	KindResult = "fleet-result"
	// KindFail is a worker's failure report for a leased unit: the
	// gateway treats it like an expired lease (redelivery with backoff).
	KindFail = "fleet-fail"
)

// JobSpec declares a job declaratively — never as code — so the gateway
// and every worker can independently enumerate the identical unit list
// from it. Sweep jobs enumerate harness cells through the experiments
// registry; campaign jobs enumerate fault units through
// fault.CampaignUnits.
type JobSpec struct {
	// Kind selects the job family: "sweep" or "campaign".
	Kind string `json:"kind"`

	// Sweep fields (experiments.Options that shape cells).
	Experiment  string   `json:"experiment,omitempty"`
	Scale       float64  `json:"scale,omitempty"`
	FullScale   bool     `json:"fullScale,omitempty"`
	Designs     []string `json:"designs,omitempty"`
	SampleEvery uint64   `json:"sampleEvery,omitempty"`

	// Campaign fields (fault.Options that shape units). Designs is shared
	// with sweep jobs above.
	Seed int64    `json:"seed,omitempty"`
	N    int      `json:"n,omitempty"`
	Apps []string `json:"apps,omitempty"`

	// Async fields (param.AsyncConfig for Vilamb-family units, shared by
	// both job kinds). All-default async omits every field, so pre-async
	// specs and scopes round-trip byte-identically.
	EpochCyc    uint64 `json:"epochCyc,omitempty"`
	DirtyGran   string `json:"dirtyGran,omitempty"`
	Battery     bool   `json:"battery,omitempty"`
	Incremental bool   `json:"incremental,omitempty"`
}

// With returns s carrying the option groups both job kinds share: the
// design subset, in the Design.String() form every worker parses back,
// and the async flags.
func (s JobSpec) With(designs []param.Design, a param.AsyncFlags) JobSpec {
	for _, d := range designs {
		s.Designs = append(s.Designs, d.String())
	}
	s.EpochCyc, s.DirtyGran, s.Battery, s.Incremental = a.Epoch, a.DirtyGran, a.Battery, a.Incremental
	return s
}

// JobResponse answers GET /v1/job: the gateway's protocol identity, the
// job, and the scope every worker must independently derive from it.
type JobResponse struct {
	// Proto is the gateway's ProtocolVersion.
	Proto int `json:"proto"`
	// Format is the gateway's harness.JournalFormat (the wire format).
	Format int `json:"format"`
	// Scope is the job's scope string. A worker that derives a different
	// scope from the same Spec is running skewed code or options and must
	// not execute units.
	Scope string `json:"scope"`
	// LeaseTTLMillis is how long a lease lives without a heartbeat.
	LeaseTTLMillis int64 `json:"leaseTtlMillis"`
	// Spec is the job itself.
	Spec JobSpec `json:"spec"`
}

// JoinRequest is the POST /v1/join handshake: the worker's protocol
// identity plus the scope it derived from the job spec. The gateway
// rejects any mismatch before the worker can hold a lease.
type JoinRequest struct {
	Proto  int    `json:"proto"`
	Format int    `json:"format"`
	Scope  string `json:"scope"`
	Worker string `json:"worker"`
}

// LeaseRequest asks for the next eligible unit.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease states in LeaseResponse.Status.
const (
	// StatusGrant carries a lease on one unit.
	StatusGrant = "grant"
	// StatusWait means nothing is eligible right now (all units leased or
	// parked in redelivery backoff); retry after WaitMillis.
	StatusWait = "wait"
	// StatusDone means the job is resolved; the worker should exit.
	StatusDone = "done"
)

// LeaseResponse answers POST /v1/lease.
type LeaseResponse struct {
	Status string `json:"status"`
	// Grant fields.
	LeaseID string `json:"leaseId,omitempty"`
	Index   int    `json:"index,omitempty"`
	// Fp is the gateway's fingerprint for the unit. The worker
	// cross-checks it against its own enumeration before running — a
	// mismatch means skewed binaries survived the scope handshake (scope
	// strings can collide; fingerprints hash the full configuration).
	Fp    string `json:"fp,omitempty"`
	Label string `json:"label,omitempty"`
	// TTLMillis is the lease's heartbeat deadline distance.
	TTLMillis int64 `json:"ttlMillis,omitempty"`
	// Wait field.
	WaitMillis int64 `json:"waitMillis,omitempty"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	LeaseID string `json:"leaseId"`
}

// HeartbeatResponse answers POST /v1/heartbeat. Gone reports that the
// lease no longer exists (expired and re-dispatched, or the unit is
// already done): the worker should abandon the unit — its result, if it
// still arrives, is deduped by fingerprint.
type HeartbeatResponse struct {
	OK   bool `json:"ok"`
	Gone bool `json:"gone,omitempty"`
}

// Result statuses in ResultResponse.Status.
const (
	// ResultAccepted: first result for the unit; the run journals it.
	ResultAccepted = "accepted"
	// ResultDuplicate: the unit was already done and the bytes matched.
	ResultDuplicate = "duplicate"
	// ResultDivergent: the unit was already done and the bytes DIFFERED —
	// a determinism violation the gateway records and fails the job on.
	ResultDivergent = "divergent"
	// ResultFailed: the body was a KindFail record, and the unit goes back
	// into the redelivery queue (or fails terminally); or the body was a
	// result for a unit that had already failed terminally.
	ResultFailed = "failed"
)

// ResultResponse answers POST /v1/result.
type ResultResponse struct {
	Status string `json:"status"`
}

// UnitStatus is one unit's dispatch state in StatusResponse.
type UnitStatus struct {
	Index      int    `json:"index"`
	Label      string `json:"label"`
	State      string `json:"state"` // pending | leased | delayed | done | failed
	Worker     string `json:"worker,omitempty"`
	Deliveries int    `json:"deliveries"`
}

// StatusResponse answers GET /v1/status: live dispatch counters for
// operators and the CI gate.
type StatusResponse struct {
	Total       int          `json:"total"`
	Done        int          `json:"done"`
	Failed      int          `json:"failed"`
	Granted     int          `json:"granted"`
	Expired     int          `json:"expired"`
	Redelivered int          `json:"redelivered"`
	Duplicates  int          `json:"duplicates"`
	Divergent   int          `json:"divergent"`
	Resolved    bool         `json:"resolved"`
	Units       []UnitStatus `json:"units,omitempty"`
}

// errorBody is the JSON error envelope for non-200 responses.
type errorBody struct {
	Error string `json:"error"`
}

func errJSON(msg string) []byte {
	b, _ := json.Marshal(errorBody{Error: msg})
	return b
}
