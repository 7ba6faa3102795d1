package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"tvarak/internal/harness"
)

// Unit dispatch states.
const (
	statePending = "pending" // never leased, eligible now
	stateLeased  = "leased"  // held by a worker under an unexpired lease
	stateDelayed = "delayed" // failed/expired, parked until its backoff elapses
	stateDone    = "done"    // result accepted (bytes retained for dedup)
	stateFailed  = "failed"  // redelivery exhausted; terminal
)

// unitEntry is one unit's dispatch record.
type unitEntry struct {
	state      string
	deliveries int       // leases granted for this unit so far
	leaseID    string    // current lease (stateLeased)
	worker     string    // current/last worker
	deadline   time.Time // lease expiry (stateLeased)
	eligible   time.Time // redelivery backoff end (stateDelayed)
	payload    json.RawMessage
	failure    string // terminal failure message (stateFailed)
}

// leaseTable is the gateway's dispatch state machine: which unit is
// pending, leased (to whom, until when), parked in redelivery backoff,
// done (with which bytes), or terminally failed. Every transition happens
// under one mutex with an injected clock, so tests drive expiry and
// backoff deterministically without sleeping.
type leaseTable struct {
	mu      sync.Mutex
	units   []unitEntry
	labels  []string
	fpIndex map[string]int // fingerprint -> unit index
	fps     []string

	now           func() time.Time
	ttl           time.Duration
	maxDeliveries int
	backoff       harness.BackoffPolicy

	nextLease int // lease id sequence

	// Counters mirrored into StatusResponse (metrics are the gateway's
	// job — the table just counts).
	granted     int
	expired     int
	redelivered int
	duplicates  int
	divergent   int

	// divergences records determinism violations: a duplicate result
	// whose bytes differed from the accepted ones.
	divergences []string
}

func newLeaseTable(p harness.Plan, ttl time.Duration, maxDeliveries int, backoff harness.BackoffPolicy, now func() time.Time) *leaseTable {
	n := p.Units()
	t := &leaseTable{
		units:         make([]unitEntry, n),
		labels:        make([]string, n),
		fps:           make([]string, n),
		fpIndex:       make(map[string]int, n),
		now:           now,
		ttl:           ttl,
		maxDeliveries: maxDeliveries,
		backoff:       backoff,
	}
	for i := 0; i < n; i++ {
		t.units[i].state = statePending
		t.labels[i] = p.Label(i)
		fp := p.Fingerprint(i)
		t.fps[i] = fp
		t.fpIndex[fp] = i
	}
	return t
}

// restore pre-completes a unit from the gateway's resume journal.
func (t *leaseTable) restore(i int, payload json.RawMessage) {
	t.mu.Lock()
	defer t.mu.Unlock()
	u := &t.units[i]
	u.state = stateDone
	u.payload = payload
}

// sweepLocked expires overdue leases and returns how many it expired.
// Expired units re-enter dispatch: parked behind the redelivery backoff if
// deliveries remain, terminally failed otherwise.
func (t *leaseTable) sweepLocked() int {
	now := t.now()
	n := 0
	for i := range t.units {
		u := &t.units[i]
		if u.state == stateLeased && now.After(u.deadline) {
			t.expired++
			n++
			t.requeueLocked(i, "lease expired (worker lost or hung)")
		}
	}
	return n
}

// requeueLocked moves a leased unit back into dispatch after an expiry or
// a worker failure report.
func (t *leaseTable) requeueLocked(i int, why string) {
	u := &t.units[i]
	u.leaseID = ""
	if u.deliveries >= t.maxDeliveries {
		u.state = stateFailed
		u.failure = fmt.Sprintf("%s after %d deliveries (last worker %s): %s",
			t.labels[i], u.deliveries, u.worker, why)
		return
	}
	u.state = stateDelayed
	// Seed the jitter per unit so parked units spread out instead of
	// becoming eligible in lockstep.
	pol := t.backoff
	pol.Seed ^= uint64(i) * 0x9e3779b97f4a7c15
	u.eligible = t.now().Add(pol.Delay(u.deliveries))
}

// sweep is sweepLocked for callers outside the table.
func (t *leaseTable) sweep() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sweepLocked()
}

// acquire grants the lowest-index eligible unit to worker, or reports how
// long to wait, or that the job is resolved. Eligibility is in index
// order: redelivery respects enumeration order too.
func (t *leaseTable) acquire(worker string) (lease LeaseResponse) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	now := t.now()
	wait := time.Duration(0)
	for i := range t.units {
		u := &t.units[i]
		switch u.state {
		case statePending:
		case stateDelayed:
			if u.eligible.After(now) {
				if d := u.eligible.Sub(now); wait == 0 || d < wait {
					wait = d
				}
				continue
			}
			t.redelivered++
		case stateLeased:
			if d := u.deadline.Sub(now); wait == 0 || d < wait {
				wait = d
			}
			continue
		default:
			continue
		}
		u.state = stateLeased
		u.deliveries++
		u.worker = worker
		u.deadline = now.Add(t.ttl)
		t.nextLease++
		u.leaseID = fmt.Sprintf("l%d-u%d", t.nextLease, i)
		t.granted++
		return LeaseResponse{
			Status: StatusGrant, LeaseID: u.leaseID, Index: i,
			Fp: t.fps[i], Label: t.labels[i], TTLMillis: t.ttl.Milliseconds(),
		}
	}
	if t.resolvedLocked() {
		return LeaseResponse{Status: StatusDone}
	}
	if wait <= 0 || wait > t.ttl {
		wait = t.ttl / 4
	}
	if min := 5 * time.Millisecond; wait < min {
		wait = min
	}
	return LeaseResponse{Status: StatusWait, WaitMillis: wait.Milliseconds()}
}

// heartbeat extends a lease's deadline. A false return means the lease is
// gone — expired and re-dispatched, or its unit already resolved — and the
// worker should abandon the unit.
func (t *leaseTable) heartbeat(leaseID string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	for i := range t.units {
		u := &t.units[i]
		if u.state == stateLeased && u.leaseID == leaseID {
			u.deadline = t.now().Add(t.ttl)
			return true
		}
	}
	return false
}

// complete accepts a result by fingerprint — deliberately NOT by lease:
// a result computed under a lease that has since expired and been
// re-dispatched is still a correct result (units are deterministic), so it
// is accepted if it arrives first and byte-verified if it arrives second.
// The returned status distinguishes first acceptance, a byte-identical
// duplicate, and a divergent duplicate (a determinism violation recorded
// for the job verdict). ok is false when the fingerprint is unknown.
func (t *leaseTable) complete(fp string, payload json.RawMessage) (status string, first bool, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, known := t.fpIndex[fp]
	if !known {
		return "", false, false
	}
	u := &t.units[i]
	if u.state == stateDone {
		if bytes.Equal(u.payload, payload) {
			t.duplicates++
			return ResultDuplicate, false, true
		}
		t.divergent++
		t.divergences = append(t.divergences, fmt.Sprintf(
			"unit %d (%s): duplicate result differs from accepted bytes (%d vs %d bytes)",
			i, t.labels[i], len(payload), len(u.payload)))
		return ResultDivergent, false, true
	}
	// Accept even from stateFailed: a late result rescues a unit whose
	// redelivery was exhausted — strictly better than a FAILED row.
	u.state = stateDone
	u.leaseID = ""
	u.failure = ""
	u.payload = append(json.RawMessage(nil), payload...)
	return ResultAccepted, true, true
}

// fail records a worker's failure report for a leased unit and requeues
// it. Reports for units that already resolved are ignored.
func (t *leaseTable) fail(fp, msg string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, known := t.fpIndex[fp]
	if !known {
		return false
	}
	u := &t.units[i]
	if u.state == stateDone || u.state == stateFailed {
		return true
	}
	t.requeueLocked(i, msg)
	return true
}

// resolvedLocked reports whether every unit reached a terminal state.
func (t *leaseTable) resolvedLocked() bool {
	for i := range t.units {
		if s := t.units[i].state; s != stateDone && s != stateFailed {
			return false
		}
	}
	return true
}

// snapshot renders the dispatch state for /v1/status and the job verdict.
func (t *leaseTable) snapshot(withUnits bool) StatusResponse {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	s := StatusResponse{
		Total: len(t.units), Granted: t.granted, Expired: t.expired,
		Redelivered: t.redelivered, Duplicates: t.duplicates, Divergent: t.divergent,
	}
	for i := range t.units {
		u := &t.units[i]
		switch u.state {
		case stateDone:
			s.Done++
		case stateFailed:
			s.Failed++
		}
		if withUnits {
			s.Units = append(s.Units, UnitStatus{
				Index: i, Label: t.labels[i], State: u.state,
				Worker: u.worker, Deliveries: u.deliveries,
			})
		}
	}
	s.Resolved = s.Done+s.Failed == s.Total
	return s
}

// outcome extracts the merged inputs once the table is resolved: payloads
// in enumeration order (nil for failed units) plus the failure messages
// and any recorded divergences.
func (t *leaseTable) outcome() (payloads []json.RawMessage, failures map[int]string, divergences []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	payloads = make([]json.RawMessage, len(t.units))
	failures = make(map[int]string)
	for i := range t.units {
		u := &t.units[i]
		if u.state == stateDone {
			payloads[i] = u.payload
		} else if u.failure != "" {
			failures[i] = u.failure
		} else if u.state != stateDone {
			failures[i] = t.labels[i] + ": unresolved"
		}
	}
	return payloads, failures, append([]string(nil), t.divergences...)
}
