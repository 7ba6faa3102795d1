package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"tvarak/internal/harness"
	"tvarak/internal/live"
)

// Unit dispatch states.
const (
	stateIdle    = "idle"    // not yet opened for leasing by the Runner
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
	failure    string        // terminal failure message (stateFailed)
	resolved   chan struct{} // closed on reaching stateDone or stateFailed
}

// leaseTable is the gateway's dispatch state machine: which unit is idle
// (not yet opened for leasing), pending, leased (to whom, until when),
// parked in redelivery backoff, done (with which bytes), or terminally
// failed. Every transition happens under one mutex with an injected clock,
// so tests drive expiry and backoff deterministically without sleeping,
// and is counted into the fleet metrics as it happens.
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
	m             *live.FleetMetrics

	nextLease int  // lease id sequence
	closed    bool // the job is over: acquire answers StatusDone

	// Counters mirrored into StatusResponse; the metrics count the same
	// events process-wide.
	granted     int
	expired     int
	redelivered int
	duplicates  int
	divergent   int

	// divergences records determinism violations: a duplicate result
	// whose bytes differed from the accepted ones.
	divergences []string
}

func newLeaseTable(p harness.Plan, ttl time.Duration, maxDeliveries int, backoff harness.BackoffPolicy, now func() time.Time, m *live.FleetMetrics) *leaseTable {
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
		m:             m,
	}
	for i := 0; i < n; i++ {
		t.units[i] = unitEntry{state: stateIdle, resolved: make(chan struct{})}
		t.labels[i] = p.Label(i)
		fp := p.Fingerprint(i)
		t.fps[i] = fp
		t.fpIndex[fp] = i
	}
	return t
}

// open makes unit i eligible for leasing and returns the channel closed
// once the unit is done or terminally failed.
func (t *leaseTable) open(i int) <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.units[i].state == stateIdle {
		t.units[i].state = statePending
	}
	return t.units[i].resolved
}

// result is unit i's outcome once resolved: the accepted payload, or the
// terminal failure.
func (t *leaseTable) result(i int) (json.RawMessage, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	u := &t.units[i]
	if u.state == stateFailed {
		return nil, errors.New(u.failure)
	}
	return u.payload, nil
}

// settle records payload as unit i's result unless the unit already
// resolved. A unit restored from the run's journal settles without ever
// being leased; its bytes still dedup late duplicates.
func (t *leaseTable) settle(i int, payload json.RawMessage) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.units[i].state; s != stateDone && s != stateFailed {
		t.resolveLocked(i, stateDone, payload)
	}
}

// resolveLocked moves unit i into a terminal state and wakes its waiter.
func (t *leaseTable) resolveLocked(i int, state string, payload json.RawMessage) {
	u := &t.units[i]
	u.state = state
	u.leaseID = ""
	u.payload = append(json.RawMessage(nil), payload...)
	close(u.resolved)
}

// close ends the job: every acquire from now on answers StatusDone.
func (t *leaseTable) close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
}

// violations lists the recorded determinism violations.
func (t *leaseTable) violations() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.divergences...)
}

// expire re-dispatches unit i if its lease is overdue, reporting whether
// it did. The gateway polls it while the unit is open, so a lease whose
// worker vanished expires even when no other worker calls in.
func (t *leaseTable) expire(i int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.expireLocked(i, t.now())
}

func (t *leaseTable) expireLocked(i int, now time.Time) bool {
	u := &t.units[i]
	if u.state != stateLeased || !now.After(u.deadline) {
		return false
	}
	t.expired++
	t.m.LeasesExpired.Add(1)
	t.requeueLocked(i, "lease expired (worker lost or hung)")
	return true
}

// sweepLocked expires every overdue lease. Expired units re-enter
// dispatch: parked behind the redelivery backoff if deliveries remain,
// terminally failed otherwise.
func (t *leaseTable) sweepLocked() {
	now := t.now()
	for i := range t.units {
		t.expireLocked(i, now)
	}
}

// requeueLocked moves a leased unit back into dispatch after an expiry or
// a worker failure report.
func (t *leaseTable) requeueLocked(i int, why string) {
	u := &t.units[i]
	u.leaseID = ""
	if u.deliveries >= t.maxDeliveries {
		u.failure = fmt.Sprintf("%s after %d deliveries (last worker %s): %s",
			t.labels[i], u.deliveries, u.worker, why)
		t.resolveLocked(i, stateFailed, nil)
		t.m.UnitsFailed.Add(1)
		return
	}
	u.state = stateDelayed
	// Seed the jitter per unit so parked units spread out instead of
	// becoming eligible in lockstep.
	pol := t.backoff
	pol.Seed ^= uint64(i) * 0x9e3779b97f4a7c15
	u.eligible = t.now().Add(pol.Delay(u.deliveries))
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
		case stateIdle:
			// The Runner is about to open it: poll again shortly.
			wait = time.Nanosecond
			continue
		case stateDelayed:
			if u.eligible.After(now) {
				if d := u.eligible.Sub(now); wait == 0 || d < wait {
					wait = d
				}
				continue
			}
			t.redelivered++
			t.m.LeasesRedelivered.Add(1)
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
		t.m.LeasesGranted.Add(1)
		return LeaseResponse{
			Status: StatusGrant, LeaseID: u.leaseID, Index: i,
			Fp: t.fps[i], Label: t.labels[i], TTLMillis: t.ttl.Milliseconds(),
		}
	}
	if t.closed || t.resolvedLocked() {
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
			t.m.Heartbeats.Add(1)
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
// duplicate, a divergent duplicate (a determinism violation recorded for
// the job verdict), and a unit that already failed terminally. ok is
// false when the fingerprint is unknown.
func (t *leaseTable) complete(fp string, payload json.RawMessage) (status string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, known := t.fpIndex[fp]
	if !known {
		return "", false
	}
	u := &t.units[i]
	switch u.state {
	case stateFailed:
		return ResultFailed, true
	case stateDone:
		if bytes.Equal(u.payload, payload) {
			t.duplicates++
			t.m.ResultsDuplicate.Add(1)
			return ResultDuplicate, true
		}
		t.divergent++
		t.m.ResultsDivergent.Add(1)
		t.divergences = append(t.divergences, fmt.Sprintf(
			"unit %d (%s): duplicate result differs from accepted bytes (%d vs %d bytes)",
			i, t.labels[i], len(payload), len(u.payload)))
		return ResultDivergent, true
	}
	t.resolveLocked(i, stateDone, payload)
	t.m.ResultsAccepted.Add(1)
	return ResultAccepted, true
}

// fail records a worker's failure report for a leased unit and requeues
// it. Reports for units that are not in dispatch are ignored.
func (t *leaseTable) fail(fp, msg string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, known := t.fpIndex[fp]
	if !known {
		return false
	}
	switch t.units[i].state {
	case statePending, stateLeased, stateDelayed:
		t.requeueLocked(i, msg)
	}
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
	s.Resolved = t.closed || s.Done+s.Failed == s.Total
	return s
}
