package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tvarak/internal/harness"
	"tvarak/internal/live"
)

// toyPlan is a synthetic Plan for control-plane tests: payloads are pure
// functions of the unit index, so byte-identity is trivially checkable.
type toyPlan struct {
	scope  string
	n      int
	fpSalt string // skew knob: same scope, different fingerprints
	run    func(ctx context.Context, i int) (json.RawMessage, error)
}

func (p *toyPlan) Scope() string { return p.scope }
func (p *toyPlan) Kind() string  { return "toy" }
func (p *toyPlan) Units() int    { return p.n }
func (p *toyPlan) Fingerprint(i int) string {
	return fmt.Sprintf("%s|u%02d%s", p.scope, i, p.fpSalt)
}
func (p *toyPlan) Label(i int) string { return fmt.Sprintf("unit%02d", i) }
func (p *toyPlan) RunUnit(ctx context.Context, i int, _ *live.Telemetry) (json.RawMessage, error) {
	if p.run != nil {
		return p.run(ctx, i)
	}
	return toyPayload(i), nil
}
func (p *toyPlan) Done(int, json.RawMessage) (harness.Summary, error) { return harness.Summary{}, nil }

// toyPayload is unit i's canonical result bytes.
func toyPayload(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"unit":%d,"value":%d}`, i, i*i+7))
}

// fakeClock is an injectable clock the tests advance by hand.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2020, 5, 30, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newToyTable is a lease table over an n-unit toy plan with every unit
// already opened, as a Runner with one slot per unit opens them.
func newToyTable(n int, ttl time.Duration, maxDeliveries int, pol harness.BackoffPolicy, clk *fakeClock) *leaseTable {
	t := newLeaseTable(&toyPlan{scope: "toy", n: n}, ttl, maxDeliveries, pol, clk.Now, &live.NewTelemetry().Fleet)
	for i := 0; i < n; i++ {
		t.open(i)
	}
	return t
}

func TestLeaseTableGrantsInEnumerationOrder(t *testing.T) {
	clk := newFakeClock()
	lt := newToyTable(3, time.Minute, 3, harness.BackoffPolicy{}, clk)
	for i := 0; i < 3; i++ {
		l := lt.acquire("w")
		if l.Status != StatusGrant || l.Index != i {
			t.Fatalf("acquire %d = %+v, want grant of unit %d", i, l, i)
		}
		if l.Fp != (&toyPlan{scope: "toy", n: 3}).Fingerprint(i) {
			t.Errorf("unit %d lease fp = %q", i, l.Fp)
		}
	}
	if l := lt.acquire("w"); l.Status != StatusWait || l.WaitMillis <= 0 {
		t.Fatalf("acquire with all units leased = %+v, want wait with a hint", l)
	}
	for i := 0; i < 3; i++ {
		if st, ok := lt.complete((&toyPlan{scope: "toy", n: 3}).Fingerprint(i), toyPayload(i)); !ok || st != ResultAccepted {
			t.Fatalf("complete(%d) = %s ok=%t", i, st, ok)
		}
	}
	if l := lt.acquire("w"); l.Status != StatusDone {
		t.Fatalf("acquire after all complete = %+v, want done", l)
	}
}

func TestLeaseTableHeartbeatExtendsAndExpires(t *testing.T) {
	clk := newFakeClock()
	ttl := 100 * time.Millisecond
	lt := newToyTable(1, ttl, 3, harness.BackoffPolicy{}, clk)
	l := lt.acquire("w")
	if l.Status != StatusGrant {
		t.Fatal("no grant")
	}
	// Heartbeats keep the lease alive well past the original deadline.
	for i := 0; i < 5; i++ {
		clk.Advance(80 * time.Millisecond)
		if !lt.heartbeat(l.LeaseID) {
			t.Fatalf("heartbeat %d failed under a live lease", i)
		}
	}
	if lt.expire(0) {
		t.Fatal("lease expired under heartbeats")
	}
	// Silence past the TTL expires it; the heartbeat then reports gone.
	clk.Advance(ttl + time.Millisecond)
	if !lt.expire(0) {
		t.Fatal("lease silent past its TTL did not expire")
	}
	if lt.heartbeat(l.LeaseID) {
		t.Fatal("heartbeat extended an expired lease")
	}
}

func TestLeaseTableExpiryRedeliversAfterBackoff(t *testing.T) {
	clk := newFakeClock()
	ttl := 100 * time.Millisecond
	pol := harness.BackoffPolicy{Base: 50 * time.Millisecond}
	lt := newToyTable(1, ttl, 3, pol, clk)
	if l := lt.acquire("w1"); l.Status != StatusGrant {
		t.Fatal("no initial grant")
	}
	clk.Advance(ttl + time.Millisecond)
	// Expired: the unit parks behind Delay(1) = Base, so the immediate
	// re-acquire waits rather than granting in lockstep.
	if l := lt.acquire("w2"); l.Status != StatusWait {
		t.Fatalf("acquire right after expiry = %+v, want backoff wait", l)
	}
	clk.Advance(pol.Base + time.Millisecond)
	l := lt.acquire("w2")
	if l.Status != StatusGrant || l.Index != 0 {
		t.Fatalf("acquire past backoff = %+v, want redelivery grant", l)
	}
	s := lt.snapshot(true)
	if s.Expired != 1 || s.Redelivered != 1 {
		t.Errorf("expired=%d redelivered=%d, want 1/1", s.Expired, s.Redelivered)
	}
	if u := s.Units[0]; u.Deliveries != 2 || u.Worker != "w2" {
		t.Errorf("unit status = %+v, want 2 deliveries by w2", u)
	}
}

func TestLeaseTableExhaustionTerminallyFails(t *testing.T) {
	clk := newFakeClock()
	ttl := 10 * time.Millisecond
	lt := newToyTable(1, ttl, 2, harness.BackoffPolicy{}, clk)
	for i := 0; i < 2; i++ {
		if l := lt.acquire("w"); l.Status != StatusGrant {
			t.Fatalf("delivery %d: no grant", i+1)
		}
		clk.Advance(ttl + time.Millisecond)
		lt.expire(0)
	}
	if l := lt.acquire("w"); l.Status != StatusDone {
		t.Fatalf("acquire after exhaustion = %+v, want done (job resolved)", l)
	}
	s := lt.snapshot(false)
	if s.Failed != 1 || !s.Resolved {
		t.Fatalf("snapshot = %+v, want 1 failed, resolved", s)
	}
	select {
	case <-lt.open(0):
	default:
		t.Fatal("exhaustion did not wake the unit's waiter")
	}
	if _, err := lt.result(0); err == nil || !strings.Contains(err.Error(), "after 2 deliveries") {
		t.Errorf("failure %v does not name the delivery count", err)
	}
	// The unit's outcome is final: a late result does not overturn it.
	if st, ok := lt.complete((&toyPlan{scope: "toy", n: 1}).Fingerprint(0), toyPayload(0)); !ok || st != ResultFailed {
		t.Errorf("late complete = %s ok=%t, want %s", st, ok, ResultFailed)
	}
}

func TestLeaseTableCompleteDedupsAndFlagsDivergence(t *testing.T) {
	clk := newFakeClock()
	lt := newToyTable(1, time.Minute, 3, harness.BackoffPolicy{}, clk)
	fp := (&toyPlan{scope: "toy", n: 1}).Fingerprint(0)
	if st, ok := lt.complete(fp, toyPayload(0)); !ok || st != ResultAccepted {
		t.Fatalf("first complete = %s ok=%t", st, ok)
	}
	if st, _ := lt.complete(fp, toyPayload(0)); st != ResultDuplicate {
		t.Fatalf("byte-identical duplicate = %s", st)
	}
	if st, _ := lt.complete(fp, json.RawMessage(`{"unit":0,"value":666}`)); st != ResultDivergent {
		t.Fatalf("differing duplicate = %s, want divergent", st)
	}
	if st, ok := lt.complete("no-such-fp", toyPayload(0)); ok {
		t.Fatalf("unknown fingerprint accepted as %s", st)
	}
	if div := lt.violations(); len(div) != 1 || !strings.Contains(div[0], "unit 0") {
		t.Fatalf("divergences = %v, want one naming unit 0", div)
	}
	if p, _ := lt.result(0); string(p) != string(toyPayload(0)) {
		t.Errorf("accepted payload changed: %s", p)
	}
}

func TestLeaseTableWorkerFailureRequeuesImmediately(t *testing.T) {
	clk := newFakeClock()
	pol := harness.BackoffPolicy{Base: 20 * time.Millisecond}
	lt := newToyTable(1, time.Minute, 3, pol, clk)
	l := lt.acquire("w")
	if !lt.fail(l.Fp, "injected unit failure") {
		t.Fatal("fail() did not find the unit")
	}
	// Parked behind backoff, not waiting out the minute-long TTL.
	if got := lt.acquire("w"); got.Status != StatusWait || got.WaitMillis > pol.Base.Milliseconds() {
		t.Fatalf("acquire after failure report = %+v, want short backoff wait", got)
	}
	clk.Advance(pol.Base + time.Millisecond)
	if got := lt.acquire("w"); got.Status != StatusGrant {
		t.Fatalf("acquire past failure backoff = %+v, want grant", got)
	}
}

func TestLeaseTableLeasesOnlyOpenedUnits(t *testing.T) {
	clk := newFakeClock()
	lt := newLeaseTable(&toyPlan{scope: "toy", n: 2}, time.Minute, 3, harness.BackoffPolicy{}, clk.Now, &live.NewTelemetry().Fleet)
	if l := lt.acquire("w"); l.Status != StatusWait {
		t.Fatalf("acquire before any unit opened = %+v, want wait", l)
	}
	// Unit 0 was restored from the run's journal: it settles unleased.
	lt.settle(0, toyPayload(0))
	lt.open(1)
	if l := lt.acquire("w"); l.Status != StatusGrant || l.Index != 1 {
		t.Fatalf("acquire = %+v, want grant of the opened unit 1", l)
	}
	if st, _ := lt.complete(lt.fps[0], toyPayload(0)); st != ResultDuplicate {
		t.Errorf("late result for the restored unit = %s, want duplicate", st)
	}
	lt.close()
	if l := lt.acquire("w"); l.Status != StatusDone {
		t.Fatalf("acquire after close = %+v, want done", l)
	}
}
