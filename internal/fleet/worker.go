package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"tvarak/internal/harness"
	"tvarak/internal/live"
)

// Worker pulls leases from a gateway, runs units through the local
// simulation machinery, and streams results back as journal-format JSONL.
// It is deliberately stateless: it holds no checkpoint of its own, because
// the gateway's journal plus unit determinism make any worker — including
// a replacement for one that was SIGKILLed — able to (re)produce any
// unit's bytes.
type Worker struct {
	// Gateway is the control-plane base URL, e.g. "http://host:7609".
	Gateway string
	// Name identifies this worker in leases and status output.
	Name string
	// Client, when non-nil, overrides the HTTP client (tests wrap the
	// transport in a FaultTransport).
	Client *http.Client
	// Build derives the Plan from the gateway's JobSpec (nil =
	// BuildPlan). Tests override it to hand back toy plans.
	Build func(JobSpec) (harness.Plan, error)
	// AcquireDelay, when non-zero, pauses between being granted a lease
	// and starting the unit. It exists for the CI gate: it widens the
	// window in which SIGKILLing this worker leaves an orphaned lease.
	AcquireDelay time.Duration
	// Backoff paces request retries against a flaky or partitioned
	// network. The zero value selects 50ms base, 2s cap, 0.5 jitter.
	Backoff harness.BackoffPolicy
	// RequestRetries bounds attempts per control-plane request. Zero
	// selects 8 — with the default backoff that rides out multi-second
	// partitions; a worker that still cannot reach the gateway exits
	// with an error and lets redelivery cover its leases.
	RequestRetries int
	// Live, when non-nil, receives the worker's runner, engine and fault
	// telemetry: the job's units on the /runs board, slot per lease index.
	// The lease loops of one process share it.
	Live *live.Telemetry
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) backoff() harness.BackoffPolicy {
	if w.Backoff != (harness.BackoffPolicy{}) {
		return w.Backoff
	}
	return harness.BackoffPolicy{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5, Seed: 1}
}

func (w *Worker) requestRetries() int {
	if w.RequestRetries > 0 {
		return w.RequestRetries
	}
	return 8
}

// Run joins the gateway, verifies the version/scope handshake, then loops:
// lease a unit, cross-check its fingerprint against the local enumeration,
// run it (heartbeating meanwhile), deliver the result. It returns nil when
// the gateway reports the job done, and an error for handshake rejections,
// persistent gateway unreachability, or cancellation.
func (w *Worker) Run(ctx context.Context) error {
	job, err := w.fetchJob(ctx)
	if err != nil {
		return err
	}
	if job.Proto != ProtocolVersion {
		return fmt.Errorf("fleet: gateway speaks protocol v%d, this worker v%d — rebuild", job.Proto, ProtocolVersion)
	}
	if job.Format != harness.JournalFormat {
		return fmt.Errorf("fleet: gateway journal format v%d, this worker v%d — rebuild", job.Format, harness.JournalFormat)
	}
	build := w.Build
	if build == nil {
		build = BuildPlan
	}
	plan, err := build(job.Spec)
	if err != nil {
		return fmt.Errorf("fleet: building plan from gateway job spec: %w", err)
	}
	if w.Live != nil {
		w.Live.Board.Join(plan.Scope(), plan.Units())
	}
	// Join with the locally-derived scope: the gateway rejects a skewed
	// worker here, with an error naming both scopes, before any lease.
	if err := w.join(ctx, plan.Scope()); err != nil {
		return err
	}
	ttl := time.Duration(job.LeaseTTLMillis) * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		lease, err := w.acquire(ctx)
		if err != nil {
			return err
		}
		switch lease.Status {
		case StatusDone:
			return nil
		case StatusWait:
			wait := time.Duration(lease.WaitMillis) * time.Millisecond
			if wait <= 0 {
				wait = 50 * time.Millisecond
			}
			if !sleepCtx(ctx, wait) {
				return context.Cause(ctx)
			}
		case StatusGrant:
			if err := w.runLease(ctx, plan, *lease, ttl); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fleet: gateway sent unknown lease status %q", lease.Status)
		}
	}
}

// runLease executes one granted lease end to end.
func (w *Worker) runLease(ctx context.Context, plan harness.Plan, lease LeaseResponse, ttl time.Duration) error {
	if lease.Index < 0 || lease.Index >= plan.Units() {
		return fmt.Errorf("fleet: lease for unit %d outside local enumeration of %d units — gateway/worker skew", lease.Index, plan.Units())
	}
	if fp := plan.Fingerprint(lease.Index); fp != lease.Fp {
		// The scope handshake passed but the per-unit fingerprint does
		// not: the binaries enumerate different units under the same
		// scope. Running would poison the merge; refuse loudly.
		return fmt.Errorf("fleet: unit %d fingerprint mismatch: gateway %q, local %q — gateway/worker skew", lease.Index, lease.Fp, fp)
	}
	if w.AcquireDelay > 0 && !sleepCtx(ctx, w.AcquireDelay) {
		return context.Cause(ctx)
	}

	// Heartbeat until the unit finishes. A gone lease (expired and
	// re-dispatched) cancels the unit: someone else owns it now, and
	// abandoning promptly frees this worker for the next lease. The
	// result, had it been computed, would have been deduped anyway.
	uctx, cancel := context.WithCancelCause(ctx)
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		every := ttl / 3
		if every <= 0 {
			every = time.Second
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-uctx.Done():
				return
			case <-t.C:
				ok, err := w.heartbeat(ctx, lease.LeaseID)
				if err == nil && !ok {
					cancel(fmt.Errorf("fleet: lease %s gone (expired and re-dispatched)", lease.LeaseID))
					return
				}
				// Transport errors: keep ticking; the request layer
				// already retried with backoff, and the unit result path
				// will surface persistent unreachability.
			}
		}
	}()

	payload, runErr := harness.Runner{Context: uctx, Live: w.Live}.RunOne(plan, lease.Index)
	close(hbStop)
	hbWG.Wait()
	leaseGone := uctx.Err() != nil && ctx.Err() == nil
	cancel(nil)

	if runErr != nil {
		if leaseGone {
			return nil // abandoned on purpose; the unit is someone else's now
		}
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		// Report the failure so the gateway requeues immediately instead
		// of waiting out the lease TTL. Delivery failures here are
		// non-fatal: expiry covers us.
		line, err := harness.EncodeRecord(KindFail, lease.Fp, struct {
			Error string `json:"error"`
		}{runErr.Error()})
		if err == nil {
			_, _ = w.postResult(ctx, line)
		}
		return nil
	}

	line, err := harness.EncodeRecord(KindResult, lease.Fp, payload)
	if err != nil {
		return err
	}
	status, err := w.postResult(ctx, line)
	if err != nil {
		return fmt.Errorf("fleet: delivering unit %d result: %w", lease.Index, err)
	}
	if status == ResultDivergent {
		return fmt.Errorf("fleet: gateway flagged unit %d result as divergent from an accepted duplicate — determinism violation", lease.Index)
	}
	return nil
}

// fetchJob gets the job description (with request retries).
func (w *Worker) fetchJob(ctx context.Context) (*JobResponse, error) {
	var job JobResponse
	err := w.doJSON(ctx, http.MethodGet, "/v1/job", nil, &job)
	if err != nil {
		return nil, fmt.Errorf("fleet: fetching job from %s: %w", w.Gateway, err)
	}
	return &job, nil
}

func (w *Worker) join(ctx context.Context, scope string) error {
	req := JoinRequest{Proto: ProtocolVersion, Format: harness.JournalFormat, Scope: scope, Worker: w.Name}
	var resp struct {
		OK bool `json:"ok"`
	}
	if err := w.doJSON(ctx, http.MethodPost, "/v1/join", req, &resp); err != nil {
		return fmt.Errorf("fleet: join rejected: %w", err)
	}
	return nil
}

func (w *Worker) acquire(ctx context.Context) (*LeaseResponse, error) {
	var lease LeaseResponse
	if err := w.doJSON(ctx, http.MethodPost, "/v1/lease", LeaseRequest{Worker: w.Name}, &lease); err != nil {
		return nil, fmt.Errorf("fleet: acquiring lease: %w", err)
	}
	return &lease, nil
}

func (w *Worker) heartbeat(ctx context.Context, leaseID string) (bool, error) {
	var resp HeartbeatResponse
	// Heartbeats are time-critical: one attempt, no retry pause — the
	// next tick is the retry.
	if err := w.doJSONOnce(ctx, http.MethodPost, "/v1/heartbeat", HeartbeatRequest{LeaseID: leaseID}, &resp); err != nil {
		return false, err
	}
	return resp.OK, nil
}

// postResult delivers one wire line, retrying on transport errors. A
// dropped RESPONSE (the gateway processed the result but the reply was
// lost) makes the retry a duplicate — which is exactly what the gateway's
// fingerprint dedup is for.
func (w *Worker) postResult(ctx context.Context, line []byte) (string, error) {
	var resp ResultResponse
	err := w.retry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Gateway+"/v1/result", bytes.NewReader(line))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/jsonl")
		req.Header.Set("X-Fleet-Worker", w.Name)
		return w.decode(req, &resp)
	})
	if err != nil {
		return "", err
	}
	return resp.Status, nil
}

// doJSON performs one JSON request with bounded retries.
func (w *Worker) doJSON(ctx context.Context, method, path string, body, out any) error {
	return w.retry(ctx, func() error {
		return w.doJSONOnce(ctx, method, path, body, out)
	})
}

func (w *Worker) doJSONOnce(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.Gateway+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return w.decode(req, out)
}

// decode runs the request and decodes the JSON response, converting
// non-200 statuses into errors carrying the server's message.
func (w *Worker) decode(req *http.Request, out any) error {
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return &statusError{code: resp.StatusCode, msg: eb.Error}
		}
		return &statusError{code: resp.StatusCode, msg: string(data)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// statusError is a non-200 response: a deliberate server answer, not a
// transport fault, so the retry loop does not retry it.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// retry runs fn with the worker's backoff policy until it succeeds, fails
// with a non-retryable (server-status) error, exhausts attempts, or ctx
// ends.
func (w *Worker) retry(ctx context.Context, fn func() error) error {
	pol := w.backoff()
	var last error
	for a := 1; a <= w.requestRetries(); a++ {
		err := fn()
		if err == nil {
			return nil
		}
		var se *statusError
		if errors.As(err, &se) {
			return err
		}
		last = err
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		if !sleepCtx(ctx, pol.Delay(a)) {
			return context.Cause(ctx)
		}
	}
	return fmt.Errorf("fleet: gateway unreachable after %d attempts: %w", w.requestRetries(), last)
}

// sleepCtx sleeps d, returning false if ctx ended first. d <= 0 only
// checks the context.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
