package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tvarak/internal/fault"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/obs"
	"tvarak/internal/param"
	"tvarak/internal/sim"
)

// fleetWorkload is a minimal harness.Workload for end-to-end fleet tests:
// cheap, deterministic, and heterogeneous across cells.
type fleetWorkload struct {
	name   string
	stores int
	addr   uint64
}

func (w *fleetWorkload) Name() string { return w.name }

func (w *fleetWorkload) Setup(s *harness.System) error {
	m, err := s.NewMapping(w.name, 1<<20)
	if err != nil {
		return err
	}
	w.addr = m.Addr(0)
	return nil
}

func (w *fleetWorkload) Workers(s *harness.System) []func(*sim.Core) {
	return []func(*sim.Core){func(c *sim.Core) {
		var b [8]byte
		for i := 0; i < w.stores; i++ {
			c.Store(w.addr+uint64(i*64)%(1<<19), b[:])
		}
	}}
}

// failingFleetWorkload errors in Setup, for keep-going tests.
type failingFleetWorkload struct{ name string }

func (w *failingFleetWorkload) Name() string { return w.name }
func (w *failingFleetWorkload) Setup(*harness.System) error {
	return fmt.Errorf("injected failure in %s", w.name)
}
func (w *failingFleetWorkload) Workers(*harness.System) []func(*sim.Core) { return nil }

// fleetCells enumerates n cells. Every call returns an independent,
// identically-enumerated slice — exactly the property the fleet protocol
// rests on (gateway and each worker enumerate separately).
func fleetCells(n int) []harness.Cell {
	designs := param.Designs()
	cells := make([]harness.Cell, n)
	for i := range cells {
		i := i
		d := designs[i%len(designs)]
		cells[i] = harness.Cell{
			Config:      param.SmallTest(d),
			SampleEvery: 2000,
			Make: func() harness.Workload {
				return &fleetWorkload{name: fmt.Sprintf("fleet%02d", i), stores: 40 + 15*i}
			},
		}
	}
	return cells
}

const fleetScope = "fleet-test|scale=1|full=false"

// renderTable renders a table plus its metrics export exactly like the CLI
// does, for byte-level comparisons.
func renderTable(t *testing.T, tab *harness.Table) (string, []byte) {
	t.Helper()
	x := obs.NewExport("test")
	x.Runs = append(x.Runs, tab.ExportRuns("fleet")...)
	var buf bytes.Buffer
	if err := x.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return tab.String(), buf.Bytes()
}

func serveGateway(t *testing.T, g *Gateway) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// fastBackoff keeps worker request retries snappy in tests.
func fastBackoff() harness.BackoffPolicy {
	return harness.BackoffPolicy{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.5, Seed: 1}
}

// jobResult is what serving a job returns: RunPlan's results, joined
// with Finish's verdict.
type jobResult struct {
	payloads []json.RawMessage
	man      *harness.Manifest
	err      error
}

// startJob serves g in the background the way the CLIs do — RunPlan on rn
// with one slot per unit, then Finish — and delivers the result once
// Finish returns.
func startJob(ctx context.Context, g *Gateway, rn harness.Runner) <-chan jobResult {
	done := make(chan jobResult, 1)
	rn.Context = ctx
	go func() {
		var r jobResult
		r.payloads, r.man, r.err = (&Flags{}).Run(g, rn)
		done <- r
	}()
	return done
}

// serveJob serves g on rn while the workers run, and returns the job's
// result once every worker has exited, failing the test on any worker
// error.
func serveJob(ctx context.Context, t *testing.T, g *Gateway, rn harness.Runner, ws ...*Worker) jobResult {
	t.Helper()
	job := startJob(ctx, g, rn)
	runWorkers(ctx, t, ws...)
	return <-job
}

// runWorkers runs the workers until each returns, failing the test on any
// worker error.
func runWorkers(ctx context.Context, t *testing.T, ws ...*Worker) {
	t.Helper()
	errs := make(chan error, len(ws))
	for _, w := range ws {
		w := w
		go func() { errs <- w.Run(ctx) }()
	}
	for range ws {
		if err := <-errs; err != nil {
			t.Errorf("worker failed: %v", err)
		}
	}
}

// checkToyPayloads asserts the job completed with every toy unit's
// canonical bytes.
func checkToyPayloads(t *testing.T, r jobResult) {
	t.Helper()
	if r.err != nil || !r.man.Clean() {
		t.Fatalf("job err=%v manifest=%v", r.err, r.man)
	}
	for i, p := range r.payloads {
		if string(p) != string(toyPayload(i)) {
			t.Errorf("unit %d payload = %s, want %s", i, p, toyPayload(i))
		}
	}
}

// TestFleetSweepByteIdenticalToLocalUnderFaults is the tentpole assertion:
// the same sweep, run locally and through a 3-worker fleet whose every
// control-plane request rides a lossy, duplicating network, renders the
// same table and metrics export, byte for byte.
func TestFleetSweepByteIdenticalToLocalUnderFaults(t *testing.T) {
	const n = 6
	localTab, err := harness.Runner{Workers: 1}.RunTable("fleet sweep", fleetCells(n))
	if err != nil {
		t.Fatal(err)
	}
	localStr, localExport := renderTable(t, localTab)

	plan := harness.NewSweepPlan(fleetScope, fleetCells(n))
	g, err := NewGateway(GatewayConfig{
		Plan:     plan,
		Spec:     JobSpec{Kind: "toy"},
		LeaseTTL: 2 * time.Second,
		Backoff:  harness.BackoffPolicy{Base: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveGateway(t, g)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ft := &FaultTransport{Spec: FaultSpec{Seed: 11, DropRequest: 0.1, DropResponse: 0.1, Duplicate: 0.15}}
	workers := make([]*Worker, 3)
	for i := range workers {
		workers[i] = &Worker{
			Gateway: srv.URL,
			Name:    fmt.Sprintf("w%d", i),
			Client:  &http.Client{Transport: ft},
			Build:   func(JobSpec) (harness.Plan, error) { return harness.NewSweepPlan(fleetScope, fleetCells(n)), nil },
			Backoff: fastBackoff(),
		}
	}
	r := serveJob(ctx, t, g, harness.Runner{}, workers...)
	if r.err != nil || !r.man.Clean() {
		t.Fatalf("job err=%v manifest=%v", r.err, r.man)
	}
	plan.Title = "fleet sweep"
	tab, err := plan.MergeTable(r.payloads, r.man)
	if err != nil {
		t.Fatal(err)
	}
	gotStr, gotExport := renderTable(t, tab)
	if gotStr != localStr {
		t.Errorf("fleet table differs from local run:\nfleet:\n%s\nlocal:\n%s", gotStr, localStr)
	}
	if !bytes.Equal(gotExport, localExport) {
		t.Errorf("fleet metrics export differs from local run")
	}
}

// TestFleetTransportFaultScenarios is the satellite table: scripted fault
// schedules (drop, manufactured duplicates, duplicate delivery, a result
// delivered only after its lease was re-dispatched), each ending with the
// merged payloads byte-identical to the units' canonical bytes.
func TestFleetTransportFaultScenarios(t *testing.T) {
	const n = 4
	cases := []struct {
		name          string
		spec          FaultSpec
		workers       int
		wantDropped   int
		wantDup       bool
		wantRedeliver bool
	}{
		{
			name:        "drop-request",
			spec:        FaultSpec{PathPrefix: "/v1/result", DropRequest: 1, Limit: 2},
			workers:     1,
			wantDropped: 2,
		},
		{
			name:    "drop-response-manufactures-duplicates",
			spec:    FaultSpec{PathPrefix: "/v1/result", DropResponse: 1, Limit: 2},
			workers: 1,
			wantDup: true,
		},
		{
			name:    "duplicate-delivery",
			spec:    FaultSpec{PathPrefix: "/v1/result", Duplicate: 1, Limit: 2},
			workers: 1,
			wantDup: true,
		},
		{
			name:          "delivered-after-redispatch",
			spec:          FaultSpec{PathPrefix: "/v1/result", Delay: 900 * time.Millisecond, Limit: 1},
			workers:       2,
			wantDup:       true,
			wantRedeliver: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan := &toyPlan{scope: "toy-faults", n: n}
			g, err := NewGateway(GatewayConfig{
				Plan:          plan,
				Spec:          JobSpec{Kind: "toy"},
				LeaseTTL:      250 * time.Millisecond,
				MaxDeliveries: 5,
				Backoff:       harness.BackoffPolicy{Base: 5 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := serveGateway(t, g)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			ft := &FaultTransport{Spec: tc.spec}
			workers := make([]*Worker, tc.workers)
			for i := range workers {
				workers[i] = &Worker{
					Gateway: srv.URL,
					Name:    fmt.Sprintf("w%d", i),
					Client:  &http.Client{Transport: ft},
					Build:   func(JobSpec) (harness.Plan, error) { return &toyPlan{scope: "toy-faults", n: n}, nil },
					Backoff: fastBackoff(),
				}
			}
			checkToyPayloads(t, serveJob(ctx, t, g, harness.Runner{}, workers...))
			s := g.Status(false)
			if dropped, _, _ := ft.Stats(); tc.wantDropped > 0 && dropped != tc.wantDropped {
				t.Errorf("dropped = %d, want %d", dropped, tc.wantDropped)
			}
			if tc.wantDup && s.Duplicates == 0 {
				t.Errorf("expected duplicate results, status = %+v", s)
			}
			if tc.wantRedeliver && (s.Expired == 0 || s.Redelivered == 0) {
				t.Errorf("expected an expiry+redelivery, status = %+v", s)
			}
		})
	}
}

// TestFleetAbandonedLeaseIsRedelivered: a worker that takes a lease and
// vanishes (no heartbeat, no result — the SIGKILL case) delays its unit by
// one TTL, nothing more: the lease expires and the unit is re-dispatched.
func TestFleetAbandonedLeaseIsRedelivered(t *testing.T) {
	const n = 3
	plan := &toyPlan{scope: "toy-abandon", n: n}
	g, err := NewGateway(GatewayConfig{
		Plan:     plan,
		Spec:     JobSpec{Kind: "toy"},
		LeaseTTL: 200 * time.Millisecond,
		Backoff:  harness.BackoffPolicy{Base: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveGateway(t, g)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job := startJob(ctx, g, harness.Runner{})

	// The ghost takes unit 0's lease, once the runner has opened it, and is
	// never heard from again.
	var ghost LeaseResponse
	for ghost.Status != StatusGrant && ctx.Err() == nil {
		body, _ := json.Marshal(LeaseRequest{Worker: "ghost"})
		resp, err := http.Post(srv.URL+"/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&ghost); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if ghost.Status != StatusGrant || ghost.Index != 0 {
		t.Fatalf("ghost lease = %+v, want grant of unit 0", ghost)
	}

	w := &Worker{
		Gateway: srv.URL, Name: "real",
		Build:   func(JobSpec) (harness.Plan, error) { return &toyPlan{scope: "toy-abandon", n: n}, nil },
		Backoff: fastBackoff(),
	}
	runWorkers(ctx, t, w)
	checkToyPayloads(t, <-job)
	if s := g.Status(false); s.Expired < 1 || s.Redelivered < 1 {
		t.Errorf("status = %+v, want at least one expiry and redelivery", s)
	}
}

// TestFleetGatewayResumesFromJournal kills a gateway mid-job (simulated:
// its first incarnation completes with half the units failed and is
// discarded) and resumes from its journal: restored units are not re-run,
// and the completed job's payloads are byte-identical to a clean run's.
func TestFleetGatewayResumesFromJournal(t *testing.T) {
	const n = 6
	scope := "toy-resume"
	spec := JobSpec{Kind: "toy", Experiment: "resume-test"}
	path := filepath.Join(t.TempDir(), "fleet.journal")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Phase 1: units 3..5 fail at the worker; MaxDeliveries 1 exhausts
	// them immediately, so the job completes with only 0..2 journaled.
	j1, err := harness.NewJournalScope(path, scope)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := NewGateway(GatewayConfig{
		Plan:          &toyPlan{scope: scope, n: n},
		Spec:          spec,
		LeaseTTL:      time.Second,
		MaxDeliveries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := serveGateway(t, g1)
	w1 := &Worker{
		Gateway: srv1.URL, Name: "phase1",
		Build: func(JobSpec) (harness.Plan, error) {
			return &toyPlan{scope: scope, n: n, run: func(_ context.Context, i int) (json.RawMessage, error) {
				if i >= 3 {
					return nil, fmt.Errorf("injected phase-1 crash on unit %d", i)
				}
				return toyPayload(i), nil
			}}, nil
		},
		Backoff: fastBackoff(),
	}
	r1 := serveJob(ctx, t, g1, harness.Runner{Journal: j1, Degrade: true}, w1)
	if r1.err != nil || len(r1.man.Failures) != 3 {
		t.Fatalf("phase 1: err=%v manifest=%v, want nil error and 3 failures", r1.err, r1.man)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume. Restored units must never be leased; only 3..5 run.
	j2, err := harness.OpenJournalScope(path, scope)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	g2, err := NewGateway(GatewayConfig{Plan: &toyPlan{scope: scope, n: n}, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := serveGateway(t, g2)
	var mu sync.Mutex
	ran := map[int]bool{}
	w2 := &Worker{
		Gateway: srv2.URL, Name: "phase2",
		Build: func(JobSpec) (harness.Plan, error) {
			return &toyPlan{scope: scope, n: n, run: func(_ context.Context, i int) (json.RawMessage, error) {
				mu.Lock()
				ran[i] = true
				mu.Unlock()
				return toyPayload(i), nil
			}}, nil
		},
		Backoff: fastBackoff(),
	}
	r2 := serveJob(ctx, t, g2, harness.Runner{Journal: j2}, w2)
	checkToyPayloads(t, r2)
	if r2.man.FromJournal != 3 {
		t.Errorf("resumed job restored %d units, want 3", r2.man.FromJournal)
	}
	if s := g2.Status(false); s.Granted != 3 || s.Done != n {
		t.Errorf("resumed gateway status = %+v, want 3 leases granted and %d units done", s, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 3 || !ran[3] || !ran[4] || !ran[5] {
		t.Errorf("phase 2 ran units %v, want exactly 3,4,5 (restored units must not re-run)", ran)
	}
}

// TestFleetKeepGoingRendersFailedRows: a unit whose redelivery is
// exhausted becomes an explicit FAILED row with a manifest under
// keep-going, and a hard error without it.
func TestFleetKeepGoingRendersFailedRows(t *testing.T) {
	const n = 4
	makeCells := func() []harness.Cell {
		cells := fleetCells(n)
		cells[2].Make = func() harness.Workload { return &failingFleetWorkload{name: "fleet02"} }
		return cells
	}
	serve := func(degrade bool) (*harness.SweepPlan, jobResult) {
		plan := harness.NewSweepPlan(fleetScope, makeCells())
		g, err := NewGateway(GatewayConfig{
			Plan:          plan,
			Spec:          JobSpec{Kind: "toy"},
			LeaseTTL:      2 * time.Second,
			MaxDeliveries: 1,
			Backoff:       harness.BackoffPolicy{Base: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := serveGateway(t, g)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		w := &Worker{
			Gateway: srv.URL, Name: "w0",
			Build:   func(JobSpec) (harness.Plan, error) { return harness.NewSweepPlan(fleetScope, makeCells()), nil },
			Backoff: fastBackoff(),
		}
		return plan, serveJob(ctx, t, g, harness.Runner{Degrade: degrade}, w)
	}

	plan, r := serve(true)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if f := r.man.Failures; len(f) != 1 || f[0].Index != 2 || !strings.Contains(f[0].Err, "injected failure") {
		t.Fatalf("failures = %+v, want exactly unit 2 carrying the worker's error", f)
	}
	plan.Title = "degraded"
	tab, err := plan.MergeTable(r.payloads, r.man)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "FAILED:") {
		t.Errorf("keep-going table lacks a FAILED row:\n%s", tab.String())
	}
	if tab.Manifest == nil || len(tab.Manifest.Failures) != 1 || tab.Manifest.Completed != n-1 {
		t.Errorf("manifest = %+v, want 1 failure, %d completed", tab.Manifest, n-1)
	}
	if _, r := serve(false); r.err == nil {
		t.Error("strict job with a failing unit did not fail")
	}
}

// TestFleetHandshakeRejectsSkew: a worker whose binary or options derive a
// different scope — or a different per-unit enumeration under the same
// scope — is refused before it can poison the merge.
func TestFleetHandshakeRejectsSkew(t *testing.T) {
	const n = 2
	plan := &toyPlan{scope: "toy-skew", n: n}
	g, err := NewGateway(GatewayConfig{Plan: plan, Spec: JobSpec{Kind: "toy"}, LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveGateway(t, g)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	jobCtx, stopJob := context.WithCancel(ctx)
	job := startJob(jobCtx, g, harness.Runner{})
	defer func() { stopJob(); <-job }()

	scopeSkew := &Worker{
		Gateway: srv.URL, Name: "skewed-scope",
		Build:   func(JobSpec) (harness.Plan, error) { return &toyPlan{scope: "other-scope", n: n}, nil },
		Backoff: fastBackoff(),
	}
	if err := scopeSkew.Run(ctx); err == nil || !strings.Contains(err.Error(), "scope mismatch") {
		t.Errorf("scope-skewed worker error = %v, want scope mismatch", err)
	}

	fpSkew := &Worker{
		Gateway: srv.URL, Name: "skewed-fp",
		Build:   func(JobSpec) (harness.Plan, error) { return &toyPlan{scope: "toy-skew", n: n, fpSalt: "|skew"}, nil },
		Backoff: fastBackoff(),
	}
	if err := fpSkew.Run(ctx); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Errorf("fingerprint-skewed worker error = %v, want fingerprint mismatch", err)
	}

	// A worker speaking a different protocol version is rejected at join.
	body, _ := json.Marshal(JoinRequest{Proto: ProtocolVersion + 1, Format: harness.JournalFormat, Scope: "toy-skew", Worker: "old-binary"})
	resp, err := http.Post(srv.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict || !strings.Contains(eb.Error, "protocol version mismatch") {
		t.Errorf("join with wrong proto: status=%d body=%q", resp.StatusCode, eb.Error)
	}
}

// TestFleetCampaignMergeByteIdenticalToLocal distributes a fault campaign
// and asserts the merged report's JSONL bytes match a local fault.Run.
func TestFleetCampaignMergeByteIdenticalToLocal(t *testing.T) {
	opt := fault.Options{Seed: 7, N: 4, Workers: 2, Apps: []string{"stream", "fio"}}
	localRep, err := fault.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	var localBytes bytes.Buffer
	if err := fault.WriteJSONL(&localBytes, localRep); err != nil {
		t.Fatal(err)
	}

	plan, err := fault.NewCampaignPlan(opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(GatewayConfig{Plan: plan, Spec: JobSpec{Kind: "toy"}, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveGateway(t, g)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workers := make([]*Worker, 2)
	for i := range workers {
		workers[i] = &Worker{
			Gateway: srv.URL,
			Name:    fmt.Sprintf("w%d", i),
			Build:   func(JobSpec) (harness.Plan, error) { return fault.NewCampaignPlan(opt) },
			Backoff: fastBackoff(),
		}
	}
	r := serveJob(ctx, t, g, harness.Runner{}, workers...)
	if r.err != nil || !r.man.Clean() {
		t.Fatalf("job err=%v manifest=%v", r.err, r.man)
	}
	fleetRep, err := plan.MergeReport(r.payloads)
	if err != nil {
		t.Fatal(err)
	}
	var fleetBytes bytes.Buffer
	if err := fault.WriteJSONL(&fleetBytes, fleetRep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetBytes.Bytes(), localBytes.Bytes()) {
		t.Errorf("fleet campaign JSONL differs from local run:\nfleet:\n%s\nlocal:\n%s",
			fleetBytes.String(), localBytes.String())
	}
}

// TestFleetRidesOutPartition: a full partition that heals while workers
// are still retrying delays the job without corrupting it.
func TestFleetRidesOutPartition(t *testing.T) {
	const n = 4
	plan := &toyPlan{scope: "toy-partition", n: n}
	g, err := NewGateway(GatewayConfig{Plan: plan, Spec: JobSpec{Kind: "toy"}, LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveGateway(t, g)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ft := &FaultTransport{}
	ft.SetPartition(true)
	heal := time.AfterFunc(300*time.Millisecond, func() { ft.SetPartition(false) })
	defer heal.Stop()

	w := &Worker{
		Gateway: srv.URL, Name: "w0",
		Client:         &http.Client{Transport: ft},
		Build:          func(JobSpec) (harness.Plan, error) { return &toyPlan{scope: "toy-partition", n: n}, nil },
		Backoff:        harness.BackoffPolicy{Base: 20 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.5, Seed: 1},
		RequestRetries: 30,
	}
	checkToyPayloads(t, serveJob(ctx, t, g, harness.Runner{}, w))
	if dropped, _, _ := ft.Stats(); dropped == 0 {
		t.Error("partition never dropped a request — the fault path was not exercised")
	}
}

// TestFleetGatewayDrainHoldsForLaggardWorkers: once the job resolves, the
// gateway's Finish keeps the control plane answering until workers asleep
// in an acquire backoff poll once more and are told StatusDone — so a
// worker whose sibling finished the last unit exits clean instead of
// finding a dead socket and reporting "gateway unreachable".
func TestFleetGatewayDrainHoldsForLaggardWorkers(t *testing.T) {
	const scope = "toy-drain"
	ttl := 200 * time.Millisecond
	g, err := NewGateway(GatewayConfig{
		Plan:     &toyPlan{scope: scope, n: 1},
		Spec:     JobSpec{Kind: "toy"},
		LeaseTTL: ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveGateway(t, g)

	postJSON := func(path string, req, out any) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}

	// The laggard joins — the gateway now counts it live — then sleeps
	// through the rest of the job, like a worker slot waiting out a lease
	// backoff while its sibling runs the final unit.
	var joined map[string]any
	postJSON("/v1/join", JoinRequest{
		Proto: ProtocolVersion, Format: harness.JournalFormat,
		Scope: scope, Worker: "laggard",
	}, &joined)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job := startJob(ctx, g, harness.Runner{})
	runWorkers(ctx, t, &Worker{
		Gateway: srv.URL, Name: "fast",
		Build:   func(JobSpec) (harness.Plan, error) { return &toyPlan{scope: scope, n: 1}, nil },
		Backoff: fastBackoff(),
	})

	select {
	case r := <-job:
		t.Fatalf("Finish returned before the laggard polled: %v", r.err)
	case <-time.After(60 * time.Millisecond):
	}

	// The laggard wakes up: its poll must be answered with done, and that
	// contact is what lets Finish return — well before the TTL+1s cap.
	var lease LeaseResponse
	postJSON("/v1/lease", LeaseRequest{Worker: "laggard"}, &lease)
	if lease.Status != StatusDone {
		t.Fatalf("laggard's wake-up poll = %+v, want done", lease)
	}
	select {
	case r := <-job:
		checkToyPayloads(t, r)
	case <-time.After(ttl):
		t.Fatal("Finish did not return after the laggard was told the job is done")
	}
}

// TestLegacyJobSpecsPlanUnchanged: job specs written before the intra-cell
// weave knob was removed still carry its field (see the testdata files).
// The field never shaped results, scopes or fingerprints, so such a spec
// is accepted, the field is ignored, and it plans exactly like the same
// spec without it.
func TestLegacyJobSpecsPlanUnchanged(t *testing.T) {
	for _, tc := range []struct {
		file string
		want JobSpec
	}{
		{"legacy-sweep-spec.json", JobSpec{Kind: "sweep", Experiment: "fig8-stream", Scale: 0.05,
			Designs: []string{"Baseline", "Tvarak"}}},
		{"legacy-campaign-spec.json", JobSpec{Kind: "campaign", Seed: 3, N: 8,
			Apps: []string{"stream", "fio"}}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var spec JobSpec
			if err := json.Unmarshal(raw, &spec); err != nil {
				t.Fatalf("legacy spec rejected: %v", err)
			}
			old, err := BuildPlan(spec)
			if err != nil {
				t.Fatalf("planning the legacy spec: %v", err)
			}
			cur, err := BuildPlan(tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if old.Scope() != cur.Scope() {
				t.Fatalf("legacy scope %q, current %q", old.Scope(), cur.Scope())
			}
			if old.Units() != cur.Units() || cur.Units() == 0 {
				t.Fatalf("legacy spec plans %d units, current %d", old.Units(), cur.Units())
			}
			for i := 0; i < cur.Units(); i++ {
				if a, b := old.Fingerprint(i), cur.Fingerprint(i); a != b {
					t.Fatalf("unit %d: legacy fingerprint %q, current %q", i, a, b)
				}
			}
		})
	}
}

// TestWorkerBoardCoversEveryLease: the lease loops of one worker process
// share its telemetry, and the /runs board shows the whole job — one slot
// per lease index, begun once per job — for sweeps and campaigns alike,
// with campaign units folded into the fault counters.
func TestWorkerBoardCoversEveryLease(t *testing.T) {
	opt := fault.Options{Seed: 7, N: 8, Apps: []string{"stream", "fio"}}
	camp, err := fault.NewCampaignPlan(opt)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []struct {
		name  string
		build func() harness.Plan
	}{
		{"sweep", func() harness.Plan { return harness.NewSweepPlan(fleetScope, fleetCells(4)) }},
		{"campaign", func() harness.Plan { p, _ := fault.NewCampaignPlan(opt); return p }},
	}
	if camp.Units() != 4 {
		t.Fatalf("campaign has %d units, want 4", camp.Units())
	}
	lt := live.NewTelemetry()
	for _, job := range jobs {
		plan := job.build()
		g, err := NewGateway(GatewayConfig{Plan: plan, Spec: JobSpec{Kind: "toy"}, LeaseTTL: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		srv := serveGateway(t, g)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		workers := make([]*Worker, 2)
		for i := range workers {
			workers[i] = &Worker{
				Gateway: srv.URL,
				Name:    fmt.Sprintf("%s/%d", job.name, i),
				Build:   func(JobSpec) (harness.Plan, error) { return job.build(), nil },
				Backoff: fastBackoff(),
				Live:    lt,
			}
		}
		if r := serveJob(ctx, t, g, harness.Runner{}, workers...); r.err != nil {
			t.Fatal(r.err)
		}

		snap := lt.Board.Snapshot()
		if snap.Experiment != plan.Scope() || snap.Total != 4 || snap.Done != 4 {
			t.Errorf("%s: board = %q %d/%d done, want %q 4/4", job.name, snap.Experiment, snap.Done, snap.Total, plan.Scope())
		}
		labels := map[string]bool{}
		for _, c := range snap.Cells {
			labels[c.Label] = true
		}
		for i := 0; i < plan.Units(); i++ {
			if !labels[plan.Label(i)] {
				t.Errorf("%s: board lacks unit %d (%s): %+v", job.name, i, plan.Label(i), snap.Cells)
			}
		}
	}
	if lt.Fault.Armed.Value() == 0 || lt.Fault.Detected.Value() == 0 {
		t.Errorf("fault counters armed=%d detected=%d, want both non-zero after a campaign",
			lt.Fault.Armed.Value(), lt.Fault.Detected.Value())
	}
}

// TestJournalsInterchangeWithLocalRuns: a fleet job and a local run of the
// same plan write one journal format. A fleet run's journal resumed by a
// local Runner restores every unit and simulates none; a local run's
// journal served under a gateway restores every unit and grants no lease.
func TestJournalsInterchangeWithLocalRuns(t *testing.T) {
	camp := fault.Options{Seed: 7, N: 4, Apps: []string{"stream", "fio"}}
	jobs := []struct {
		name  string
		build func() harness.Plan
	}{
		{"sweep", func() harness.Plan { return harness.NewSweepPlan(fleetScope, fleetCells(4)) }},
		{"campaign", func() harness.Plan { p, _ := fault.NewCampaignPlan(camp); return p }},
	}
	for _, job := range jobs {
		t.Run(job.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			scope := job.build().Scope()
			dir := t.TempDir()
			newGateway := func() *Gateway {
				g, err := NewGateway(GatewayConfig{Plan: job.build(), Spec: JobSpec{Kind: "toy"}, LeaseTTL: 5 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			journal := func(name string, resume bool) *harness.Journal {
				open := harness.NewJournalScope
				if resume {
					open = harness.OpenJournalScope
				}
				j, err := open(filepath.Join(dir, name), scope)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { j.Close() })
				return j
			}

			// The reference: a clean local run, journaled.
			want, man, err := harness.Runner{Journal: journal("local", false)}.RunPlan(job.build())
			if err != nil || !man.Clean() {
				t.Fatalf("local run: err=%v manifest=%v", err, man)
			}
			same := func(what string, got []json.RawMessage) {
				t.Helper()
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("%s: unit %d payload differs from the local run's", what, i)
					}
				}
			}

			// Fleet -> local.
			g := newGateway()
			srv := serveGateway(t, g)
			w := &Worker{Gateway: srv.URL, Name: "w0", Build: func(JobSpec) (harness.Plan, error) { return job.build(), nil }, Backoff: fastBackoff()}
			if r := serveJob(ctx, t, g, harness.Runner{Journal: journal("fleet", false)}, w); r.err != nil || !r.man.Clean() {
				t.Fatalf("fleet run: err=%v manifest=%v", r.err, r.man)
			}
			lt := live.NewTelemetry()
			got, man, err := harness.Runner{Journal: journal("fleet", true), Live: lt}.RunPlan(job.build())
			if err != nil || man.FromJournal != len(want) || lt.Runner.Started.Value() != 0 {
				t.Errorf("fleet journal resumed locally: err=%v restored %d of %d, simulated %d",
					err, man.FromJournal, len(want), lt.Runner.Started.Value())
			}
			same("fleet -> local", got)

			// Local -> fleet: no worker is needed, and no lease is granted.
			g = newGateway()
			r := serveJob(ctx, t, g, harness.Runner{Journal: journal("local", true)})
			if r.err != nil || r.man.FromJournal != len(want) {
				t.Errorf("local journal served: err=%v restored %d of %d", r.err, r.man.FromJournal, len(want))
			}
			if s := g.Status(false); s.Granted != 0 || s.Done != len(want) {
				t.Errorf("local journal served: status %+v, want 0 leases granted and every unit done", s)
			}
			same("local -> fleet", r.payloads)
		})
	}
}
