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

// mergeSweep merges a drained sweep job's table the way the gateway CLI
// does.
func mergeSweep(p *harness.SweepPlan, title string, payloads []json.RawMessage, failures map[int]string, keepGoing bool) (*harness.Table, error) {
	man, err := FailureManifest(p, payloads, failures, keepGoing)
	if err != nil {
		return nil, err
	}
	p.Title = title
	return p.MergeTable(payloads, man)
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
	runWorkers(ctx, t, workers...)

	payloads, failures, err := g.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	tab, err := mergeSweep(plan, "fleet sweep", payloads, failures, false)
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
			runWorkers(ctx, t, workers...)

			payloads, failures, err := g.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(failures) != 0 {
				t.Fatalf("unexpected failures: %v", failures)
			}
			for i, p := range payloads {
				if string(p) != string(toyPayload(i)) {
					t.Errorf("unit %d payload = %s, want %s", i, p, toyPayload(i))
				}
			}
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

	// The ghost takes unit 0's lease and is never heard from again.
	body, _ := json.Marshal(LeaseRequest{Worker: "ghost"})
	resp, err := http.Post(srv.URL+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ghost LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&ghost); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ghost.Status != StatusGrant || ghost.Index != 0 {
		t.Fatalf("ghost lease = %+v, want grant of unit 0", ghost)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := &Worker{
		Gateway: srv.URL, Name: "real",
		Build:   func(JobSpec) (harness.Plan, error) { return &toyPlan{scope: "toy-abandon", n: n}, nil },
		Backoff: fastBackoff(),
	}
	runWorkers(ctx, t, w)

	payloads, failures, err := g.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	for i, p := range payloads {
		if string(p) != string(toyPayload(i)) {
			t.Errorf("unit %d payload = %s, want %s", i, p, toyPayload(i))
		}
	}
	if s := g.Status(false); s.Expired < 1 || s.Redelivered < 1 {
		t.Errorf("status = %+v, want at least one expiry and redelivery", s)
	}
}

// TestFleetGatewayResumesFromJournal kills a gateway mid-job (simulated:
// its first incarnation resolves with half the units failed and is
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
	// them immediately, so the job resolves with only 0..2 journaled.
	j1, err := harness.NewJournalScope(path, scope)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := NewGateway(GatewayConfig{
		Plan:          &toyPlan{scope: scope, n: n},
		Spec:          spec,
		LeaseTTL:      time.Second,
		MaxDeliveries: 1,
		KeepGoing:     true,
		Journal:       j1,
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
	runWorkers(ctx, t, w1)
	_, failures, err := g1.Wait(ctx)
	if err != nil || len(failures) != 3 {
		t.Fatalf("phase 1: err=%v failures=%v, want nil error and 3 failures", err, failures)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume. Restored units must be pre-completed and never
	// re-dispatched; only 3..5 run.
	j2, err := harness.OpenJournalScope(path, scope)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGateway(GatewayConfig{
		Plan:    &toyPlan{scope: scope, n: n},
		Spec:    spec,
		Journal: j2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := g2.Status(false); s.Done != 3 {
		t.Fatalf("resumed gateway restored %d units, want 3", s.Done)
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
	runWorkers(ctx, t, w2)
	payloads, failures, err := g2.Wait(ctx)
	if err != nil || len(failures) != 0 {
		t.Fatalf("phase 2: err=%v failures=%v", err, failures)
	}
	for i, p := range payloads {
		if string(p) != string(toyPayload(i)) {
			t.Errorf("unit %d payload = %s, want %s", i, p, toyPayload(i))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 3 || !ran[3] || !ran[4] || !ran[5] {
		t.Errorf("phase 2 ran units %v, want exactly 3,4,5 (restored units must not re-run)", ran)
	}

	// A journal holds exactly one job: resuming it under a different spec
	// must fail loudly instead of merging unrelated results.
	j3, err := harness.OpenJournalScope(path, scope)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	other := spec
	other.Experiment = "something-else"
	if _, err := NewGateway(GatewayConfig{Plan: &toyPlan{scope: scope, n: n}, Spec: other, Journal: j3}); err == nil || !strings.Contains(err.Error(), "fresh journal") {
		t.Errorf("NewGateway with a different spec = %v, want fresh-journal error", err)
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
	plan := harness.NewSweepPlan(fleetScope, makeCells())
	g, err := NewGateway(GatewayConfig{
		Plan:          plan,
		Spec:          JobSpec{Kind: "toy"},
		LeaseTTL:      2 * time.Second,
		MaxDeliveries: 1,
		KeepGoing:     true,
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
	runWorkers(ctx, t, w)

	payloads, failures, err := g.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || failures[2] == "" {
		t.Fatalf("failures = %v, want exactly unit 2", failures)
	}
	if !strings.Contains(failures[2], "injected failure") {
		t.Errorf("failure %q does not carry the worker's error", failures[2])
	}
	tab, err := mergeSweep(plan, "degraded", payloads, failures, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "FAILED:") {
		t.Errorf("keep-going table lacks a FAILED row:\n%s", tab.String())
	}
	if tab.Manifest == nil || len(tab.Manifest.Failures) != 1 || tab.Manifest.Completed != n-1 {
		t.Errorf("manifest = %+v, want 1 failure, %d completed", tab.Manifest, n-1)
	}
	if _, err := mergeSweep(plan, "strict", payloads, failures, false); err == nil {
		t.Error("strict merge of a degraded job did not fail")
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
	runWorkers(ctx, t, workers...)

	payloads, failures, err := g.Wait(ctx)
	if err != nil || len(failures) != 0 {
		t.Fatalf("err=%v failures=%v", err, failures)
	}
	fleetRep, err := plan.MergeReport(payloads)
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
	runWorkers(ctx, t, w)

	payloads, failures, err := g.Wait(ctx)
	if err != nil || len(failures) != 0 {
		t.Fatalf("err=%v failures=%v", err, failures)
	}
	for i, p := range payloads {
		if string(p) != string(toyPayload(i)) {
			t.Errorf("unit %d payload = %s, want %s", i, p, toyPayload(i))
		}
	}
	if dropped, _, _ := ft.Stats(); dropped == 0 {
		t.Error("partition never dropped a request — the fault path was not exercised")
	}
}

// TestFleetGatewayDrainHoldsForLaggardWorkers: once the job resolves, the
// gateway's Drain keeps the control plane answering until workers asleep
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
	runWorkers(ctx, t, &Worker{
		Gateway: srv.URL, Name: "fast",
		Build:   func(JobSpec) (harness.Plan, error) { return &toyPlan{scope: scope, n: 1}, nil },
		Backoff: fastBackoff(),
	})
	if _, _, err := g.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() { g.Drain(ctx); close(drained) }()
	select {
	case <-drained:
		t.Fatal("Drain returned before the laggard polled")
	case <-time.After(60 * time.Millisecond):
	}

	// The laggard wakes up: its poll must be answered with done, and that
	// contact is what lets Drain return — well before the TTL+1s cap.
	var lease LeaseResponse
	postJSON("/v1/lease", LeaseRequest{Worker: "laggard"}, &lease)
	if lease.Status != StatusDone {
		t.Fatalf("laggard's wake-up poll = %+v, want done", lease)
	}
	select {
	case <-drained:
	case <-time.After(ttl):
		t.Fatal("Drain did not return after the laggard was told the job is done")
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
		runWorkers(ctx, t, workers...)
		if _, _, err := g.Wait(ctx); err != nil {
			t.Fatal(err)
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
