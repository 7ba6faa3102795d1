package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"tvarak/internal/harness"
	"tvarak/internal/live"
)

// GatewayConfig configures a fleet gateway.
type GatewayConfig struct {
	// Plan is the job's unit enumeration (required).
	Plan harness.Plan
	// Spec is the declarative job served to workers at /v1/job. It must
	// be the spec Plan was built from (tests that construct toy Plans
	// directly pair them with a matching toy spec on both sides).
	Spec JobSpec
	// LeaseTTL is how long a lease lives without a heartbeat before the
	// unit is re-dispatched. Zero selects 30s.
	LeaseTTL time.Duration
	// MaxDeliveries bounds how many times one unit may be leased before
	// it terminally fails. Zero selects 3.
	MaxDeliveries int
	// Backoff schedules the pause before an expired or failed unit
	// becomes eligible for redelivery. The zero value redelivers
	// immediately; the CLI defaults to seeded-jitter exponential.
	Backoff harness.BackoffPolicy
	// Live receives fleet control-plane metrics (tvarak_fleet_* on
	// /metrics); nil counts into a private bundle.
	Live *live.Telemetry
	// Now is the clock (nil = time.Now); tests inject one to drive lease
	// expiry and redelivery backoff deterministically.
	Now func() time.Time
}

// Gateway serves a job to workers and executes it as a harness.Plan: it
// delegates the enumeration to the wrapped plan, and its RunUnit hands
// unit i to whichever worker leases it, returning the accepted result.
// Run it on a harness.Runner with one slot per unit, so every unit is open
// for leasing at once; journal restore, checkpointing, failure manifests,
// cancellation and the /runs board all come from the Runner, exactly as
// for a local run, and the caller merges the payloads the way a local run
// does. Mount Handler on an HTTP server, and call Finish once RunPlan
// returns.
type Gateway struct {
	cfg   GatewayConfig
	plan  harness.Plan
	table *leaseTable
	mux   *http.ServeMux

	mu       sync.Mutex
	workers  map[string]time.Time // last contact per joined worker
	informed map[string]bool      // workers whose acquire was answered "done"
}

// NewGateway validates the config and returns a gateway ready to serve.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("fleet: GatewayConfig.Plan is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxDeliveries <= 0 {
		cfg.MaxDeliveries = 3
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Live == nil {
		cfg.Live = live.NewTelemetry()
	}
	g := &Gateway{
		cfg:      cfg,
		plan:     cfg.Plan,
		table:    newLeaseTable(cfg.Plan, cfg.LeaseTTL, cfg.MaxDeliveries, cfg.Backoff, cfg.Now, &cfg.Live.Fleet),
		workers:  make(map[string]time.Time),
		informed: make(map[string]bool),
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/v1/job", g.handleJob)
	g.mux.HandleFunc("/v1/join", g.handleJoin)
	g.mux.HandleFunc("/v1/lease", g.handleLease)
	g.mux.HandleFunc("/v1/heartbeat", g.handleHeartbeat)
	g.mux.HandleFunc("/v1/result", g.handleResult)
	g.mux.HandleFunc("/v1/status", g.handleStatus)
	return g, nil
}

func (g *Gateway) Scope() string            { return g.plan.Scope() }
func (g *Gateway) Kind() string             { return g.plan.Kind() }
func (g *Gateway) Units() int               { return g.plan.Units() }
func (g *Gateway) Fingerprint(i int) string { return g.plan.Fingerprint(i) }
func (g *Gateway) Label(i int) string       { return g.plan.Label(i) }

// sweepEvery is how often an open unit checks its own lease for expiry.
const sweepEvery = 10 * time.Millisecond

// RunUnit opens unit i for leasing and blocks until a worker's result for
// it is accepted (returned as the payload), its redelivery is exhausted
// (an error), or ctx ends.
func (g *Gateway) RunUnit(ctx context.Context, i int, _ *live.Telemetry) (json.RawMessage, error) {
	resolved := g.table.open(i)
	tick := time.NewTicker(sweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-resolved:
			return g.table.result(i)
		case <-tick.C:
			g.table.expire(i)
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
}

// Done delegates to the wrapped plan and settles unit i in the lease
// table, so a unit the Runner restored from its journal is never leased.
func (g *Gateway) Done(i int, payload json.RawMessage) (harness.Summary, error) {
	s, err := g.plan.Done(i, payload)
	if err == nil {
		g.table.settle(i, payload)
	}
	return s, err
}

// Finish ends the job once RunPlan has returned: every later acquire
// answers StatusDone, the control plane keeps answering until live
// workers have heard so (skipped when ctx was cancelled), and any
// byte-divergent duplicate result recorded along the way fails the job.
func (g *Gateway) Finish(ctx context.Context) error {
	g.table.close()
	if ctx.Err() == nil {
		g.drain(ctx)
	}
	if div := g.table.violations(); len(div) > 0 {
		return fmt.Errorf("fleet: determinism violation: %s", strings.Join(div, "; "))
	}
	return nil
}

// Handler is the control-plane HTTP handler (mount at the server root).
func (g *Gateway) Handler() http.Handler { return g.mux }

// Status snapshots the dispatch state (the same data /v1/status serves).
func (g *Gateway) Status(withUnits bool) StatusResponse {
	return g.table.snapshot(withUnits)
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, JobResponse{
		Proto:          ProtocolVersion,
		Format:         harness.JournalFormat,
		Scope:          g.plan.Scope(),
		LeaseTTLMillis: g.cfg.LeaseTTL.Milliseconds(),
		Spec:           g.cfg.Spec,
	})
}

func (g *Gateway) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !readJSON(w, r, &req) {
		return
	}
	reject := func(msg string) {
		g.cfg.Live.Fleet.WorkersRejected.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		w.Write(errJSON(msg))
	}
	switch {
	case req.Proto != ProtocolVersion:
		reject(fmt.Sprintf("protocol version mismatch: worker speaks v%d, gateway v%d — rebuild the worker", req.Proto, ProtocolVersion))
	case req.Format != harness.JournalFormat:
		reject(fmt.Sprintf("journal format mismatch: worker writes v%d, gateway v%d — rebuild the worker", req.Format, harness.JournalFormat))
	case req.Scope != g.plan.Scope():
		reject(fmt.Sprintf("scope mismatch: worker derived %q from the job spec, gateway has %q — worker binary or options are skewed", req.Scope, g.plan.Scope()))
	default:
		g.cfg.Live.Fleet.WorkersJoined.Add(1)
		g.touchWorker(req.Worker)
		writeJSON(w, http.StatusOK, struct {
			OK bool `json:"ok"`
		}{true})
	}
}

func (g *Gateway) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	g.touchWorker(req.Worker)
	lease := g.table.acquire(req.Worker)
	if lease.Status == StatusDone {
		// This worker now knows the job is over — Drain need not hold the
		// listener open for it.
		g.mu.Lock()
		g.informed[req.Worker] = true
		g.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, lease)
}

func (g *Gateway) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	ok := g.table.heartbeat(req.LeaseID)
	writeJSON(w, http.StatusOK, HeartbeatResponse{OK: ok, Gone: !ok})
}

// handleResult ingests one journal-format JSONL line: a KindResult record
// carrying a unit's payload, or a KindFail record reporting a worker-side
// failure. The line's fingerprint — not the lease — identifies the unit,
// so results from expired leases still land (and get byte-checked).
func (g *Gateway) handleResult(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	kind, fp, data, err := harness.DecodeRecord([]byte(strings.TrimSpace(string(body))))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	g.touchWorker(r.Header.Get("X-Fleet-Worker"))
	switch kind {
	case KindResult:
		status, known := g.table.complete(fp, data)
		if !known {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown unit fingerprint %q", fp)})
			return
		}
		writeJSON(w, http.StatusOK, ResultResponse{Status: status})
	case KindFail:
		var f struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(data, &f)
		if !g.table.fail(fp, f.Error) {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown unit fingerprint %q", fp)})
			return
		}
		writeJSON(w, http.StatusOK, ResultResponse{Status: ResultFailed})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unexpected record kind %q", kind)})
	}
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Status(r.URL.Query().Get("units") != ""))
}

// touchWorker tracks per-worker last-contact for the liveness gauge.
func (g *Gateway) touchWorker(name string) {
	if name == "" {
		return
	}
	now := g.cfg.Now()
	g.mu.Lock()
	g.workers[name] = now
	liveCount := 0
	for _, at := range g.workers {
		if now.Sub(at) <= 2*g.cfg.LeaseTTL {
			liveCount++
		}
	}
	g.mu.Unlock()
	g.cfg.Live.Fleet.WorkersLive.SetInt(uint64(liveCount))
}

// drain keeps the control plane answering after the job closed until
// every recently-live worker has contacted it again — an acquire now
// returns StatusDone, so that contact is the worker learning the job is
// over. A worker sleeping in an acquire backoff sleeps at most the lease
// TTL, so the wait is capped at TTL plus a second; workers that died are
// covered by the cap. Without it, laggard workers would find a dead socket
// and report an error for a job that succeeded.
func (g *Gateway) drain(ctx context.Context) {
	resolvedAt := g.cfg.Now()
	deadline := resolvedAt.Add(g.cfg.LeaseTTL + time.Second)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		g.mu.Lock()
		waiting := 0
		for name, at := range g.workers {
			// Workers already silent for 2×TTL at resolution were dead or
			// done long before; only uninformed recent ones get the
			// courtesy wait.
			if !g.informed[name] && resolvedAt.Sub(at) <= 2*g.cfg.LeaseTTL {
				waiting++
			}
		}
		g.mu.Unlock()
		if waiting == 0 || g.cfg.Now().After(deadline) {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// writeJSON writes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// readJSON decodes the request body into v, answering 400 on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}
