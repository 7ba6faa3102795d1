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
	// KeepGoing completes the job past terminally-failed units, rendering
	// them as explicit FAILED rows with a manifest, instead of failing
	// the whole job at the first exhausted unit.
	KeepGoing bool
	// Journal, when non-nil, checkpoints every accepted result durably
	// under the unit's fingerprint, so a killed gateway resumes by
	// reopening the journal (NewGateway restores done units from it). It
	// should be opened under the plan's scope (OpenJournalScope).
	Journal *harness.Journal
	// Live, when non-nil, receives fleet control-plane metrics
	// (tvarak_fleet_* on /metrics).
	Live *live.Telemetry
	// Now is the clock (nil = time.Now); tests inject one to drive lease
	// expiry and redelivery backoff deterministically.
	Now func() time.Time
}

// Gateway owns a job: it serves the control plane, tracks leases,
// accepts/dedups results, journals its own dispatch state, and merges the
// outcome in enumeration order. Create with NewGateway, mount Handler on
// an HTTP server, then Wait for resolution.
type Gateway struct {
	cfg   GatewayConfig
	plan  harness.Plan
	table *leaseTable
	mux   *http.ServeMux

	mu       sync.Mutex
	workers  map[string]time.Time // last contact per joined worker
	informed map[string]bool      // workers whose acquire was answered "done"
	joinErr  []string             // rejected handshakes, for diagnostics
	seen     fleetCounts          // table counters already folded into metrics

	resolved chan struct{} // closed once every unit is terminal
	resOnce  sync.Once
}

// NewGateway validates the config, restores any journaled results, and
// returns a gateway ready to serve. With a resume journal, units whose
// results it already holds are pre-completed — workers are only handed
// the remainder, and the merged output is byte-identical either way.
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
	g := &Gateway{
		cfg:      cfg,
		plan:     cfg.Plan,
		table:    newLeaseTable(cfg.Plan, cfg.LeaseTTL, cfg.MaxDeliveries, cfg.Backoff, cfg.Now),
		workers:  make(map[string]time.Time),
		informed: make(map[string]bool),
		resolved: make(chan struct{}),
	}
	if cfg.Journal != nil {
		// Bind the journal to this job: record the spec under the scope
		// so a -resume against a different job's journal fails loudly
		// (the scope check in OpenJournalScope already guards options;
		// this guards a swapped journal file with the same scope string).
		var prior JobSpec
		if cfg.Journal.Lookup(KindJob, g.plan.Scope(), &prior) {
			want, _ := json.Marshal(cfg.Spec)
			got, _ := json.Marshal(prior)
			if string(want) != string(got) {
				return nil, fmt.Errorf("fleet: journal %s holds job %s, this run is %s — use a fresh journal",
					cfg.Journal.Path(), got, want)
			}
		} else if err := cfg.Journal.Record(KindJob, g.plan.Scope(), cfg.Spec); err != nil {
			return nil, err
		}
		restored := 0
		for i := 0; i < g.plan.Units(); i++ {
			if data := cfg.Journal.LookupRaw(KindResult, g.plan.Fingerprint(i)); data != nil {
				g.table.restore(i, data)
				restored++
			}
		}
		if g.live() != nil && restored > 0 {
			g.live().Fleet.ResultsAccepted.Add(uint64(restored))
		}
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

func (g *Gateway) live() *live.Telemetry { return g.cfg.Live }

// Handler is the control-plane HTTP handler (mount at the server root).
func (g *Gateway) Handler() http.Handler { return g.mux }

// Status snapshots the dispatch state (the same data /v1/status serves).
func (g *Gateway) Status(withUnits bool) StatusResponse {
	s := g.table.snapshot(withUnits)
	g.observeSweep()
	return s
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
		if g.live() != nil {
			g.live().Fleet.WorkersRejected.Add(1)
		}
		g.mu.Lock()
		g.joinErr = append(g.joinErr, fmt.Sprintf("%s: %s", req.Worker, msg))
		g.mu.Unlock()
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
		if g.live() != nil {
			g.live().Fleet.WorkersJoined.Add(1)
		}
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
	g.observeSweep()
	if lease.Status == StatusGrant && g.live() != nil {
		g.live().Fleet.LeasesGranted.Add(1)
	}
	g.checkResolved()
	writeJSON(w, http.StatusOK, lease)
}

func (g *Gateway) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	ok := g.table.heartbeat(req.LeaseID)
	g.observeSweep()
	if ok && g.live() != nil {
		g.live().Fleet.Heartbeats.Add(1)
	}
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
		status, first, known := g.table.complete(fp, data)
		if !known {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown unit fingerprint %q", fp)})
			return
		}
		if first && g.cfg.Journal != nil {
			if err := g.cfg.Journal.RecordRaw(KindResult, fp, data); err != nil {
				// A result that cannot be made durable must not be
				// acknowledged: the worker will retry, or redelivery will
				// recompute it.
				writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
				return
			}
		}
		if lv := g.live(); lv != nil {
			switch status {
			case ResultAccepted:
				lv.Fleet.ResultsAccepted.Add(1)
			case ResultDuplicate:
				lv.Fleet.ResultsDuplicate.Add(1)
			case ResultDivergent:
				lv.Fleet.ResultsDivergent.Add(1)
			}
		}
		g.checkResolved()
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
		g.observeSweep()
		g.checkResolved()
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
	if g.live() != nil {
		g.live().Fleet.WorkersLive.SetInt(uint64(liveCount))
	}
}

// fleetCounts tracks which table counter values have already been folded
// into the monotonic metrics counters.
type fleetCounts struct{ expired, redelivered, failed int }

// observeSweep folds the table's counters into the metrics registry.
// Counters are monotonic, so it adds only the delta since last time.
func (g *Gateway) observeSweep() {
	lv := g.live()
	if lv == nil {
		return
	}
	s := g.table.snapshot(false)
	g.mu.Lock()
	defer g.mu.Unlock()
	if d := s.Expired - g.seen.expired; d > 0 {
		lv.Fleet.LeasesExpired.Add(uint64(d))
	}
	if d := s.Redelivered - g.seen.redelivered; d > 0 {
		lv.Fleet.LeasesRedelivered.Add(uint64(d))
	}
	if d := s.Failed - g.seen.failed; d > 0 {
		lv.Fleet.UnitsFailed.Add(uint64(d))
	}
	g.seen = fleetCounts{expired: s.Expired, redelivered: s.Redelivered, failed: s.Failed}
}

// checkResolved closes the resolved channel once every unit is terminal.
func (g *Gateway) checkResolved() {
	if g.table.snapshot(false).Resolved {
		g.resOnce.Do(func() { close(g.resolved) })
	}
}

// Wait blocks until every unit resolves (result accepted or redelivery
// exhausted) or ctx is done, sweeping expired leases in the background so
// stalls are detected even with no worker traffic. It returns the merged
// inputs: payloads in enumeration order, terminal failures by index, and
// any recorded byte-divergences. The error is non-nil when ctx ended
// first, when a divergence was recorded, or when units failed without
// KeepGoing.
func (g *Gateway) Wait(ctx context.Context) ([]json.RawMessage, map[int]string, error) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		g.table.sweep()
		g.observeSweep()
		g.checkResolved()
		select {
		case <-g.resolved:
			payloads, failures, divergences := g.table.outcome()
			if len(divergences) > 0 {
				return payloads, failures, fmt.Errorf("fleet: determinism violation: %s", strings.Join(divergences, "; "))
			}
			if len(failures) > 0 && !g.cfg.KeepGoing {
				msgs := make([]string, 0, len(failures))
				for i := 0; i < g.plan.Units(); i++ {
					if m, ok := failures[i]; ok {
						msgs = append(msgs, m)
					}
				}
				return payloads, failures, fmt.Errorf("fleet: %d unit(s) failed: %s", len(failures), strings.Join(msgs, "; "))
			}
			return payloads, failures, nil
		case <-tick.C:
		case <-ctx.Done():
			return nil, nil, context.Cause(ctx)
		}
	}
}

// Drain keeps the control plane answering after resolution until every
// recently-live worker has contacted it again — an acquire now returns
// StatusDone, so that contact is the worker learning the job is over. A
// worker sleeping in an acquire backoff sleeps at most the lease TTL, so
// the wait is capped at TTL plus a second; workers that died are covered
// by the cap. Call it between Wait returning and closing the listener,
// lest laggard workers find a dead socket and report an error for a job
// that succeeded.
func (g *Gateway) Drain(ctx context.Context) {
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
