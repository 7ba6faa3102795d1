package live

// telemetry.go bundles the registry's instruments into the named metric
// set the rest of the repo updates: harness cell lifecycle, engine
// phase-boundary progress, fault-campaign injections, tracer backpressure,
// and process resources. One Telemetry value is shared by the runner, the
// engine probes, the ops HTTP server, and the resource sampler.

// RunnerMetrics counts harness.Runner cell lifecycle transitions.
type RunnerMetrics struct {
	Started     *Counter   // cells that entered their first attempt
	Finished    *Counter   // cells completed successfully
	Retried     *Counter   // attempts retried after a containable failure
	Failed      *Counter   // cells terminally failed
	Watchdog    *Counter   // watchdog firings (hung cells abandoned)
	Restored    *Counter   // cells restored from the journal without re-running
	CellSeconds *Histogram // wall-clock seconds per executed (non-restored) cell
}

// EngineMetrics aggregates phase-boundary progress across every engine the
// process runs. Updated only from Engine.Probe at weave-phase barriers, so
// it costs nothing per access and never perturbs the simulation.
type EngineMetrics struct {
	Accesses *Counter // simulated loads+stores completed
	Cycles   *Counter // simulated cycles advanced
	Phases   *Counter // weave phases completed
}

// FaultMetrics counts fault-campaign injection outcomes.
type FaultMetrics struct {
	Armed     *Counter // injections armed
	Detected  *Counter // corruptions detected by the design under test
	Recovered *Counter // corruptions recovered
}

// FleetMetrics counts the distributed sweep fleet's control-plane events
// on the gateway (lease lifecycle, redelivery, result dedup) plus worker
// liveness. All values are wall-clock operational telemetry — none feed
// results, which stay byte-identical with or without a fleet.
type FleetMetrics struct {
	LeasesGranted     *Counter // leases handed to workers (including redeliveries)
	LeasesExpired     *Counter // leases whose deadline passed without a result or heartbeat
	LeasesRedelivered *Counter // expired/failed units re-dispatched to another worker
	Heartbeats        *Counter // heartbeats accepted (lease deadlines extended)
	ResultsAccepted   *Counter // first result accepted per unit
	ResultsDuplicate  *Counter // duplicate results byte-verified against the accepted one
	ResultsDivergent  *Counter // duplicate results whose bytes differed (determinism violation)
	WorkersJoined     *Counter // workers that passed the version/scope handshake
	WorkersRejected   *Counter // workers refused at the handshake (version/scope skew)
	WorkersLive       *Gauge   // workers with an unexpired lease or recent heartbeat
	UnitsFailed       *Counter // units terminally failed after redelivery was exhausted
}

// ResourceMetrics mirrors the most recent resource sample as gauges so the
// /metrics endpoint exposes what the JSONL ledger records.
type ResourceMetrics struct {
	HeapAlloc      *Gauge
	Goroutines     *Gauge
	RSS            *Gauge
	AccessesPerSec *Gauge
}

// Telemetry is the process-wide live telemetry bundle: the registry plus
// the instruments wired into the harness, engine, fault campaign, and
// resource sampler, and the per-cell run board behind /runs.
type Telemetry struct {
	Registry *Registry
	Runner   RunnerMetrics
	Engine   EngineMetrics
	Fault    FaultMetrics
	Fleet    FleetMetrics
	Resource ResourceMetrics
	Board    *Board
}

// NewTelemetry builds a registry with the full tvarak metric set
// registered in a fixed order, plus an empty run board.
func NewTelemetry() *Telemetry {
	r := NewRegistry()
	t := &Telemetry{Registry: r, Board: NewBoard()}

	t.Runner.Started = r.NewCounter("tvarak_cells_started_total",
		"Experiment cells that began executing.")
	t.Runner.Finished = r.NewCounter("tvarak_cells_finished_total",
		"Experiment cells that completed successfully.")
	t.Runner.Retried = r.NewCounter("tvarak_cells_retried_total",
		"Cell attempts retried after a containable failure.")
	t.Runner.Failed = r.NewCounter("tvarak_cells_failed_total",
		"Experiment cells that failed terminally.")
	t.Runner.Watchdog = r.NewCounter("tvarak_cells_watchdog_total",
		"Watchdog firings: hung cells abandoned past their deadline.")
	t.Runner.Restored = r.NewCounter("tvarak_cells_restored_total",
		"Cells restored from the resume journal without re-running.")
	t.Runner.CellSeconds = r.NewHistogram("tvarak_cell_seconds",
		"Wall-clock seconds per executed cell.",
		[]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300})

	t.Engine.Accesses = r.NewCounter("tvarak_sim_accesses_total",
		"Simulated memory accesses (loads+stores) completed, summed across cells.")
	t.Engine.Cycles = r.NewCounter("tvarak_sim_cycles_total",
		"Simulated cycles advanced, summed across cells.")
	t.Engine.Phases = r.NewCounter("tvarak_sim_phases_total",
		"Bound-weave phases completed, summed across cells.")

	t.Fault.Armed = r.NewCounter("tvarak_fault_injections_armed_total",
		"Fault injections armed by the campaign.")
	t.Fault.Detected = r.NewCounter("tvarak_fault_injections_detected_total",
		"Injected corruptions detected by the design under test.")
	t.Fault.Recovered = r.NewCounter("tvarak_fault_injections_recovered_total",
		"Injected corruptions recovered by the design under test.")

	t.Fleet.LeasesGranted = r.NewCounter("tvarak_fleet_leases_granted_total",
		"Cell leases handed to fleet workers, redeliveries included.")
	t.Fleet.LeasesExpired = r.NewCounter("tvarak_fleet_leases_expired_total",
		"Leases whose deadline passed without a result or heartbeat.")
	t.Fleet.LeasesRedelivered = r.NewCounter("tvarak_fleet_leases_redelivered_total",
		"Expired or failed units re-dispatched to another worker.")
	t.Fleet.Heartbeats = r.NewCounter("tvarak_fleet_heartbeats_total",
		"Worker heartbeats accepted (lease deadlines extended).")
	t.Fleet.ResultsAccepted = r.NewCounter("tvarak_fleet_results_accepted_total",
		"First result accepted per unit.")
	t.Fleet.ResultsDuplicate = r.NewCounter("tvarak_fleet_results_duplicate_total",
		"Duplicate results byte-verified against the accepted one.")
	t.Fleet.ResultsDivergent = r.NewCounter("tvarak_fleet_results_divergent_total",
		"Duplicate results whose bytes differed from the accepted one (determinism violation).")
	t.Fleet.WorkersJoined = r.NewCounter("tvarak_fleet_workers_joined_total",
		"Workers that passed the version/scope handshake.")
	t.Fleet.WorkersRejected = r.NewCounter("tvarak_fleet_workers_rejected_total",
		"Workers refused at the handshake for version or scope skew.")
	t.Fleet.WorkersLive = r.NewGauge("tvarak_fleet_workers_live",
		"Workers with an unexpired lease or recent heartbeat.")
	t.Fleet.UnitsFailed = r.NewCounter("tvarak_fleet_units_failed_total",
		"Units terminally failed after redelivery was exhausted.")

	t.Resource.HeapAlloc = r.NewGauge("tvarak_resource_heap_alloc_bytes",
		"Live heap bytes at the last resource sample.")
	t.Resource.Goroutines = r.NewGauge("tvarak_resource_goroutines",
		"Goroutine count at the last resource sample.")
	t.Resource.RSS = r.NewGauge("tvarak_resource_rss_bytes",
		"Resident set size at the last resource sample.")
	t.Resource.AccessesPerSec = r.NewGauge("tvarak_sim_accesses_per_sec",
		"Simulated accesses per wall-clock second over the last sample interval.")

	return t
}

// TraceGauges registers the JSONL tracer's written/dropped totals as
// scrape-time gauges. written and dropped must be safe for concurrent use
// (obs.JSONL's accessors are). Call at most once per Telemetry.
func (t *Telemetry) TraceGauges(written, dropped func() uint64) {
	t.Registry.NewGaugeFunc("tvarak_trace_events_written",
		"Trace events written by the JSONL tracer.",
		func() float64 { return float64(written()) })
	t.Registry.NewGaugeFunc("tvarak_trace_events_dropped",
		"Trace events dropped by the JSONL tracer after hitting its bound.",
		func() float64 { return float64(dropped()) })
}

// CellProbe returns an engine probe for the cell at index. The engine
// invokes it at weave-phase boundaries with cumulative cycles and accesses;
// the closure converts them to deltas for the process-wide counters and
// forwards the cumulative values to the board. ResetMeasurement zeroes the
// engine's statistics mid-run, so a cumulative value that went backwards
// rebases the deltas instead of underflowing.
//
// The closure's locals are touched only by the engine thread that owns the
// cell, and each counter add lands on the cell's own stripe — concurrent
// cells never contend.
func (t *Telemetry) CellProbe(index int) func(cycles, accesses uint64) {
	var lastCyc, lastAcc uint64
	return func(cycles, accesses uint64) {
		if accesses < lastAcc || cycles < lastCyc {
			lastCyc, lastAcc = 0, 0
		}
		t.Engine.Accesses.AddAt(index, accesses-lastAcc)
		t.Engine.Cycles.AddAt(index, cycles-lastCyc)
		t.Engine.Phases.AddAt(index, 1)
		lastCyc, lastAcc = cycles, accesses
		t.Board.CellProgress(index, cycles, accesses)
	}
}
