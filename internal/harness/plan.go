package harness

import (
	"context"
	"encoding/json"
	"fmt"

	"tvarak/internal/live"
	"tvarak/internal/obs"
)

// Plan is a job's unit enumeration: the one description of a unit of work
// that a Runner executes locally and the fleet distributes. Sweeps
// (SweepPlan), fault campaigns (fault.CampaignPlan) and the soak stream
// each implement it; the fleet's gateway and every worker build their own
// Plan from the same job spec, and the protocol rests on the enumerations
// agreeing — unit i's fingerprint is cross-checked on both sides of every
// lease.
type Plan interface {
	// Scope identifies the job: the experiment/campaign id plus every
	// option that shapes its units. It names the job on the /runs board,
	// scopes sweep cell fingerprints, and anchors the fleet's join
	// handshake.
	Scope() string
	// Kind is the journal record kind the plan's payloads are
	// checkpointed under ("cell", "unit", "soak-unit"). It never changes
	// for a plan, so journals written by older builds still resume.
	Kind() string
	// Units is the number of units in the job.
	Units() int
	// Fingerprint is unit i's stable identity, the key its payload is
	// journaled under.
	Fingerprint(i int) string
	// Label names unit i for the board, status output and failure
	// manifests.
	Label(i int) string
	// RunUnit executes unit i and returns its payload — the exact JSON
	// the journal records for it and a fleet worker delivers. Payload
	// bytes must be deterministic: journal resume and the fleet's dedup
	// cross-check both rely on it. lt, when non-nil, receives the unit's
	// live progress in board slot i; it never changes the payload.
	RunUnit(ctx context.Context, i int, lt *live.Telemetry) (json.RawMessage, error)
	// Done is called once for every unit that completes, run or restored
	// from the journal, from the unit's worker goroutine. It summarizes
	// the payload for the board; an error means the payload does not
	// decode (a restored one is then re-run).
	Done(i int, payload json.RawMessage) (Summary, error)
}

// Summary is what the board shows for a completed unit: its simulated
// totals, and the failure its payload records (a fault unit whose design
// missed a corruption has a result, but the board and the failed counter
// show it failed).
type Summary struct {
	Cycles, Accesses uint64
	Failure          string
}

// SweepPlan is an experiment's cells as a Plan: unit i is cells[i], and
// its payload is the Result JSON journaled under "cell".
type SweepPlan struct {
	scope string
	cells []Cell
	// Title is the experiment's table title; merging under it keeps fleet
	// output byte-identical to a local run's.
	Title string
}

// NewSweepPlan wraps an already-enumerated cell list under a scope.
func NewSweepPlan(scope string, cells []Cell) *SweepPlan {
	return &SweepPlan{scope: scope, cells: cells}
}

func (p *SweepPlan) Scope() string            { return p.scope }
func (p *SweepPlan) Kind() string             { return "cell" }
func (p *SweepPlan) Units() int               { return len(p.cells) }
func (p *SweepPlan) Fingerprint(i int) string { return safeFingerprint(p.cells[i], p.scope, i) }
func (p *SweepPlan) Label(i int) string       { return p.cells[i].source(safeName(p.cells[i], i)) }

// RunUnit simulates cell i and returns its Result as JSON.
func (p *SweepPlan) RunUnit(ctx context.Context, i int, lt *live.Telemetry) (json.RawMessage, error) {
	c := p.cells[i]
	r, err := c.run(ctx, lt, i)
	if err != nil {
		return nil, err
	}
	if c.Tracer != nil {
		obs.WithSource(c.Tracer, c.source(r.Workload)).Trace(obs.Event{
			Kind: obs.EvCheckpoint, Cycle: r.Stats.Cycles, Aux: uint64(i),
		})
	}
	return json.Marshal(r)
}

// Done reports the cell's simulated cycles and accesses.
func (p *SweepPlan) Done(_ int, payload json.RawMessage) (Summary, error) {
	var r struct {
		Stats struct{ Cycles, Loads, Stores uint64 }
	}
	err := json.Unmarshal(payload, &r)
	return Summary{Cycles: r.Stats.Cycles, Accesses: r.Stats.Loads + r.Stats.Stores}, err
}

// Run executes the plan on rn and merges its table.
func (p *SweepPlan) Run(rn Runner) (*Table, error) {
	payloads, man, err := rn.RunPlan(p)
	if err != nil {
		return nil, err
	}
	return p.MergeTable(payloads, man)
}

// MergeTable assembles the sweep's table from payloads in enumeration
// order, under Title and carrying man: a payload renders as its Result, a
// unit in man.Failures as the explicit FAILED row of FailureResult, and
// any other unit (interrupted, never attempted) is absent — the manifest
// accounts for it. Local runs and the fleet gateway both merge through
// it, so their tables are byte-identical.
func (p *SweepPlan) MergeTable(payloads []json.RawMessage, man *Manifest) (*Table, error) {
	if len(payloads) != len(p.cells) {
		return nil, fmt.Errorf("harness: merge got %d payloads for %d units", len(payloads), len(p.cells))
	}
	failed := make(map[int]*CellFailure, len(man.Failures))
	for k := range man.Failures {
		failed[man.Failures[k].Index] = &man.Failures[k]
	}
	t := &Table{Title: p.Title, Manifest: man}
	for i, data := range payloads {
		if data == nil {
			if f := failed[i]; f != nil {
				t.Add(FailureResult(p.cells[i], i, f))
			}
			continue
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("harness: unit %d result does not decode: %w", i, err)
		}
		t.Add(&r)
	}
	return t, nil
}
