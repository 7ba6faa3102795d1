package soak

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"tvarak/internal/fault"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/param"
)

// Config shapes one soak run.
type Config struct {
	// Seed is the master soak seed; the entire unit stream derives from it.
	Seed int64
	// Units bounds the stream length (0 = unbounded; then Duration must be
	// set). A bounded run is what CI reruns for ledger byte-identity.
	Units int
	// Duration is a wall-clock cap (0 = none). The run stops cleanly at
	// the deadline: the ledger keeps a contiguous prefix of the stream.
	Duration time.Duration
	// Parallel bounds concurrently-running units (0 = NumCPU).
	Parallel int
	// Designs restricts the sampled design rotation (empty = all designs;
	// see SamplerOptions.Designs).
	Designs []param.Design
	// Async, when non-nil, pins every Vilamb unit's async configuration
	// instead of rotating it through the sampler's epoch/granularity axes.
	Async *param.AsyncConfig
	// ChaosEvery routes every ChaosEvery-th unit through a SIGKILL/resume
	// worker cycle with a byte-identity check (0 disables chaos).
	ChaosEvery int
	// KillAfter is how long after the worker's start marker the supervisor
	// waits before SIGKILLing it. Zero selects 30ms — inside a typical
	// unit's runtime, so the kill usually lands mid-simulation.
	KillAfter time.Duration
	// WorkerCmd is the argv prefix re-exec'd as the chaos worker child
	// (the soak binary itself with its worker flag; tests pass their own
	// test binary). Required when ChaosEvery > 0, as is WorkDir.
	WorkerCmd []string
	// WorkDir holds per-unit chaos scratch files (journals, reports).
	WorkDir string
	// GateEvery runs the live resource gates once every GateEvery finished
	// units (0 disables). Gate verdicts attach to the ledger line they were
	// sampled at: an empty list when clean, the finding strings otherwise.
	GateEvery int
	// Gate is the resource-gate thresholds (zero value → defaults).
	Gate live.OpsCheck
	// OpsLedgerPath is the live ops resource ledger the gates analyze —
	// the file the run's own resource sampler appends to.
	OpsLedgerPath string
	// Sample, when non-nil, appends a resource sample to OpsLedgerPath
	// synchronously. The gate takes one after the batch, while no unit
	// runs, so the goroutine check never compares against a sample the
	// periodic sampler happened to take mid-batch.
	Sample func()
	// LedgerPath is where the soak ledger is written. Required.
	LedgerPath string
	// Journal, when non-nil, makes the supervisor itself crash-safe: the
	// runner fsyncs finished units under their soak fingerprint and a
	// reopened journal restores them instead of re-running.
	Journal *harness.Journal
	// Live, when non-nil, folds unit outcomes into the process-wide
	// telemetry counters (read-only with respect to results).
	Live *live.Telemetry
	// Context cancels the run cooperatively (distinct from the Duration
	// deadline: cancellation is an error, the deadline is a clean stop).
	Context context.Context
	// Progress, if non-nil, is called once per appended ledger line, in
	// stream order.
	Progress func(LedgerLine)
	// FailFast stops the run at the first problem instead of soldiering on
	// (CI wants the former, an overnight evidence-gathering run the latter).
	FailFast bool
}

// Summary is the run's aggregate outcome. Problems is the same verdict
// list soakcheck derives from the ledger.
type Summary struct {
	Units              int
	Chaos              int
	Killed             int
	Resumed            int
	IdentityMismatches int
	Undetected         int
	Unrecovered        int
	Failures           int
	GateChecks         int
	Problems           []Problem
}

// ErrProblems is returned (wrapped) when the run itself completed but the
// ledger verdict found problems.
var ErrProblems = errors.New("soak: run found problems")

// samplerOpts is the sampler view of the config — the supervisor derives
// units under it and ships the same options to every chaos worker child.
func (cfg Config) samplerOpts() SamplerOptions {
	return SamplerOptions{Designs: cfg.Designs, Async: cfg.Async}
}

// Run executes the soak loop: sample units from the seeded stream, run
// them journaled on a worker pool with the fault oracle armed, cycle every
// ChaosEvery-th unit through SIGKILL/resume byte-identity, gate resources
// every GateEvery units, and append one fsync'd ledger line per unit in
// stream order. It returns a non-nil Summary whenever the ledger was
// created, even alongside an error.
func Run(cfg Config) (*Summary, error) {
	if cfg.LedgerPath == "" {
		return nil, errors.New("soak: LedgerPath required")
	}
	if cfg.Units <= 0 && cfg.Duration <= 0 {
		return nil, errors.New("soak: need a Units or Duration bound")
	}
	if cfg.ChaosEvery > 0 && (len(cfg.WorkerCmd) == 0 || cfg.WorkDir == "") {
		return nil, errors.New("soak: chaos needs WorkerCmd and WorkDir")
	}
	if cfg.KillAfter <= 0 {
		cfg.KillAfter = 30 * time.Millisecond
	}
	if (cfg.Gate == live.OpsCheck{}) {
		cfg.Gate = live.DefaultOpsCheck()
	}

	parent := cfg.Context
	if parent == nil {
		parent = context.Background()
	}
	runCtx, cancel := parent, func() {}
	if cfg.Duration > 0 {
		runCtx, cancel = context.WithTimeout(parent, cfg.Duration)
	}
	defer cancel()

	ledger, err := CreateLedger(cfg.LedgerPath)
	if err != nil {
		return nil, err
	}
	defer ledger.Close()

	sum := &Summary{}
	pool := harness.Runner{Workers: cfg.Parallel, Context: runCtx, Journal: cfg.Journal, Live: cfg.Live}
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// Batch granularity: big enough to keep the pool saturated, small
	// enough that the duration deadline and gate cadence stay responsive.
	batch := workers * 2
	if batch < 4 {
		batch = 4
	} else if batch > 32 {
		batch = 32
	}

	appendLine := func(line LedgerLine) error {
		if err := ledger.Append(line); err != nil {
			return err
		}
		sum.Units++
		if line.Chaos {
			sum.Chaos++
		}
		if line.Killed {
			sum.Killed++
		}
		if line.Resumed {
			sum.Resumed++
		}
		if line.IdentityOK != nil && !*line.IdentityOK {
			sum.IdentityMismatches++
		}
		sum.Undetected += line.Undetected
		sum.Unrecovered += line.Unrecovered
		if line.Failure != "" {
			sum.Failures++
		}
		if line.GateFindings != nil {
			sum.GateChecks++
		}
		sum.Problems = append(sum.Problems, Check([]LedgerLine{line})...)
		if cfg.Progress != nil {
			cfg.Progress(line)
		}
		return nil
	}

	lastGate := 0
	for start := 0; ; start += batch {
		if cfg.Units > 0 && start >= cfg.Units {
			break
		}
		if runCtx.Err() != nil {
			break
		}
		n := batch
		if cfg.Units > 0 && start+n > cfg.Units {
			n = cfg.Units - start
		}

		// The batch's reference reports run (or restore) on the runner;
		// the ledger lines, chaos cycles included, are built on the same
		// pool from their payloads.
		plan := streamPlan(cfg.Seed, start, n, cfg.samplerOpts())
		payloads, man, runErr := pool.RunPlan(plan)
		restored := make([]bool, n)
		for _, k := range man.Restored {
			restored[k] = true
		}
		lines := make([]*LedgerLine, n)
		lineErr := pool.ForEach(n, func(k int) error {
			if payloads[k] == nil {
				return nil
			}
			line, err := ledgerLine(runCtx, cfg, plan, k, payloads[k], restored[k])
			if err != nil {
				return err
			}
			lines[k] = line
			return nil
		})
		poolErr := errors.Join(runErr, lineErr)

		// Keep only the contiguous prefix so the ledger is always an exact
		// [0, Units) prefix of the stream — the invariant the same-seed
		// rerun identity gate depends on.
		complete := 0
		for complete < n && lines[complete] != nil {
			complete++
		}

		// Resource gate: sampled at batch granularity, attached to the last
		// line it covers before that line is appended.
		if cfg.GateEvery > 0 && cfg.OpsLedgerPath != "" && complete > 0 &&
			start+complete-lastGate >= cfg.GateEvery {
			if cfg.Sample != nil {
				cfg.Sample()
			}
			findings, _, gerr := cfg.Gate.AnalyzeLedgerFile(cfg.OpsLedgerPath)
			if gerr != nil {
				return sum, fmt.Errorf("soak: resource gate: %w", gerr)
			}
			gf := make([]string, 0, len(findings))
			for _, f := range findings {
				gf = append(gf, f.Check+": "+f.Detail)
			}
			lines[complete-1].GateFindings = gf
			lastGate = start + complete
		}

		for k := 0; k < complete; k++ {
			if err := appendLine(*lines[k]); err != nil {
				return sum, err
			}
		}

		if cfg.FailFast && len(sum.Problems) > 0 {
			return sum, fmt.Errorf("%w: %s", ErrProblems, sum.Problems[0])
		}
		if poolErr != nil {
			// Deadline expiry is the clean duration-bound stop; everything
			// else (user cancellation, worker failure) is a real error.
			if errors.Is(poolErr, context.DeadlineExceeded) && parent.Err() == nil {
				break
			}
			return sum, poolErr
		}
		if runCtx.Err() != nil && parent.Err() == nil {
			break // deadline hit between batches
		}
	}

	if parent.Err() != nil {
		return sum, context.Cause(parent)
	}
	if len(sum.Problems) > 0 {
		return sum, fmt.Errorf("%w: %d problem(s), first: %s",
			ErrProblems, len(sum.Problems), sum.Problems[0])
	}
	return sum, nil
}

// streamPlan is units [start, start+n) of the soak stream as a
// harness.Plan under the "soak-unit" journal kind: the supervisor runs
// each batch's reference reports through it, and a chaos worker child its
// one unit.
func streamPlan(master int64, start, n int, opts SamplerOptions) *unitPlan {
	p := &unitPlan{master: master, units: make([]Unit, n), wall: make([]time.Duration, n)}
	for k := range p.units {
		p.units[k] = UnitAtOpt(master, start+k, opts)
	}
	return p
}

// unitPlan is a run of soak units; see streamPlan.
type unitPlan struct {
	master int64
	units  []Unit
	// wall is each executed unit's wall time, written once by the unit's
	// worker and read after the run (restored units stay zero).
	wall []time.Duration
}

func (p *unitPlan) Scope() string            { return fmt.Sprintf("soak|seed=%d", p.master) }
func (p *unitPlan) Kind() string             { return journalKind }
func (p *unitPlan) Units() int               { return len(p.units) }
func (p *unitPlan) Fingerprint(i int) string { return p.units[i].Fingerprint(p.master) }
func (p *unitPlan) Label(i int) string {
	return fmt.Sprintf("#%d %s", p.units[i].Index, p.units[i].Key())
}

func (p *unitPlan) RunUnit(ctx context.Context, i int, lt *live.Telemetry) (json.RawMessage, error) {
	began := time.Now()
	data, err := fault.UnitPayload(ctx, p.units[i].UnitParams, lt, i)
	p.wall[i] = time.Since(began)
	return data, err
}

func (p *unitPlan) Done(_ int, payload json.RawMessage) (harness.Summary, error) {
	return fault.UnitSummary(payload)
}

// ledgerLine builds the ledger line for unit k of plan from its reference
// payload, running the kill/resume worker cycle against the payload's
// bytes on chaos units.
func ledgerLine(ctx context.Context, cfg Config, plan *unitPlan, k int, payload json.RawMessage, restored bool) (*LedgerLine, error) {
	began := time.Now()
	unit := plan.units[k]
	var rep fault.UnitReport
	if err := json.Unmarshal(payload, &rep); err != nil {
		return nil, fmt.Errorf("soak: unit %d report: %w", unit.Index, err)
	}
	line := &LedgerLine{
		Seed:     cfg.Seed,
		Index:    unit.Index,
		Key:      unit.Fingerprint(cfg.Seed),
		App:      unit.App,
		Design:   unit.Design.String(),
		N:        unit.N,
		UnitSeed: unit.Seed,
		Resumed:  restored,
	}
	line.fromReport(&rep)

	if cfg.ChaosEvery > 0 && (unit.Index+1)%cfg.ChaosEvery == 0 {
		cr, err := runChaos(ctx, cfg, unit, payload)
		if err != nil {
			return nil, err
		}
		line.Chaos = true
		ok := cr.IdentityOK
		line.IdentityOK = &ok
		line.Killed = cr.Killed
		line.Resumed = line.Resumed || cr.Resumed
	}

	line.WallMS = (plan.wall[k] + time.Since(began)).Milliseconds()
	return line, nil
}
