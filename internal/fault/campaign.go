package fault

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/param"
)

// Options configures a campaign run.
type Options struct {
	// Seed is the campaign seed; everything else is derived from it.
	Seed int64
	// N is the total number of injection specs per design, split across
	// the campaign apps (remainder to the first apps).
	N int
	// Workers bounds concurrent units (0 = NumCPU).
	Workers int
	// Apps restricts the campaign (default: all seven).
	Apps []string
	// Designs restricts the designs (default: Baseline and TVARAK — the
	// miss/detect contrast the paper's Table 4 argument rests on).
	Designs []param.Design
	// Async shapes every Vilamb-design unit's machine (epoch, dirty
	// granularity, battery/incremental); ignored for other designs. The
	// zero value is the classic Vilamb sketch, and leaves fingerprints
	// and unit keys identical to their pre-async forms.
	Async param.AsyncConfig
	// Shrink minimizes each failing unit's schedule after the campaign.
	Shrink bool
	// ShrinkBudget caps re-runs per shrunk unit (default 48).
	ShrinkBudget int
	// Progress, if non-nil, is called after each unit completes, run or
	// restored (serialized, in completion order).
	Progress func(done, total int, u *UnitReport)
	// Context, when non-nil, cancels the campaign cooperatively: no new
	// unit starts once it is done, in-flight units unwind at their
	// engine's next phase boundary, finished units are kept, and the
	// report marks itself interrupted (nil slots stay in Units order).
	Context context.Context
	// Journal, when non-nil, checkpoints each finished unit durably under
	// a fingerprint of (seed, N, app, design); a resumed campaign (the
	// same journal reopened) restores journaled units instead of
	// re-simulating them. Units are deterministic, so a resumed report is
	// byte-identical to an uninterrupted one.
	Journal *harness.Journal
	// Live, when non-nil, streams unit lifecycle onto the /runs board and
	// folds each finished unit's armed/detected/recovered totals into the
	// tvarak_fault_* counters. Strictly read-only: reports are
	// byte-identical with or without it.
	Live *live.Telemetry
}

// Report is the complete campaign outcome.
type Report struct {
	Seed       int64    `json:"seed"`
	Injections int      `json:"injections"` // specs per design
	Apps       []string `json:"apps"`
	Designs    []string `json:"designs"`

	Units []*UnitReport `json:"units"`

	Fired             int `json:"fired"`
	SilentCorruptions int `json:"silentCorruptions"`
	Undetected        int `json:"undetected"`
	Unrecovered       int `json:"unrecovered"`
	AppPanics         int `json:"appPanics"`
	CrashPoints       int `json:"crashPoints"`
	Failures          int `json:"failures"`

	// Asynchronous-design totals (zero and absent unless Vilamb-family
	// units ran): injections absorbed inside an open epoch window, and
	// lines quarantined as detected-but-unrepairable.
	InWindowSilent   int    `json:"inWindowSilent,omitempty"`
	QuarantinedLines uint64 `json:"quarantinedLines,omitempty"`

	// Resumed counts units restored from a journal instead of re-run;
	// Interrupted counts unit slots left empty by cancellation. Both are
	// zero (and absent from the wire format) on a clean uninterrupted
	// run, preserving byte-determinism of historical reports.
	Resumed     int `json:"resumed,omitempty"`
	Interrupted int `json:"interrupted,omitempty"`
}

// normalized resolves the campaign's defaulted knobs: the app list, the
// design list, and the total injection count. Every consumer of the
// enumeration (Run, CampaignUnits, AssembleReport — and through them the
// fleet's gateway and workers) must agree on these, or fingerprints and
// report headers would diverge between a local and a distributed run.
func (opt Options) normalized() (apps []string, designs []param.Design, total int) {
	apps = opt.Apps
	if len(apps) == 0 {
		apps = AppNames()
	}
	designs = opt.Designs
	if len(designs) == 0 {
		designs = []param.Design{param.Baseline, param.Tvarak}
	}
	total = opt.N
	if total <= 0 {
		total = len(apps)
	}
	return apps, designs, total
}

// Scope identifies the campaign's shape for journal binding and the
// fleet's gateway/worker handshake: seed, total injections, app list, and
// — only when non-default, so historical scopes stay byte-identical — the
// design list and async configuration. tvarak-fault binds its journal to
// it whether the campaign runs locally or is served with -fleet, and both
// checkpoint units under "unit", so either run's journal resumes the other.
func (opt Options) Scope() string {
	s := fmt.Sprintf("fault-campaign|seed=%d|n=%d|apps=%s",
		opt.Seed, opt.N, strings.Join(opt.Apps, ","))
	if len(opt.Designs) > 0 {
		var names []string
		for _, d := range opt.Designs {
			names = append(names, d.String())
		}
		s += "|designs=" + strings.Join(names, ",")
	}
	if !opt.Async.IsZero() {
		s += "|async=" + opt.Async.Label()
	}
	return s
}

// CampaignUnit is one enumerated unit of a campaign: the standalone
// re-entry parameters (RunSingleUnit replays it bit-identically anywhere),
// the campaign-level journal fingerprint, and the human label. The slice
// order from CampaignUnits (app-major, design-minor) IS the report order.
type CampaignUnit struct {
	Params UnitParams
	Fp     string
	Label  string
}

// CampaignUnits enumerates the campaign's units without running anything.
// It is the shared enumeration under Run and under the fleet's
// gateway/worker split: both sides derive the identical unit list (and
// fingerprints) from the same Options, so a lease's fingerprint
// cross-checks against an independently-enumerated unit.
func CampaignUnits(opt Options) ([]CampaignUnit, error) {
	apps, designs, total := opt.normalized()
	var units []CampaignUnit
	per, extra := total/len(apps), total%len(apps)
	for ai, name := range apps {
		if _, err := lookupApp(name); err != nil {
			return nil, err
		}
		n := per
		if ai < extra {
			n++
		}
		// Per-app seed: decorrelate apps while keeping the derivation
		// printable/reproducible from the campaign seed alone.
		seed := opt.Seed + int64(ai)*0x4f1bbcdcbfa53e0b
		for _, d := range designs {
			p := UnitParams{App: name, Design: d, Seed: seed, N: n}
			fp := fmt.Sprintf("fault-unit|seed=%d|n=%d|%s|%s",
				opt.Seed, total, name, d)
			if d == param.Vilamb && !opt.Async.IsZero() {
				p.EpochCyc = opt.Async.EpochCyc
				p.DirtyGran = opt.Async.DirtyGran.String()
				p.Battery = opt.Async.Battery
				p.Incremental = opt.Async.Incremental
				fp += "|async=" + opt.Async.Label()
			}
			units = append(units, CampaignUnit{
				Params: p,
				Fp:     fp,
				Label:  name + "/" + d.String(),
			})
		}
	}
	return units, nil
}

// AssembleReport folds per-unit reports (in CampaignUnits order; nil slots
// mark units that never ran) into the campaign Report, exactly as Run
// does: totals, failure summary error, optional shrinking of failing
// units, and the interrupted accounting. The fleet's gateway merges
// worker-produced unit reports through this, so a distributed campaign's
// JSONL is byte-identical to a local run's.
func AssembleReport(opt Options, units []CampaignUnit, reports []*UnitReport) (*Report, error) {
	apps, designs, total := opt.normalized()
	rep := &Report{Seed: opt.Seed, Injections: total, Apps: apps, Units: reports}
	for _, d := range designs {
		rep.Designs = append(rep.Designs, d.String())
	}
	var failed []string
	for i, u := range reports {
		if u == nil { // slot never ran: the campaign was cancelled
			rep.Interrupted++
			continue
		}
		rep.Fired += u.Fired
		rep.SilentCorruptions += u.SilentCorruptions
		rep.Undetected += u.Undetected
		rep.Unrecovered += u.Unrecovered
		rep.AppPanics += u.AppPanics
		rep.CrashPoints += u.CrashPoints
		rep.InWindowSilent += u.InWindowSilent
		rep.QuarantinedLines += u.QuarantinedLines
		if u.Failure != "" {
			rep.Failures++
			failed = append(failed, u.Label())
			if opt.Shrink {
				budget := opt.ShrinkBudget
				if budget <= 0 {
					budget = 48
				}
				p := units[i].Params
				app, err := lookupApp(p.App)
				if err != nil {
					return rep, err
				}
				plan := NewPlan(p.App, p.Seed, p.N)
				u.MinimalSpecs, u.ShrinkRuns = shrinkUnit(opt.Context, app, p.Design, plan, budget, p.AsyncCfg())
			}
		}
	}
	if len(failed) > 0 {
		return rep, fmt.Errorf("fault: %d campaign unit(s) failed: %s",
			len(failed), strings.Join(failed, ", "))
	}
	if rep.Interrupted > 0 {
		var cause error
		if opt.Context != nil {
			cause = context.Cause(opt.Context)
		}
		return rep, fmt.Errorf("fault: campaign interrupted, %d unit(s) not run: %w",
			rep.Interrupted, cause)
	}
	return rep, nil
}

// Run executes the campaign: one unit per (app, design), the same
// per-app plan hitting every design, as a CampaignPlan on a
// harness.Runner. Units are independent simulations, so they run across
// a worker pool; unit order in the report is fixed (app-major,
// design-minor) regardless of completion order. The returned error
// summarizes failed units — the full detail is in the report.
func Run(opt Options) (*Report, error) {
	p, err := NewCampaignPlan(opt)
	if err != nil {
		return nil, err
	}
	rn := harness.Runner{Workers: opt.Workers, Context: opt.Context, Journal: opt.Journal, Live: opt.Live}
	payloads, man, runErr := rn.RunPlan(p)
	rep, err := p.MergeReport(payloads)
	if rep != nil {
		rep.Resumed = man.FromJournal
	}
	return rep, errors.Join(runErr, err)
}

// CampaignPlan is a fault campaign as a harness.Plan: the enumeration is
// CampaignUnits, and each unit's payload is its UnitReport JSON,
// journaled under "unit". Run executes it locally; the fleet distributes
// it.
type CampaignPlan struct {
	opt   Options
	units []CampaignUnit

	mu   sync.Mutex // serializes opt.Progress and done
	done int
}

// NewCampaignPlan enumerates the campaign opt declares.
func NewCampaignPlan(opt Options) (*CampaignPlan, error) {
	units, err := CampaignUnits(opt)
	if err != nil {
		return nil, err
	}
	return &CampaignPlan{opt: opt, units: units}, nil
}

func (p *CampaignPlan) Scope() string            { return p.opt.Scope() }
func (p *CampaignPlan) Kind() string             { return "unit" }
func (p *CampaignPlan) Units() int               { return len(p.units) }
func (p *CampaignPlan) Fingerprint(i int) string { return p.units[i].Fp }
func (p *CampaignPlan) Label(i int) string       { return p.units[i].Label }

// RunUnit replays campaign unit i via the standalone re-entry API. Design
// failures (a missed corruption) live inside the report and are delivered
// as results — AssembleReport folds them into the campaign verdict, and
// re-running would not change them.
func (p *CampaignPlan) RunUnit(ctx context.Context, i int, lt *live.Telemetry) (json.RawMessage, error) {
	return UnitPayload(ctx, p.units[i].Params, lt, i)
}

// Done summarizes the unit for the board and reports it to opt.Progress.
func (p *CampaignPlan) Done(_ int, payload json.RawMessage) (harness.Summary, error) {
	if p.opt.Progress == nil {
		return UnitSummary(payload)
	}
	var u UnitReport
	if err := json.Unmarshal(payload, &u); err != nil {
		return harness.Summary{}, err
	}
	p.mu.Lock()
	p.done++
	p.opt.Progress(p.done, len(p.units), &u)
	p.mu.Unlock()
	return harness.Summary{Failure: u.Failure}, nil
}

// MergeReport folds unit payloads, in enumeration order, into the
// campaign Report via AssembleReport; nil slots (units that never ran)
// count as Interrupted. A local Run and the fleet gateway both merge
// through it, so fault.WriteJSONL of either report is byte-identical.
func (p *CampaignPlan) MergeReport(payloads []json.RawMessage) (*Report, error) {
	if len(payloads) != len(p.units) {
		return nil, fmt.Errorf("fault: merge got %d payloads for %d units", len(payloads), len(p.units))
	}
	reports := make([]*UnitReport, len(p.units))
	for i, data := range payloads {
		if data == nil {
			continue
		}
		var u UnitReport
		if err := json.Unmarshal(data, &u); err != nil {
			return nil, fmt.Errorf("fault: unit %d report does not decode: %w", i, err)
		}
		reports[i] = &u
	}
	return AssembleReport(p.opt, p.units, reports)
}
