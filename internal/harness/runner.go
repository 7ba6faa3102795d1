package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tvarak/internal/live"
	"tvarak/internal/obs"
	"tvarak/internal/param"
)

// Cell is one independent unit of an experiment: a machine configuration
// plus a workload factory. Every cell simulates on its own fresh System
// (see Run), so cells share no mutable state and a Runner may execute them
// in any order — or concurrently — without changing their results.
type Cell struct {
	// Config is the machine this cell simulates. Each cell must own its
	// Config: builders that mutate one (feature ablations, way sweeps,
	// DIMM sweeps) allocate a fresh Config per cell.
	Config *param.Config
	// Make builds the workload. It is called inside the executing worker
	// (and, when journaling, once more to fingerprint the cell), so
	// factories must not capture shared mutable state; capturing
	// configuration values and deterministic seeds is fine.
	Make func() Workload
	// Variant labels sub-configurations within a design (Fig. 9 ablation
	// points, Fig. 10 way counts); it is copied onto the Result.
	Variant string
	// Rename, if non-nil, rewrites the result's workload label after the
	// run (the §IV-H sweeps suffix the DIMM count or NVM technology so
	// each parameter point gets its own baseline row).
	Rename func(workload string) string
	// SampleEvery, when non-zero, samples the cell's measured run into an
	// epoch time series (see Observation).
	SampleEvery uint64
	// Tracer, when non-nil, receives the cell's measured simulation
	// events. A tracer shared across cells must be safe for concurrent
	// Trace calls (obs.JSONL is); each cell's events are stamped with its
	// workload/design/variant label.
	Tracer obs.Tracer
}

// run executes the cell on a fresh system and applies its labelling. The
// context cancels the simulation cooperatively at phase boundaries; lt,
// when non-nil, receives the engine's phase-boundary progress in board
// slot index.
func (c Cell) run(ctx context.Context, lt *live.Telemetry, index int) (*Result, error) {
	w := c.Make()
	ob := Observation{SampleEvery: c.SampleEvery}
	if c.Tracer != nil {
		ob.Tracer = obs.WithSource(c.Tracer, c.source(w.Name()))
	}
	if lt != nil {
		ob.Probe = lt.CellProbe(index)
	}
	r, err := RunObservedCtx(ctx, c.Config, w, ob)
	if err != nil {
		return nil, err
	}
	r.Variant = c.Variant
	if c.Rename != nil {
		r.Workload = c.Rename(r.Workload)
	}
	return r, nil
}

// source is the cell's tracer stamp for a workload name:
// workload/design[variant].
func (c Cell) source(name string) string {
	src := name + "/" + c.Config.Design.String()
	if c.Variant != "" {
		src += "[" + c.Variant + "]"
	}
	return src
}

// CellFailure describes one unit that failed without producing a result.
type CellFailure struct {
	// Index is the unit's position in the plan's enumeration.
	Index int `json:"index"`
	// Label names the unit (workload/design[variant] for cells).
	Label string `json:"label"`
	// Err is the attempt's error.
	Err string `json:"err"`
	// Stack is the panic stack (contained panics) or the all-goroutine
	// dump the watchdog took (hung units); empty for plain errors.
	Stack string `json:"stack,omitempty"`
	// Hung marks a unit that exceeded its deadline or was abandoned by
	// the watchdog rather than failing with an error of its own.
	Hung bool `json:"hung,omitempty"`
}

// Manifest summarizes a run's partial-completion state: it is the durable
// answer to "what did this run actually produce" when units failed, hung,
// or the run was interrupted. A journaling run appends it as the final
// journal record whenever it is not clean.
type Manifest struct {
	// Total is the number of units the run was asked for.
	Total int `json:"total"`
	// Completed counts units with a real result, including restored ones.
	Completed int `json:"completed"`
	// FromJournal counts completed units restored from the journal
	// instead of re-run.
	FromJournal int `json:"fromJournal,omitempty"`
	// Restored lists the restored units, in enumeration order.
	Restored []int `json:"restored,omitempty"`
	// Failures lists units that failed, earliest first.
	Failures []CellFailure `json:"failures,omitempty"`
	// Interrupted lists units whose attempt was cut short by
	// cancellation; a resumed run re-executes them.
	Interrupted []int `json:"interrupted,omitempty"`
	// NotAttempted lists units never started — claimed or enumerated
	// after a failure or cancellation stopped the pool.
	NotAttempted []int `json:"notAttempted,omitempty"`
	// Cancelled reports that the run's context was cancelled.
	Cancelled bool `json:"cancelled,omitempty"`
}

// Clean reports whether every unit completed and nothing was interrupted.
func (m *Manifest) Clean() bool {
	return m.Completed == m.Total && len(m.Failures) == 0 &&
		len(m.Interrupted) == 0 && len(m.NotAttempted) == 0 && !m.Cancelled
}

// String renders the human-readable summary, one line plus one per failure.
func (m *Manifest) String() string {
	s := fmt.Sprintf("manifest: %d/%d cells completed", m.Completed, m.Total)
	if m.FromJournal > 0 {
		s += fmt.Sprintf(" (%d restored from journal)", m.FromJournal)
	}
	if n := len(m.Failures); n > 0 {
		s += fmt.Sprintf(", %d failed", n)
	}
	if n := len(m.Interrupted); n > 0 {
		s += fmt.Sprintf(", %d interrupted", n)
	}
	if n := len(m.NotAttempted); n > 0 {
		s += fmt.Sprintf(", %d not attempted", n)
	}
	if m.Cancelled {
		s += " [cancelled]"
	}
	for _, f := range m.Failures {
		kind := "failed"
		if f.Hung {
			kind = "hung"
		}
		s += fmt.Sprintf("\n  cell %d (%s) %s: %s", f.Index, f.Label, kind, f.Err)
	}
	return s
}

// watchdogGrace is the extra wall-clock a unit gets past CellTimeout (or
// past cancellation) to unwind cooperatively before the watchdog abandons
// it.
const watchdogGrace = 2 * time.Second

// Runner executes a Plan's units across a bounded worker pool and returns
// their payloads in enumeration order, regardless of completion order.
// Every unit is deterministic and isolated, so a table merged from a
// parallel run is byte-identical to one from a sequential run — the
// determinism gate in the tests asserts exactly that.
//
// Sweeps, fault campaigns, soak batches, the soak's chaos child and fleet
// workers all run their units through the one per-unit path here: journal
// restore, the contained and watchdogged attempt, the fsync'd record, and
// the live board and counters. The zero value is the strict runner (the
// first failure stops the pool); the fields opt into cancellation
// (Context), checkpoint/resume (Journal), per-unit deadlines
// (CellTimeout), degraded completion (Degrade) and live telemetry (Live).
type Runner struct {
	// Workers bounds how many units run concurrently. Zero or negative
	// means runtime.NumCPU(); 1 runs them in enumeration order (stopping
	// at the first failing unit).
	Workers int
	// Context, when non-nil, cancels the run cooperatively: no new unit
	// is claimed once it is done, and in-flight units stop at their next
	// simulation phase boundary. Interrupted units produce no payload and
	// are re-executed by a resumed run.
	Context context.Context
	// Journal, when non-nil, makes the run crash-safe: each completed
	// unit's payload is fsync'd under the plan's record kind and the
	// unit's fingerprint before completion is acknowledged, and units the
	// journal already holds are restored instead of re-run.
	Journal *Journal
	// CellTimeout, when non-zero, bounds one unit's attempt. The deadline
	// propagates into the simulation and normally stops it at a phase
	// boundary; a unit that still does not return within two more seconds
	// is marked hung, its goroutine dump is journaled, and its worker
	// slot is released (the stuck goroutine is abandoned — Go cannot kill
	// it).
	CellTimeout time.Duration
	// Degrade keeps the run going past failed units: each becomes a
	// Manifest entry (merged tables render it as an explicit hole) and
	// every sibling still runs. Without it the first failure stops the
	// pool and the run returns an error.
	Degrade bool
	// Live, when non-nil, streams unit lifecycle transitions and
	// phase-boundary progress into the wall-clock telemetry bundle (the
	// /metrics counters and the /runs board). It is strictly read-only
	// with respect to results: attaching it changes no payload.
	Live *live.Telemetry
}

func (rn Runner) workers(n int) int {
	w := rn.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	return w
}

func (rn Runner) ctx() context.Context {
	if rn.Context == nil {
		return context.Background()
	}
	return rn.Context
}

func (rn Runner) ctxErr() error { return rn.ctx().Err() }

// ForEach runs job(i) for every i in [0, n) across the worker pool.
// Indices are claimed in order; after a job fails (or the Context is
// cancelled), no new index is claimed — in-flight jobs finish. The
// returned error aggregates every job failure with errors.Join, earliest
// index first, so the primary (first) error never depends on the worker
// count. A job that must never stop its siblings simply returns nil and
// keeps its own accounting.
func (rn Runner) ForEach(n int, job func(i int) error) error {
	err, _ := rn.forEach(n, job)
	return err
}

// forEach is ForEach plus the skipped-index accounting: it returns the
// indices that were never attempted because a failure or cancellation
// stopped the pool first — including indices a worker claimed from the
// counter but declined to run.
func (rn Runner) forEach(n int, job func(int) error) (error, []int) {
	if n <= 0 {
		return nil, nil
	}
	errs := make([]error, n)
	ran := make([]bool, n) // indexed writes only, each index claimed once
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	next.Store(-1)
	for w := rn.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if failed.Load() || rn.ctxErr() != nil {
					return // i stays !ran — reported as not attempted
				}
				ran[i] = true
				if err := job(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	var joined []error
	var skipped []int
	for i := range errs {
		if errs[i] != nil {
			joined = append(joined, errs[i])
		}
		if !ran[i] {
			skipped = append(skipped, i)
		}
	}
	return errors.Join(joined...), skipped
}

// RunPlan executes every unit of p and returns the payloads indexed
// exactly like the plan's enumeration (nil for units that produced
// nothing), plus the run's manifest. Without Degrade the error aggregates
// every failed unit (earliest first); with Degrade failures live only in
// the manifest and the error stays nil. Cancellation is never an error
// here — the manifest reports it.
func (rn Runner) RunPlan(p Plan) ([]json.RawMessage, *Manifest, error) {
	n := p.Units()
	man := &Manifest{Total: n}
	if n == 0 {
		return nil, man, nil
	}
	payloads := make([]json.RawMessage, n)
	if rn.Live != nil {
		rn.Live.Board.Begin(p.Scope(), n)
	}
	var mu sync.Mutex // serializes manifest appends
	err, skipped := rn.forEach(n, func(i int) error {
		out := rn.unit(p, i)
		mu.Lock()
		switch {
		case out.fail != nil:
			man.Failures = append(man.Failures, *out.fail)
		case out.payload == nil:
			man.Interrupted = append(man.Interrupted, i)
		default:
			payloads[i] = out.payload
			man.Completed++
			if out.restored {
				man.Restored = append(man.Restored, i)
			}
		}
		mu.Unlock()
		if out.fail != nil && !rn.Degrade {
			return fmt.Errorf("unit %d (%s): %s", i, out.fail.Label, out.fail.Err)
		}
		return nil
	})
	man.NotAttempted = skipped
	man.Cancelled = rn.ctxErr() != nil
	man.FromJournal = len(man.Restored)
	sort.Slice(man.Failures, func(a, b int) bool { return man.Failures[a].Index < man.Failures[b].Index })
	sort.Ints(man.Interrupted)
	sort.Ints(man.Restored)
	if rn.Journal != nil && !man.Clean() {
		_ = rn.Journal.Record("manifest", p.Scope(), man)
	}
	return payloads, man, err
}

// RunOne takes unit i of p alone through the per-unit path RunPlan uses
// and returns its payload, or an error when the unit failed or was
// interrupted. A fleet worker runs each leased unit through it; the caller
// owns the board (see live.Board.Join).
func (rn Runner) RunOne(p Plan, i int) (json.RawMessage, error) {
	out := rn.unit(p, i)
	switch {
	case out.fail != nil:
		return nil, fmt.Errorf("unit %d (%s): %s", i, out.fail.Label, out.fail.Err)
	case out.payload == nil:
		return nil, fmt.Errorf("harness: unit %d interrupted: %w", i, context.Cause(rn.ctx()))
	}
	return out.payload, nil
}

// RunTable runs the cells as an unscoped sweep and merges their results,
// in cell order, into a titled table carrying the run's manifest. Under
// Degrade or cancellation the table is partial: failed cells render as
// explicit holes and interrupted cells are simply absent — consult
// Manifest.
func (rn Runner) RunTable(title string, cells []Cell) (*Table, error) {
	p := NewSweepPlan("", cells)
	p.Title = title
	return p.Run(rn)
}

// Run executes every cell and returns the results in cell order. On
// failure it returns the error of the earliest (by cell order) cell that
// failed, joined with every other failure. Cancellation of the Context is
// returned as an error wrapping its cause. Under Degrade, failed cells
// appear as placeholder results instead of errors.
func (rn Runner) Run(cells []Cell) ([]*Result, error) {
	t, err := rn.RunTable("", cells)
	if err != nil {
		return nil, err
	}
	if t.Manifest.Cancelled {
		return nil, fmt.Errorf("harness: run cancelled: %w", context.Cause(rn.ctx()))
	}
	return t.Results, nil
}

// unitOutcome is what one unit ultimately produced: a payload (run or
// restored), a failure, or neither (interrupted by cancellation).
type unitOutcome struct {
	payload  json.RawMessage
	restored bool
	fail     *CellFailure
}

// unit drives unit i of p to its final outcome: journal restore, the
// contained attempt, the durable record, and the board and counters.
func (rn Runner) unit(p Plan, i int) unitOutcome {
	lt := rn.Live
	var fp string
	if rn.Journal != nil {
		fp = p.Fingerprint(i)
		if data := rn.Journal.LookupRaw(p.Kind(), fp); data != nil {
			// A payload the plan no longer decodes is treated like a
			// corrupt line: the unit re-runs.
			if s, err := p.Done(i, data); err == nil {
				if lt != nil {
					lt.Runner.Restored.AddAt(i, 1)
					lt.Board.CellRestored(i, p.Label(i), s.Cycles, s.Accesses)
				}
				return unitOutcome{payload: data, restored: true}
			}
		}
	}
	if lt != nil {
		lt.Runner.Started.AddAt(i, 1)
		lt.Board.CellRunning(i, p.Label(i))
	}
	start := time.Now()
	ar := rn.attempt(p, i)
	if ar.cancelled {
		return unitOutcome{}
	}
	if ar.err == nil && rn.Journal != nil {
		// A checkpoint that cannot be made durable is a unit failure:
		// acknowledging it would let a crash lose acknowledged work.
		if err := rn.Journal.RecordRaw(p.Kind(), fp, ar.payload); err != nil {
			ar.err = fmt.Errorf("harness: journaling unit: %w", err)
		}
	}
	var s Summary
	if ar.err == nil {
		s, ar.err = p.Done(i, ar.payload)
	}
	if ar.err == nil {
		if lt != nil {
			lt.Runner.CellSeconds.Observe(time.Since(start).Seconds())
			if s.Failure != "" {
				lt.Runner.Failed.AddAt(i, 1)
				lt.Board.CellFailed(i, "", s.Failure, false)
			} else {
				lt.Runner.Finished.AddAt(i, 1)
				lt.Board.CellDone(i, s.Cycles, s.Accesses)
			}
		}
		return unitOutcome{payload: ar.payload}
	}
	fail := &CellFailure{Index: i, Label: p.Label(i), Err: ar.err.Error(), Stack: ar.stack, Hung: ar.hung}
	if lt != nil {
		lt.Runner.Failed.AddAt(i, 1)
		if ar.hung {
			lt.Runner.Watchdog.AddAt(i, 1)
		}
		lt.Board.CellFailed(i, fail.Label, fail.Err, ar.hung)
	}
	if rn.Journal != nil {
		if ar.hung {
			stacks := ar.stack
			if stacks == "" {
				stacks = allStacks()
			}
			_ = rn.Journal.Record("hang", fp, hangRecord{Label: fail.Label, Stacks: stacks})
		}
		_ = rn.Journal.Record("fail", fp, fail)
	}
	return unitOutcome{fail: fail}
}

// attemptResult is one attempt's raw outcome.
type attemptResult struct {
	payload   json.RawMessage
	err       error
	stack     string
	hung      bool
	cancelled bool
}

// attempt runs unit i on its own goroutine with panic containment, a
// deadline that propagates into the simulation, and a hard watchdog that
// abandons the goroutine if it does not unwind.
func (rn Runner) attempt(p Plan, i int) attemptResult {
	parent := rn.ctx()
	cctx := parent
	if rn.CellTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(parent, rn.CellTimeout)
		defer cancel()
	}
	done := make(chan attemptResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- attemptResult{
					err:   fmt.Errorf("harness: unit panicked: %v", r),
					stack: string(debug.Stack()),
				}
			}
		}()
		data, err := p.RunUnit(cctx, i, rn.Live)
		if err == nil && data == nil {
			err = errors.New("harness: unit produced no payload")
		}
		done <- attemptResult{payload: data, err: err}
	}()
	var hardC <-chan time.Time
	if rn.CellTimeout > 0 {
		hard := time.NewTimer(rn.CellTimeout + watchdogGrace)
		defer hard.Stop()
		hardC = hard.C
	}
	select {
	case ar := <-done:
		return rn.classify(ar)
	case <-hardC:
	case <-parent.Done():
		// Cancelled: give the unit one grace period to unwind at its next
		// phase boundary before abandoning it.
		g := time.NewTimer(watchdogGrace)
		defer g.Stop()
		select {
		case ar := <-done:
			return rn.classify(ar)
		case <-g.C:
		case <-hardC:
		}
	}
	// Watchdog: the unit neither finished nor unwound. Its goroutine
	// cannot be killed — abandon it (it keeps its System alive until it
	// ever returns) and release the worker slot with a full dump.
	return attemptResult{
		err:  fmt.Errorf("harness: unit watchdog: no result within deadline+%v grace, worker abandoned", watchdogGrace),
		hung: true, stack: allStacks(),
	}
}

// classify sorts an attempt that returned. Once the run is cancelled the
// attempt counts as interrupted and re-runs on resume — even when it
// returned a payload, because it may have observed the cancellation part
// way (a fault unit whose setup failed on the cancelled engine reports
// that as a design failure). An error past the attempt's own deadline
// marks the unit hung.
func (rn Runner) classify(ar attemptResult) attemptResult {
	switch {
	case rn.ctxErr() != nil:
		return attemptResult{cancelled: true}
	case errors.Is(ar.err, context.DeadlineExceeded):
		ar.hung = true
	}
	return ar
}

// allStacks dumps every goroutine's stack.
func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// safeFingerprint fingerprints the cell, falling back to an index-keyed
// fingerprint if the workload factory itself panics.
func safeFingerprint(c Cell, scope string, i int) (fp string) {
	fp = fmt.Sprintf("%s/cell-%d#unfingerprintable", scope, i)
	defer func() { _ = recover() }()
	return c.Fingerprint(scope)
}

// safeName returns the cell's (renamed) workload name, tolerating a
// panicking factory.
func safeName(c Cell, i int) (name string) {
	name = fmt.Sprintf("cell-%d", i)
	defer func() { _ = recover() }()
	n := c.Make().Name()
	if c.Rename != nil {
		n = c.Rename(n)
	}
	return n
}

// FailureResult synthesizes the degraded-mode placeholder for a failed
// cell: a Result with the cell's labels, zero statistics, and Failure set,
// which tables render as an explicit hole. A sweep's merge renders every
// failed unit through it, locally and on the fleet gateway.
func FailureResult(c Cell, i int, f *CellFailure) *Result {
	reason := f.Err
	if f.Hung {
		reason = "hung: " + reason
	}
	return &Result{
		Workload: safeName(c, i),
		Design:   c.Config.Design,
		Variant:  c.Variant,
		Failure:  reason,
	}
}
