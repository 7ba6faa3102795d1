package harness_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/obs"
	"tvarak/internal/sim"
)

// sampledToyCells is toyCells with epoch sampling on, so resume tests cover
// the Series round-trip through the journal, not just aggregates.
func sampledToyCells(n int) []harness.Cell {
	cells := toyCells(n)
	for i := range cells {
		cells[i].SampleEvery = 5000
	}
	return cells
}

// runScoped runs the cells as a titled sweep plan under scope.
func runScoped(rn harness.Runner, scope, title string, cells []harness.Cell) (*harness.Table, error) {
	p := harness.NewSweepPlan(scope, cells)
	p.Title = title
	return p.Run(rn)
}

// renderRun renders a table plus its metrics export exactly like the CLI
// does, for byte-level comparisons.
func renderRun(t *testing.T, tab *harness.Table) (string, []byte) {
	t.Helper()
	x := obs.NewExport("test")
	x.Runs = append(x.Runs, tab.ExportRuns("exp")...)
	var buf bytes.Buffer
	if err := x.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return tab.String(), buf.Bytes()
}

func TestJournalResumeIsByteIdentical(t *testing.T) {
	const n, scope = 6, "exp|scale=1|full=false"
	cleanTab, err := harness.Runner{Workers: 1}.RunTable("resume", sampledToyCells(n))
	if err != nil {
		t.Fatal(err)
	}
	cleanStr, cleanExport := renderRun(t, cleanTab)

	// First run: journaled, cancelled after 3 completed cells.
	path := filepath.Join(t.TempDir(), "run.journal")
	j1, err := harness.NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lt := live.NewTelemetry()
	lt.Board.Notify = func(_ live.CellEntry, done, _ int) {
		if done == 3 {
			cancel()
		}
	}
	rn := harness.Runner{Workers: 1, Context: ctx, Journal: j1, Live: lt}
	_, man, err := rn.RunPlan(harness.NewSweepPlan(scope, sampledToyCells(n)))
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if !man.Cancelled || man.Completed != 3 {
		t.Fatalf("interrupted manifest = %+v, want cancelled with 3 completed", man)
	}
	if want := n - 3; len(man.NotAttempted) != want {
		t.Fatalf("NotAttempted = %v, want %d cells", man.NotAttempted, want)
	}

	// Resume: journaled cells restore, the rest simulate.
	j2, err := harness.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// 4 records: 3 checkpointed cells plus the interrupted run's manifest.
	if j2.Restored() != 4 {
		t.Fatalf("Restored = %d, want 4", j2.Restored())
	}
	tab, err := runScoped(harness.Runner{Workers: 1, Journal: j2}, scope, "resume", sampledToyCells(n))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Manifest.FromJournal != 3 || tab.Manifest.Completed != n {
		t.Errorf("resumed manifest = %+v, want %d completed with 3 from journal", tab.Manifest, n)
	}
	gotStr, gotExport := renderRun(t, tab)
	if gotStr != cleanStr {
		t.Errorf("resumed table differs from uninterrupted run:\n--- clean ---\n%s--- resumed ---\n%s", cleanStr, gotStr)
	}
	if !bytes.Equal(gotExport, cleanExport) {
		t.Error("resumed metrics export is not byte-identical to the uninterrupted run's")
	}
}

func TestJournalScopeMismatchReruns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j1, err := harness.NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runScoped(harness.Runner{Workers: 1, Journal: j1}, "scale=1", "", toyCells(2)); err != nil {
		t.Fatal(err)
	}
	j1.Close()
	j2, err := harness.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// A different scope (say, -scale changed) must not resurrect results.
	_, man, err := harness.Runner{Workers: 1, Journal: j2}.RunPlan(harness.NewSweepPlan("scale=2", toyCells(2)))
	if err != nil {
		t.Fatal(err)
	}
	if man.FromJournal != 0 {
		t.Errorf("scope change restored %d cells from the journal, want 0", man.FromJournal)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	const n, scope = 4, "torn"
	cleanTab, err := harness.Runner{Workers: 1}.RunTable("torn", sampledToyCells(n))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.journal")
	j1, err := harness.NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runScoped(harness.Runner{Workers: 1, Journal: j1}, scope, "torn", sampledToyCells(n)); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	// Simulate a crash mid-write: chop the final record in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) != n+1 { // header record + n cell records
		t.Fatalf("journal has %d lines, want %d", len(lines), n+1)
	}
	last := lines[n]
	torn := append(bytes.Join(lines[:n], []byte("\n")), '\n')
	torn = append(torn, last[:len(last)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := harness.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Restored() != n-1 || j2.CorruptLines() != 1 {
		t.Fatalf("Restored = %d CorruptLines = %d, want %d and 1", j2.Restored(), j2.CorruptLines(), n-1)
	}
	tab, err := runScoped(harness.Runner{Workers: 1, Journal: j2}, scope, "torn", sampledToyCells(n))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Manifest.FromJournal != n-1 {
		t.Errorf("FromJournal = %d, want %d (the torn cell must re-run)", tab.Manifest.FromJournal, n-1)
	}
	if tab.String() != cleanTab.String() {
		t.Errorf("table after torn-tail recovery differs:\n--- clean ---\n%s--- recovered ---\n%s", cleanTab, tab)
	}
	// The repaired journal must be appendable and reloadable.
	j2.Close()
	j3, err := harness.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Restored() != n {
		t.Errorf("after repair Restored = %d, want %d", j3.Restored(), n)
	}
}

// TestJournalTornTailEveryOffset simulates SIGKILL landing at every
// possible point of the final record's write: the journal is truncated at
// each byte offset of its last record (including the offset that keeps the
// record's bytes but loses the trailing newline — the shape that used to
// merge the next appended record onto the same line). Every truncation
// must open cleanly, keep all fully-written earlier records restorable
// with byte-identical payloads, and accept a fresh append that survives a
// further reopen.
func TestJournalTornTailEveryOffset(t *testing.T) {
	type payload struct {
		Label string `json:"label"`
		N     int    `json:"n"`
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "base.journal")
	j, err := harness.NewJournal(base)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]payload{
		"u0": {Label: "redis/Tvarak", N: 10},
		"u1": {Label: "ctree/Baseline", N: 11},
		"u2": {Label: "stream/Vilamb", N: 12},
	}
	for _, fp := range []string{"u0", "u1", "u2"} {
		if err := j.Record("soak-unit", fp, want[fp]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 { // header record + 3 unit records
		t.Fatalf("journal has %d lines, want 4", len(lines))
	}
	lastLine := lines[3]
	start := len(data) - len(lastLine) // offset where the final record begins

	lookup := func(j *harness.Journal, fp string, out *payload) bool {
		data := j.LookupRaw("soak-unit", fp)
		return data != nil && json.Unmarshal(data, out) == nil
	}
	expectPayload := func(t *testing.T, j *harness.Journal, fp string) {
		t.Helper()
		var got payload
		if !lookup(j, fp, &got) {
			t.Fatalf("record %s not restorable", fp)
		}
		if got != want[fp] {
			t.Fatalf("record %s restored as %+v, want %+v", fp, got, want[fp])
		}
	}

	for off := start; off <= len(data); off++ {
		t.Run(fmt.Sprintf("offset-%d", off), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("torn-%d.journal", off))
			if err := os.WriteFile(path, data[:off], 0o644); err != nil {
				t.Fatal(err)
			}
			j2, err := harness.OpenJournal(path)
			if err != nil {
				t.Fatalf("open after truncation at %d: %v", off, err)
			}
			expectPayload(t, j2, "u0")
			expectPayload(t, j2, "u1")
			// The final record survives exactly when all its bytes (sans
			// the newline) made it to disk.
			wantLast := off >= start+len(lastLine)-1
			var scratch payload
			if got := lookup(j2, "u2", &scratch); got != wantLast {
				t.Fatalf("final record restorable = %v at offset %d, want %v", got, off, wantLast)
			}
			if err := j2.Record("soak-unit", "fresh", payload{Label: "appended", N: off}); err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			// The append must start on a fresh line regardless of how the
			// tail was torn: a reopen restores every surviving record AND
			// the appended one (the failure mode this test pins down is the
			// appended record merging into an unterminated final line,
			// corrupting both).
			j3, err := harness.OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j3.Close()
			expectPayload(t, j3, "u0")
			expectPayload(t, j3, "u1")
			if wantLast {
				expectPayload(t, j3, "u2")
			}
			var fresh payload
			if !lookup(j3, "fresh", &fresh) || fresh.N != off {
				t.Fatalf("appended record lost after reopen (got %+v)", fresh)
			}
		})
	}
}

// panickingWorkload panics during Setup, exercising harness-level panic
// containment (engine-level containment is tested in internal/sim).
type panickingWorkload struct{ name string }

func (w *panickingWorkload) Name() string                              { return w.name }
func (w *panickingWorkload) Setup(*harness.System) error               { panic("setup exploded") }
func (w *panickingWorkload) Workers(*harness.System) []func(*sim.Core) { return nil }

func TestRunnerDegradeContainsPanicsWithStacks(t *testing.T) {
	cells := toyCells(4)
	cells[1].Make = func() harness.Workload { return &panickingWorkload{name: "boom"} }
	tab, err := harness.Runner{Workers: 2, Degrade: true}.RunTable("degraded", cells)
	if err != nil {
		t.Fatal(err)
	}
	man := tab.Manifest
	if len(man.Failures) != 1 || man.Failures[0].Index != 1 {
		t.Fatalf("manifest failures = %+v, want exactly cell 1", man.Failures)
	}
	f := man.Failures[0]
	if !strings.Contains(f.Err, "setup exploded") {
		t.Errorf("failure error = %q, want the panic value", f.Err)
	}
	if !strings.Contains(f.Stack, "journal_test") {
		t.Errorf("failure stack does not point at the panicking workload")
	}
	if man.Completed != 3 {
		t.Errorf("Completed = %d, want 3 (siblings must not be aborted)", man.Completed)
	}
	// The table renders the hole explicitly and skips it everywhere else.
	if len(tab.Results) != 4 {
		t.Fatalf("table has %d rows, want 4", len(tab.Results))
	}
	if !tab.Results[1].Failed() {
		t.Error("cell 1's row is not a failure placeholder")
	}
	if !strings.Contains(tab.String(), "FAILED:") {
		t.Errorf("table does not render the hole:\n%s", tab)
	}
	if got := len(tab.ExportRuns("exp")); got != 3 {
		t.Errorf("export has %d runs, want 3 (failures are excluded)", got)
	}
}

// engineOnlyPanic panics inside the measured run (on a simulated core), so
// containment crosses the engine: siblings on other cores must unwind.
type engineOnlyPanic struct{ name string }

func (w *engineOnlyPanic) Name() string                { return w.name }
func (w *engineOnlyPanic) Setup(*harness.System) error { return nil }
func (w *engineOnlyPanic) Workers(*harness.System) []func(*sim.Core) {
	return []func(*sim.Core){func(c *sim.Core) {
		c.Compute(100)
		panic("worker exploded")
	}}
}

func TestRunnerDegradeContainsEnginePanics(t *testing.T) {
	cells := toyCells(3)
	cells[2].Make = func() harness.Workload { return &engineOnlyPanic{name: "boom"} }
	tab, err := harness.Runner{Workers: 1, Degrade: true}.RunTable("engine-panic", cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Manifest.Failures) != 1 || !strings.Contains(tab.Manifest.Failures[0].Err, "worker exploded") {
		t.Fatalf("manifest = %+v, want cell 2's contained worker panic", tab.Manifest)
	}
	if tab.Manifest.Completed != 2 {
		t.Errorf("Completed = %d, want 2", tab.Manifest.Completed)
	}
}

// spinningWorkload never finishes its measured run; only the per-cell
// deadline can stop it (cooperatively, at a phase boundary).
type spinningWorkload struct{ name string }

func (w *spinningWorkload) Name() string                { return w.name }
func (w *spinningWorkload) Setup(*harness.System) error { return nil }
func (w *spinningWorkload) Workers(*harness.System) []func(*sim.Core) {
	return []func(*sim.Core){func(c *sim.Core) {
		for {
			c.Compute(1000)
		}
	}}
}

func TestRunnerWatchdogMarksHungCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := harness.NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cells := toyCells(3)
	cells[1].Make = func() harness.Workload { return &spinningWorkload{name: "spin"} }
	rn := harness.Runner{
		Workers: 1, Degrade: true, Journal: j,
		CellTimeout: 100 * time.Millisecond,
	}
	tab, err := runScoped(rn, "hang", "hang", cells)
	if err != nil {
		t.Fatal(err)
	}
	man := tab.Manifest
	if len(man.Failures) != 1 || man.Failures[0].Index != 1 {
		t.Fatalf("manifest failures = %+v, want exactly cell 1", man.Failures)
	}
	f := man.Failures[0]
	if !f.Hung {
		t.Error("deadline-exceeding cell not marked hung")
	}
	if man.Completed != 2 {
		t.Errorf("Completed = %d, want 2 (siblings keep running)", man.Completed)
	}
	// The goroutine dump landed in the journal for post-mortem debugging.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"kind":"hang"`)) || !bytes.Contains(data, []byte("goroutine")) {
		t.Error("journal is missing the hang record with goroutine stacks")
	}
}

// cancellingPlan's unit 0 cancels the run and still returns a payload —
// the shape of a fault unit whose setup failed on the cancelled engine
// and came back with a report blaming the design.
type cancellingPlan struct{ cancel context.CancelFunc }

func (p cancellingPlan) Scope() string            { return "cancelling" }
func (p cancellingPlan) Kind() string             { return "toy" }
func (p cancellingPlan) Units() int               { return 2 }
func (p cancellingPlan) Fingerprint(i int) string { return fmt.Sprintf("toy-%d", i) }
func (p cancellingPlan) Label(i int) string       { return fmt.Sprintf("toy%d", i) }
func (p cancellingPlan) RunUnit(_ context.Context, i int, _ *live.Telemetry) (json.RawMessage, error) {
	p.cancel()
	return json.RawMessage(`{"failure":"setup: cancelled"}`), nil
}
func (p cancellingPlan) Done(int, json.RawMessage) (harness.Summary, error) {
	return harness.Summary{}, nil
}

// TestRunnerDiscardsPayloadsAfterCancellation: a unit that returns after
// the run was cancelled may have observed the cancellation part way, so
// its payload is never journaled or returned; it re-runs on resume.
func TestRunnerDiscardsPayloadsAfterCancellation(t *testing.T) {
	j, err := harness.NewJournal(filepath.Join(t.TempDir(), "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	payloads, man, err := harness.Runner{Workers: 1, Context: ctx, Journal: j}.RunPlan(cancellingPlan{cancel})
	if err != nil {
		t.Fatal(err)
	}
	if payloads[0] != nil || man.Completed != 0 || len(man.Interrupted) != 1 || !man.Cancelled {
		t.Fatalf("payloads = %q, manifest = %+v, want unit 0 interrupted and nothing completed", payloads, man)
	}
	if n := j.Appended(); n != 1 {
		t.Errorf("journal appended %d records, want only the interrupted run's manifest", n)
	}
}
