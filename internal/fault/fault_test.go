package fault

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tvarak/internal/harness"
	"tvarak/internal/param"
)

func TestPlanDeterminism(t *testing.T) {
	a := NewPlan("redis", 42, 20)
	b := NewPlan("redis", 42, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := NewPlan("redis", 43, 20)
	if reflect.DeepEqual(a.Rounds, c.Rounds) {
		t.Fatal("different seeds produced identical rounds")
	}
	if got := a.Injections(); got != 20 {
		t.Fatalf("Injections() = %d, want 20", got)
	}
	// Kind stratification: every full window of four specs (pre-shuffle,
	// so count per round) covers all four kinds.
	for ri, r := range a.Rounds {
		if len(r.Specs) != specsPerRound && ri != len(a.Rounds)-1 {
			t.Fatalf("round %d has %d specs", ri, len(r.Specs))
		}
		seen := map[Kind]int{}
		for _, s := range r.Specs {
			seen[s.Kind]++
		}
		if len(r.Specs) == specsPerRound && len(seen) != int(numKinds) {
			t.Fatalf("round %d covers only %d kinds", ri, len(seen))
		}
	}
}

func TestWithSpecsPreservesRounds(t *testing.T) {
	p := NewPlan("fio", 7, 12)
	keep := map[int]bool{1: true, 9: true}
	q := p.withSpecs(keep)
	if len(q.Rounds) != len(p.Rounds) {
		t.Fatalf("round count changed: %d != %d", len(q.Rounds), len(p.Rounds))
	}
	for i := range q.Rounds {
		if q.Rounds[i].OpsSeed != p.Rounds[i].OpsSeed || q.Rounds[i].Crash != p.Rounds[i].Crash {
			t.Fatalf("round %d schedule changed", i)
		}
	}
	if got := q.Injections(); got != 2 {
		t.Fatalf("kept %d specs, want 2", got)
	}
	if !reflect.DeepEqual(q.Rounds[0].Specs[0], p.Rounds[0].Specs[1]) {
		t.Fatal("kept the wrong spec")
	}
}

func TestDdminMinimizes(t *testing.T) {
	// Failure requires {3, 7} together; everything else is noise.
	fails := func(keep map[int]bool) (bool, bool) { return keep[3] && keep[7], true }
	keep, runs := ddmin(16, 200, fails)
	if !reflect.DeepEqual(keep, map[int]bool{3: true, 7: true}) {
		t.Fatalf("ddmin kept %v, want {3,7} (%d runs)", sortedIdxs(keep), runs)
	}
	// A failure independent of the specs shrinks to nothing.
	keep, _ = ddmin(8, 200, func(map[int]bool) (bool, bool) { return true, true })
	if len(keep) != 0 {
		t.Fatalf("unconditional failure kept %v", sortedIdxs(keep))
	}
}

func TestDdminRespectsBudget(t *testing.T) {
	calls := 0
	_, runs := ddmin(64, 5, func(keep map[int]bool) (bool, bool) { calls++; return keep[0], true })
	if calls != runs || runs > 5 {
		t.Fatalf("runs=%d calls=%d, budget was 5", runs, calls)
	}
}

func TestDdminStopsWhenTrialDoesNotRun(t *testing.T) {
	// Two trials run and shrink the set; the third is cancelled. The
	// search stops there, keeps the best set so far and counts only the
	// trials that ran.
	calls := 0
	keep, runs := ddmin(16, 200, func(keep map[int]bool) (bool, bool) {
		calls++
		return keep[3] && keep[7], calls <= 2
	})
	if runs != 2 || calls != 3 {
		t.Fatalf("runs=%d calls=%d, want 2 runs of 3 calls", runs, calls)
	}
	if len(keep) >= 16 || !keep[3] || !keep[7] {
		t.Fatalf("kept %v: want a failing reduction of the 16 indices", sortedIdxs(keep))
	}
}

// TestCampaignContrast is the heart of the tentpole: one fixed-seed
// campaign over every application and both designs. Baseline must
// accumulate oracle-confirmed silent corruptions with zero detections;
// TVARAK must detect and recover every injected corruption with zero
// oracle findings. The same campaign rerun must serialize to identical
// bytes.
func TestCampaignContrast(t *testing.T) {
	run := func() (*Report, error) {
		return Run(Options{Seed: 20200530, N: 28, Workers: 4})
	}
	rep, err := run()
	if err != nil {
		for _, u := range rep.Units {
			if u.Failure != "" {
				t.Errorf("%s: %s", u.Label(), u.Failure)
			}
		}
		t.Fatalf("campaign failed: %v", err)
	}
	if len(rep.Units) != 2*len(AppNames()) {
		t.Fatalf("got %d units, want %d", len(rep.Units), 2*len(AppNames()))
	}
	var silent, tvarakDet, tvarakRec int
	for _, u := range rep.Units {
		switch u.Design {
		case param.Baseline.String():
			if u.Detections != 0 {
				t.Errorf("%s: baseline detected %d corruptions", u.Label(), u.Detections)
			}
			silent += u.SilentCorruptions
		case param.Tvarak.String():
			if u.Undetected != 0 || u.Unrecovered != 0 {
				t.Errorf("%s: undetected=%d unrecovered=%d", u.Label(), u.Undetected, u.Unrecovered)
			}
			tvarakDet += int(u.Detections)
			tvarakRec += int(u.Recoveries)
		}
	}
	if silent == 0 {
		t.Error("baseline missed no corruptions — the campaign armed nothing real")
	}
	if tvarakDet == 0 || tvarakRec == 0 {
		t.Errorf("tvarak detections=%d recoveries=%d, want both > 0", tvarakDet, tvarakRec)
	}
	if rep.CrashPoints == 0 {
		t.Error("no crash-recovery points exercised")
	}

	var b1, b2 bytes.Buffer
	if err := WriteJSONL(&b1, rep); err != nil {
		t.Fatal(err)
	}
	rep2, err := run()
	if err != nil {
		t.Fatalf("rerun failed: %v", err)
	}
	if err := WriteJSONL(&b2, rep2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same-seed reruns produced different report bytes")
	}
	for _, want := range []string{`"type":"campaign"`, `"type":"injection"`, `"type":"unit"`, `"type":"summary"`} {
		if !strings.Contains(b1.String(), want) {
			t.Errorf("report JSONL missing %s line", want)
		}
	}
}

// TestShrinkMinimizesFailingUnit drives the shrinker against real unit
// re-runs using the deterministic failure hook: a unit "fails" once two
// injections fire, so the minimal schedule is the smallest spec subset
// that still fires two.
func TestShrinkMinimizesFailingUnit(t *testing.T) {
	testFailMinFired = 2
	t.Cleanup(func() { testFailMinFired = 0 })

	app, err := lookupApp("fio")
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan("fio", 11, 8)
	full := runUnit(nil, app, param.Tvarak, plan, param.AsyncConfig{})
	if full.Failure == "" {
		t.Fatal("hook did not fail the full unit")
	}
	specs, runs := shrinkUnit(nil, app, param.Tvarak, plan, 64, param.AsyncConfig{})
	if runs == 0 || len(specs) == 0 {
		t.Fatalf("shrinker did not run (specs=%d runs=%d)", len(specs), runs)
	}
	if len(specs) >= plan.Injections() {
		t.Fatalf("shrinker removed nothing: %d of %d specs", len(specs), plan.Injections())
	}
	if len(specs) > 3 {
		t.Errorf("minimal schedule has %d specs, expected <= 3 for a 2-fire failure", len(specs))
	}
}

func TestCampaignRecordsAndShrinksFailures(t *testing.T) {
	testFailMinFired = 1
	t.Cleanup(func() { testFailMinFired = 0 })

	rep, err := Run(Options{Seed: 5, N: 4, Workers: 2, Apps: []string{"stream"},
		Designs: []param.Design{param.Tvarak}, Shrink: true, ShrinkBudget: 24})
	if err == nil {
		t.Fatal("expected campaign error for failing unit")
	}
	if rep.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", rep.Failures)
	}
	u := rep.Units[0]
	if u.Failure == "" || u.ShrinkRuns == 0 {
		t.Fatalf("failing unit not shrunk: failure=%q runs=%d", u.Failure, u.ShrinkRuns)
	}
	if len(u.MinimalSpecs) == 0 || len(u.MinimalSpecs) >= 4 {
		t.Fatalf("minimal schedule has %d specs", len(u.MinimalSpecs))
	}
}

// TestShrinkHonoursCancelledContext: a campaign cancelled before its
// failing units are shrunk must not spend re-runs on them. AssembleReport
// returns at once, each failing unit keeps its full schedule as the best
// found so far, and ShrinkRuns counts no re-runs.
func TestShrinkHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Seed: 5, N: 4, Apps: []string{"stream"}, Designs: []param.Design{param.Tvarak},
		Shrink: true, ShrinkBudget: 24, Context: ctx}
	units, err := CampaignUnits(opt)
	if err != nil {
		t.Fatal(err)
	}
	reports := []*UnitReport{{App: "stream", Design: param.Tvarak.String(), Failure: "injected"}}
	start := time.Now()
	rep, err := AssembleReport(opt, units, reports)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("AssembleReport took %v under a cancelled context", elapsed)
	}
	if err == nil {
		t.Fatal("expected the failing unit to be reported")
	}
	u := rep.Units[0]
	if u.ShrinkRuns != 0 {
		t.Fatalf("ShrinkRuns = %d under a cancelled context, want 0", u.ShrinkRuns)
	}
	p := units[0].Params
	if want := NewPlan(p.App, p.Seed, p.N).Injections(); len(u.MinimalSpecs) != want {
		t.Fatalf("kept %d specs, want the full schedule of %d", len(u.MinimalSpecs), want)
	}
}

func TestAppNames(t *testing.T) {
	names := AppNames()
	if len(names) != 7 {
		t.Fatalf("campaign covers %d apps, want the paper's 7", len(names))
	}
	if _, err := lookupApp("nope"); err == nil {
		t.Fatal("lookupApp accepted an unknown app")
	}
}

func TestCampaignJournalResumeByteIdentical(t *testing.T) {
	opt := Options{Seed: 7, N: 4, Workers: 2, Apps: []string{"stream", "fio"}}
	clean, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	var cleanBuf bytes.Buffer
	if err := WriteJSONL(&cleanBuf, clean); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.journal")
	j1, err := harness.NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = j1
	if _, err := Run(opt); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	// Resume with every unit journaled: nothing re-simulates, and the
	// report is byte-identical to the uninterrupted run's.
	j2, err := harness.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	opt.Journal = j2
	rep, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != len(rep.Units) {
		t.Fatalf("Resumed = %d, want all %d units", rep.Resumed, len(rep.Units))
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), cleanBuf.Bytes()) {
		t.Error("resumed campaign report is not byte-identical to the uninterrupted run's")
	}
}

func TestRunUnitInterruptedMidFlight(t *testing.T) {
	// A cancelled context reaches the unit's engine: the run unwinds at
	// the next phase boundary and the unit returns nil — no half-run
	// report that would blame the interruption's sweep noise on the
	// design, and nothing for the campaign to journal.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	app, err := lookupApp("stream")
	if err != nil {
		t.Fatal(err)
	}
	if rep := runUnit(ctx, app, param.Tvarak, NewPlan("stream", 3, 4), param.AsyncConfig{}); rep != nil {
		t.Fatalf("interrupted unit returned a report: %+v", rep)
	}
}

func TestCampaignCancellationLeavesPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no unit may start
	rep, err := Run(Options{Seed: 7, N: 2, Workers: 1, Apps: []string{"stream"}, Context: ctx})
	if err == nil {
		t.Fatal("expected an interruption error")
	}
	if rep.Interrupted != len(rep.Units) {
		t.Fatalf("Interrupted = %d, want all %d units", rep.Interrupted, len(rep.Units))
	}
	// A partial report must still serialize (nil unit slots skipped).
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"interrupted":2`)) {
		t.Errorf("partial report summary missing interruption accounting:\n%s", buf.String())
	}
}
