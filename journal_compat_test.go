// Journals are a durable format: a run interrupted under one build must
// resume under the next. testdata/journals holds three journals written by
// the build before sweeps, campaigns and soak units shared one runner
// loop, so their record kinds ("cell", "unit", "soak-unit"), fingerprints
// and header scopes are locked:
//
//	tvarak-sim -exp fig8-stream -scale 0.02 -journal fig8-stream.journal
//	tvarak-fault -campaign -seed 7 -n 14 -journal campaign.journal
//	tvarak-soak -seed 3 -units 4 -chaos-every 0 -gate-every 0 -journal soak.journal
//
// Each must restore every unit, simulating none, to output identical to a
// clean run; a torn copy (the final record cut mid-line, as a crash leaves
// it) must restore all but that unit to the same output.
package tvarak_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tvarak"
	"tvarak/internal/experiments"
	"tvarak/internal/fault"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/obs"
	"tvarak/internal/soak"
)

// olderJournal opens a private copy of testdata/journals/name under scope,
// torn when asked: the last record is cut in half.
func olderJournal(t *testing.T, name, scope string, torn bool) *harness.Journal {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "journals", name))
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		body := bytes.TrimRight(data, "\n")
		last := bytes.LastIndexByte(body, '\n') + 1
		data = body[:last+(len(body)-last)/2]
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := harness.OpenJournalScope(path, scope)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	if j.Scope() != scope {
		t.Fatalf("journal scope = %q, want %q", j.Scope(), scope)
	}
	return j
}

// checkRestored asserts that a resumed run restored every unit (all but
// one when torn) and simulated only the rest.
func checkRestored(t *testing.T, lt *live.Telemetry, total, restored int, torn bool) {
	t.Helper()
	want := total
	if torn {
		want--
	}
	if restored != want || lt.Runner.Restored.Value() != uint64(want) {
		t.Errorf("restored %d (counter %d) of %d units, want %d", restored, lt.Runner.Restored.Value(), total, want)
	}
	if got := lt.Runner.Started.Value(); got != uint64(total-want) {
		t.Errorf("simulated %d units, want %d", got, total-want)
	}
}

func TestOlderJournalsResume(t *testing.T) {
	for _, torn := range []bool{false, true} {
		name := "complete"
		if torn {
			name = "torn"
		}
		t.Run(name, func(t *testing.T) {
			t.Run("sweep", func(t *testing.T) { resumeOlderSweep(t, torn) })
			t.Run("campaign", func(t *testing.T) { resumeOlderCampaign(t, torn) })
			t.Run("soak", func(t *testing.T) { resumeOlderSoak(t, torn) })
		})
	}
}

func resumeOlderSweep(t *testing.T, torn bool) {
	e, err := tvarak.LookupExperiment("fig8-stream")
	if err != nil {
		t.Fatal(err)
	}
	render := func(o experiments.Options) (*harness.Table, string) {
		tab, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		x := obs.NewExport("test")
		x.Runs = tab.ExportRuns(e.ID)
		var buf bytes.Buffer
		if err := x.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return tab, tab.String() + buf.String()
	}
	opts := experiments.Options{Scale: 0.02, Parallel: 2}
	_, clean := render(opts)

	lt := live.NewTelemetry()
	opts.Journal = olderJournal(t, "fig8-stream.journal", "tvarak-sim|exp=fig8-stream|scale=0.02|full=false|designs=", torn)
	opts.Live = lt
	tab, got := render(opts)
	checkRestored(t, lt, tab.Manifest.Total, tab.Manifest.FromJournal, torn)
	if got != clean {
		t.Errorf("resumed sweep differs from a clean run:\n--- resumed ---\n%s--- clean ---\n%s", got, clean)
	}
}

func resumeOlderCampaign(t *testing.T, torn bool) {
	render := func(opt fault.Options) (*fault.Report, []byte) {
		rep, err := fault.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fault.WriteJSONL(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return rep, buf.Bytes()
	}
	opt := fault.Options{Seed: 7, N: 14, Workers: 2, Shrink: true}
	_, clean := render(opt)

	lt := live.NewTelemetry()
	opt.Journal = olderJournal(t, "campaign.journal", opt.Scope(), torn)
	opt.Live = lt
	rep, got := render(opt)
	checkRestored(t, lt, len(rep.Units), rep.Resumed, torn)
	if !bytes.Equal(got, clean) {
		t.Errorf("resumed campaign report differs from a clean run:\n--- resumed ---\n%s--- clean ---\n%s", got, clean)
	}
}

func resumeOlderSoak(t *testing.T, torn bool) {
	dir := t.TempDir()
	render := func(cfg soak.Config) (*soak.Summary, []byte) {
		sum, err := soak.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(cfg.LedgerPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		lines, err := soak.ReadLedger(f)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, l := range lines {
			b, _ := json.Marshal(l.Canonical())
			buf.Write(append(b, '\n'))
		}
		return sum, buf.Bytes()
	}
	cfg := soak.Config{Seed: 3, Units: 4, Parallel: 2, LedgerPath: filepath.Join(dir, "clean.jsonl")}
	_, clean := render(cfg)

	lt := live.NewTelemetry()
	cfg.LedgerPath = filepath.Join(dir, "resumed.jsonl")
	cfg.Journal = olderJournal(t, "soak.journal", "", torn)
	cfg.Live = lt
	sum, got := render(cfg)
	checkRestored(t, lt, sum.Units, sum.Resumed, torn)
	if !bytes.Equal(got, clean) {
		t.Errorf("resumed soak ledger differs from a clean run:\n--- resumed ---\n%s--- clean ---\n%s", got, clean)
	}
}
