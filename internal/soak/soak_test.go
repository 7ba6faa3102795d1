package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tvarak/internal/harness"
	"tvarak/internal/live"
)

// TestSoakWorkerHelper is not a test: it is the chaos worker child the
// end-to-end tests re-exec their own test binary into (the classic
// helper-process pattern). Guarded by an env var so a plain `go test`
// skips it.
func TestSoakWorkerHelper(t *testing.T) {
	if os.Getenv("TVARAK_SOAK_WORKER") != "1" {
		t.Skip("soak chaos worker helper (enabled via TVARAK_SOAK_WORKER=1)")
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	if len(args) != 7 {
		fmt.Fprintf(os.Stderr, "helper: want 7 args (master index journal out resume designs async), got %d\n", len(args))
		os.Exit(2)
	}
	master, err1 := strconv.ParseInt(args[0], 10, 64)
	index, err2 := strconv.Atoi(args[1])
	resume, err3 := strconv.ParseBool(args[4])
	opts, err4 := ParseSamplerArgs(args[5], args[6])
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		fmt.Fprintln(os.Stderr, "helper: bad args:", args)
		os.Exit(2)
	}
	if err := RunWorker(os.Stdout, master, index, args[2], args[3], resume, opts); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// workerCmd re-execs this test binary into the helper above.
func workerCmd(t *testing.T) []string {
	t.Setenv("TVARAK_SOAK_WORKER", "1")
	return []string{os.Args[0], "-test.run=TestSoakWorkerHelper", "--"}
}

// writeOpsLedger fabricates a resource ledger with the given goroutine
// trajectory (flat heap and throughput), for deterministic gate verdicts.
func writeOpsLedger(t *testing.T, path string, goroutines []int) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, g := range goroutines {
		if err := enc.Encode(live.ResourceSample{
			UnixMS: int64(1000 * i), HeapAlloc: 1 << 20, Goroutines: g, AccessesPerSec: 100,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readLedgerFile(t *testing.T, path string) []LedgerLine {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, err := ReadLedger(f)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSoakEndToEnd drives the full loop: 6 units, chaos on every 3rd
// (SIGKILL/resume byte-identity through a real child process), a clean
// resource gate at unit 4, and a same-seed rerun whose canonical ledger
// projection must be byte-identical.
func TestSoakEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	ops := filepath.Join(dir, "ops.jsonl")
	writeOpsLedger(t, ops, []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10})

	cfg := Config{
		Seed:          42,
		Units:         6,
		Parallel:      2,
		ChaosEvery:    3,
		KillAfter:     20 * time.Millisecond,
		WorkerCmd:     workerCmd(t),
		WorkDir:       dir,
		GateEvery:     4,
		OpsLedgerPath: ops,
		LedgerPath:    filepath.Join(dir, "soak.jsonl"),
	}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v (summary %+v)", err, sum)
	}
	if sum.Units != 6 || sum.Chaos != 2 || sum.IdentityMismatches != 0 || len(sum.Problems) != 0 {
		t.Fatalf("bad summary: %+v", sum)
	}
	if sum.GateChecks != 1 {
		t.Fatalf("gate ran %d times, want 1: %+v", sum.GateChecks, sum)
	}

	lines := readLedgerFile(t, cfg.LedgerPath)
	if len(lines) != 6 {
		t.Fatalf("ledger has %d lines, want 6", len(lines))
	}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("line %d carries index %d — ledger not in stream order", i, l.Index)
		}
		wantChaos := (i+1)%3 == 0
		if l.Chaos != wantChaos {
			t.Fatalf("line %d: chaos=%v, want %v", i, l.Chaos, wantChaos)
		}
		if wantChaos && (l.IdentityOK == nil || !*l.IdentityOK) {
			t.Fatalf("line %d: resumed chaos report not byte-identical", i)
		}
		if u := UnitAt(cfg.Seed, i); l.Key != u.Fingerprint(cfg.Seed) || l.App != u.App {
			t.Fatalf("line %d does not match the sampled unit", i)
		}
	}
	if gf := lines[3].GateFindings; gf == nil || len(gf) != 0 {
		t.Fatalf("line 3 gate verdict = %v, want clean check (empty list)", lines[3].GateFindings)
	}
	if problems := Check(lines); len(problems) != 0 {
		t.Fatalf("soakcheck verdict on a clean run: %v", problems)
	}

	// Same-seed rerun: the canonical projections must match byte-for-byte
	// even though kill timing and wall clocks differ.
	cfg2 := cfg
	cfg2.LedgerPath = filepath.Join(dir, "soak2.jsonl")
	if _, err := Run(cfg2); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	lines2 := readLedgerFile(t, cfg2.LedgerPath)
	if len(lines2) != len(lines) {
		t.Fatalf("rerun produced %d lines, want %d", len(lines2), len(lines))
	}
	for i := range lines {
		a, _ := json.Marshal(lines[i].Canonical())
		b, _ := json.Marshal(lines2[i].Canonical())
		if !bytes.Equal(a, b) {
			t.Fatalf("canonical line %d differs across same-seed runs:\n run1 %s\n run2 %s", i, a, b)
		}
	}
}

// TestWorkerJournalRestore exercises the chaos resume leg's restore path
// in-process: when the first leg journaled the finished unit before dying,
// the resume leg restores it (RestoredMarker) and emits identical bytes.
func TestWorkerJournalRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "w.journal")
	out := filepath.Join(dir, "w.json")

	var leg1, leg2 bytes.Buffer
	if err := RunWorker(&leg1, 42, 0, jpath, out, false, SamplerOptions{}); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(out); err != nil {
		t.Fatal(err)
	}
	if err := RunWorker(&leg2, 42, 0, jpath, out, true, SamplerOptions{}); err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(leg1.String(), RestoredMarker) {
		t.Fatal("fresh leg claims it restored from a journal")
	}
	if !strings.Contains(leg2.String(), RestoredMarker) {
		t.Fatal("resume leg re-ran instead of restoring the journaled unit")
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("restored report differs from the original:\n %s\n %s", b1, b2)
	}
}

// TestSoakSupervisorResume: a supervisor journal carrying already-finished
// units restores them (Resumed) with deterministic outcomes intact.
func TestSoakSupervisorResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "soak.journal")

	run := func(journalNew bool, ledger string) []LedgerLine {
		var err error
		cfg := Config{
			Seed:       7,
			Units:      3,
			Parallel:   2,
			LedgerPath: filepath.Join(dir, ledger),
		}
		if journalNew {
			cfg.Journal, err = harness.NewJournal(jpath)
		} else {
			cfg.Journal, err = harness.OpenJournal(jpath)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer cfg.Journal.Close()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return readLedgerFile(t, cfg.LedgerPath)
	}

	first := run(true, "a.jsonl")
	second := run(false, "b.jsonl")
	for i := range second {
		if !second[i].Resumed {
			t.Errorf("line %d not restored from the supervisor journal", i)
		}
		a, _ := json.Marshal(first[i].Canonical())
		b, _ := json.Marshal(second[i].Canonical())
		if !bytes.Equal(a, b) {
			t.Errorf("restored line %d diverges from the original:\n %s\n %s", i, a, b)
		}
	}
}

// TestSoakGateFailure: a leaking ops ledger turns into a gate finding on
// the ledger line and a failing verdict.
func TestSoakGateFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	ops := filepath.Join(dir, "ops.jsonl")
	writeOpsLedger(t, ops, []int{8, 9, 11, 40, 80, 200, 400, 900}) // runaway goroutines

	cfg := Config{
		Seed:          11,
		Units:         4,
		Parallel:      2,
		GateEvery:     2,
		OpsLedgerPath: ops,
		LedgerPath:    filepath.Join(dir, "soak.jsonl"),
	}
	sum, err := Run(cfg)
	if !errors.Is(err, ErrProblems) {
		t.Fatalf("Run err = %v, want ErrProblems", err)
	}
	if sum == nil || len(sum.Problems) == 0 {
		t.Fatalf("no problems reported: %+v", sum)
	}
	lines := readLedgerFile(t, cfg.LedgerPath)
	var flagged bool
	for _, l := range lines {
		if len(l.GateFindings) > 0 {
			flagged = true
		}
	}
	if !flagged {
		t.Fatal("no ledger line carries the gate finding")
	}
	if problems := Check(lines); len(problems) == 0 {
		t.Fatal("soakcheck verdict missed the gate failure")
	}
}

// TestSoakGateSamplesAtQuiescence: the goroutine gate judges a sample the
// supervisor takes after the batch, not whichever periodic sample landed
// last. The ledger's last periodic sample here was taken mid-batch (11
// goroutines against an idle first sample of 1, past the slack of 8); the
// quiescent one the gate takes shows 2 and passes.
func TestSoakGateSamplesAtQuiescence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, quiesce := range []bool{false, true} {
		dir := t.TempDir()
		ops := filepath.Join(dir, "ops.jsonl")
		writeOpsLedger(t, ops, []int{1, 11})
		cfg := Config{
			Seed:          11,
			Units:         2,
			Parallel:      2,
			GateEvery:     2,
			OpsLedgerPath: ops,
			LedgerPath:    filepath.Join(dir, "soak.jsonl"),
		}
		if quiesce {
			cfg.Sample = func() {
				f, err := os.OpenFile(ops, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if err := json.NewEncoder(f).Encode(live.ResourceSample{UnixMS: 2000, HeapAlloc: 1 << 20, Goroutines: 2}); err != nil {
					t.Fatal(err)
				}
			}
		}
		_, err := Run(cfg)
		if quiesce != (err == nil) {
			t.Errorf("quiescent sample %t: Run err = %v", quiesce, err)
		}
		lines := readLedgerFile(t, cfg.LedgerPath)
		if got := lines[len(lines)-1].GateFindings; quiesce != (len(got) == 0) {
			t.Errorf("quiescent sample %t: gate findings %v", quiesce, got)
		}
	}
}

// TestSoakDurationBound: with no unit bound, the deadline stops the run
// cleanly and the ledger is a contiguous prefix of the stream.
func TestSoakDurationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cfg := Config{
		Seed:       3,
		Duration:   400 * time.Millisecond,
		Parallel:   2,
		LedgerPath: filepath.Join(dir, "soak.jsonl"),
	}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatalf("duration-bounded run: %v", err)
	}
	lines := readLedgerFile(t, cfg.LedgerPath)
	if len(lines) != sum.Units {
		t.Fatalf("summary says %d units, ledger has %d", sum.Units, len(lines))
	}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("ledger is not a contiguous prefix: line %d has index %d", i, l.Index)
		}
	}
}

// TestSoakCancellation: user cancellation is an error, not a clean stop.
func TestSoakCancellation(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{
		Seed:       5,
		Units:      8,
		Context:    ctx,
		LedgerPath: filepath.Join(dir, "soak.jsonl"),
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

func TestSoakConfigValidation(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Units: 1}); err == nil {
		t.Error("missing LedgerPath accepted")
	}
	if _, err := Run(Config{Seed: 1, LedgerPath: "x.jsonl"}); err == nil {
		t.Error("unbounded run accepted")
	}
	if _, err := Run(Config{Seed: 1, Units: 1, LedgerPath: "x.jsonl", ChaosEvery: 1}); err == nil {
		t.Error("chaos without WorkerCmd/WorkDir accepted")
	}
}
