// Command tvarak-soak is the continuous soak + chaos harness (DESIGN.md
// §11): from one master seed it deterministically samples an endless
// stream of (app × design × fault-plan) units — every design,
// Vilamb and the software schemes included — and runs each as an
// oracle-judged fault-campaign unit on the worker pool. Every
// -chaos-every units the supervisor re-execs itself as a worker child,
// SIGKILLs it mid-unit, resumes it from its journal, and asserts the
// resumed report is byte-identical to an uninterrupted reference run. The
// live ops bundle runs throughout, its resource ledger feeding the heap /
// goroutine / throughput-drift gates every -gate-every units. Each
// finished unit appends one fsync'd JSONL line to the soak ledger;
// tools/soakcheck turns that ledger into a pass/fail verdict.
//
// Usage:
//
//	tvarak-soak -seed 1 -duration 24h                # overnight soak
//	tvarak-soak -seed 1 -units 16 -budget 90s        # bounded CI soak
//	tvarak-soak -seed 1 -units 200 -chaos-every 10 -ledger soak.jsonl
//
// A bounded same-seed run reproduces the ledger's canonical projection
// byte-for-byte (`soakcheck -canon`), which is CI's reproducibility gate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/param"
	"tvarak/internal/soak"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "master soak seed; the whole unit stream derives from it")
		units      = flag.Int("units", 0, "stop after this many units (0 = unbounded; needs -duration or -budget)")
		duration   = flag.Duration("duration", 0, "stop cleanly after this wall-clock time (0 = none)")
		budget     = flag.Duration("budget", 0, "CI mode: hard wall-clock cap plus bounded defaults (-units 16 unless set)")
		chaosEvery = flag.Int("chaos-every", 8, "SIGKILL/resume every Nth unit through a worker child (0 disables)")
		killAfter  = flag.Duration("kill-after", 30*time.Millisecond, "delay between the worker's start marker and its SIGKILL")
		gateEvery  = flag.Int("gate-every", 16, "run the resource gates every N units (0 disables)")
		parallel   = flag.Int("parallel", 0, "concurrent units (0 = one per CPU)")
		designs    = flag.String("designs", "", "restrict the sampled design rotation (comma-separated; empty = all designs)")
		asyncFlags = param.RegisterAsyncFlags(flag.CommandLine)
		pinAsync   = flag.Bool("pin-async", false, "pin every vilamb unit to the -epoch/-dirty-gran/-battery/-incremental config instead of rotating the async axes")
		ledger     = flag.String("ledger", "soak.jsonl", "append one fsync'd JSONL line per unit to this soak ledger")
		workdir    = flag.String("workdir", "", "scratch dir for chaos journals/reports (default: a temp dir, removed on success)")
		journal    = flag.String("journal", "", "checkpoint finished units durably to this journal; resume with -resume")
		resume     = flag.Bool("resume", false, "reopen -journal and restore already-finished units")
		failFast   = flag.Bool("fail-fast", true, "stop at the first problem (disable for evidence-gathering runs)")
		opsCfg     = live.RegisterOpsFlags(flag.CommandLine)

		chaosWorker = flag.Bool("chaos-worker", false, "internal: run as a chaos worker child (args: master index journal out resume)")
	)
	flag.Lookup("ops-ledger").Usage += "; the resource gates analyze it (default: <workdir>/ops.jsonl)"
	flag.Parse()

	if *chaosWorker {
		runWorker(flag.Args())
		return
	}

	// Budget mode: a hard wall-clock cap with CI-shaped defaults — small
	// bounded stream, frequent chaos and gates — so one flag gives CI a
	// deterministic sub-budget soak.
	if *budget > 0 {
		if *units == 0 {
			*units = 16
		}
		if *duration == 0 || *duration > *budget {
			*duration = *budget
		}
		if !flagSet("chaos-every") {
			*chaosEvery = 4
		}
		if !flagSet("gate-every") {
			*gateEvery = 8
		}
	}
	if *units <= 0 && *duration <= 0 {
		fatal(errors.New("need a bound: -units, -duration or -budget"))
	}

	dir := *workdir
	cleanup := func() {}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "tvarak-soak-*")
		if err != nil {
			fatal(err)
		}
		dir = tmp
		// Kept on failure so the chaos journals/reports stay inspectable.
		cleanup = func() { os.RemoveAll(tmp) }
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}

	if opsCfg.LedgerPath == "" {
		opsCfg.LedgerPath = dir + "/ops.jsonl"
	}
	lt := live.NewTelemetry()
	ops, err := opsCfg.Start("tvarak-soak", lt)
	if err != nil {
		fatal(err)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := soak.Config{
		Seed:          *seed,
		Units:         *units,
		Duration:      *duration,
		Parallel:      *parallel,
		ChaosEvery:    *chaosEvery,
		KillAfter:     *killAfter,
		WorkerCmd:     workerCmd(),
		WorkDir:       dir,
		GateEvery:     *gateEvery,
		OpsLedgerPath: opsCfg.LedgerPath,
		Sample:        ops.Sample,
		LedgerPath:    *ledger,
		Live:          lt,
		Context:       ctx,
		FailFast:      *failFast,
		Progress:      printProgress,
	}
	if cfg.Designs, err = param.ParseDesigns(*designs); err != nil {
		fatal(err)
	}
	if *pinAsync {
		a, err := asyncFlags.Config()
		if err != nil {
			fatal(err)
		}
		cfg.Async = &a
	} else if *asyncFlags != (param.AsyncFlags{}) {
		fatal(errors.New("-epoch/-dirty-gran/-battery/-incremental pin the async axis; add -pin-async to confirm"))
	}
	if *resume && *journal == "" {
		fatal(errors.New("-resume requires -journal"))
	}
	if *journal != "" {
		j, err := openJournal(*journal, *resume)
		if err != nil {
			fatal(err)
		}
		defer j.Close()
		cfg.Journal = j
	}

	fmt.Printf("soak: seed=%d units=%s duration=%s chaos-every=%d gate-every=%d\n",
		*seed, boundStr(*units), boundDur(*duration), *chaosEvery, *gateEvery)
	sum, runErr := soak.Run(cfg)

	if cerr := ops.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "tvarak-soak: closing ops:", cerr)
	}
	if sum != nil {
		fmt.Printf("soak: %d units (%d chaos, %d killed, %d resumed), %d identity mismatches, %d undetected, %d unrecovered, %d failures, %d gate checks, %d problems\n",
			sum.Units, sum.Chaos, sum.Killed, sum.Resumed, sum.IdentityMismatches,
			sum.Undetected, sum.Unrecovered, sum.Failures, sum.GateChecks, len(sum.Problems))
		for _, p := range sum.Problems {
			fmt.Fprintln(os.Stderr, "tvarak-soak: PROBLEM:", p)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tvarak-soak:", runErr)
		fmt.Fprintf(os.Stderr, "tvarak-soak: chaos artifacts kept in %s\n", dir)
		if errors.Is(runErr, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	cleanup()
}

// runWorker is the -chaos-worker dispatch: the supervisor re-execs this
// same binary with the chaos-protocol positionals and watches stdout for
// the soak markers.
func runWorker(args []string) {
	if len(args) != 7 {
		fatal(fmt.Errorf("-chaos-worker wants 7 args (master index journal out resume designs async), got %d", len(args)))
	}
	master, err1 := strconv.ParseInt(args[0], 10, 64)
	index, err2 := strconv.Atoi(args[1])
	resume, err3 := strconv.ParseBool(args[4])
	opts, err4 := soak.ParseSamplerArgs(args[5], args[6])
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		fatal(fmt.Errorf("-chaos-worker: bad args %q", args))
	}
	if err := soak.RunWorker(os.Stdout, master, index, args[2], args[3], resume, opts); err != nil {
		fatal(err)
	}
}

func openJournal(path string, resume bool) (*harness.Journal, error) {
	if !resume {
		return harness.NewJournal(path)
	}
	j, err := harness.OpenJournal(path)
	if err == nil {
		fmt.Fprintf(os.Stderr, "tvarak-soak: resuming from %s: %d record(s) restorable\n",
			path, j.Restored())
	}
	return j, err
}

func workerCmd() []string {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	return []string{exe, "-chaos-worker"}
}

func printProgress(l soak.LedgerLine) {
	status := "ok"
	switch {
	case l.Failure != "":
		status = "FAIL: " + l.Failure
	case l.IdentityOK != nil && !*l.IdentityOK:
		status = "IDENTITY MISMATCH"
	}
	extra := ""
	if l.Chaos {
		extra = " chaos"
		if l.Killed {
			extra += "+kill"
		}
		if l.Resumed {
			extra += "+resume"
		}
	}
	if len(l.GateFindings) > 0 {
		status = fmt.Sprintf("GATE: %v", l.GateFindings)
	} else if l.GateFindings != nil {
		extra += " gate-ok"
	}
	fmt.Printf("  [%4d] %-28s armed=%-3d detected=%-3d recovered=%-3d %dms%s %s\n",
		l.Index, l.App+"/"+l.Design, l.Armed, l.Detected, l.Recovered, l.WallMS, extra, status)
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func boundStr(n int) string {
	if n <= 0 {
		return "∞"
	}
	return strconv.Itoa(n)
}

func boundDur(d time.Duration) string {
	if d <= 0 {
		return "∞"
	}
	return d.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tvarak-soak:", err)
	os.Exit(1)
}
