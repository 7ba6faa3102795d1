// Command tvarak-sim runs the paper's experiments and prints Fig. 8-style
// tables. Each experiment id maps to one table or figure (see DESIGN.md §3
// and `tvarak-sim -list`).
//
// Usage:
//
//	tvarak-sim -list
//	tvarak-sim -exp fig8-redis
//	tvarak-sim -exp all -scale 0.25
//	tvarak-sim -exp all -parallel 8 -progress
//	tvarak-sim -exp all -journal run.journal        # ^C stops at the next phase boundary
//	tvarak-sim -exp all -journal run.journal -resume
//	tvarak-sim -exp all -keep-going -cell-timeout 10m
//	tvarak-sim -exp fig8-stream -metrics-out run.json -sample-every 100000
//	tvarak-sim -exp fig8-stream -trace trace.jsonl -parallel 1
//	tvarak-sim -exp all -ops-addr :8080 -ops-ledger ops.jsonl   # curl /metrics /runs /debug/pprof
//	tvarak-sim -exp fig8-stream -fleet -ops-addr :7609          # tvarak-worker -gateway http://host:7609
//	tvarak-sim -compare old.json,new.json -tolerance 0.01
//	tvarak-sim -validate run.json
//	tvarak-sim -exp table1
//
// Experiments run their independent simulation cells on a bounded worker
// pool (-parallel, default one per CPU); tables come out in the same order
// and byte-identical regardless of the parallelism level. -metrics-out
// writes the versioned machine-readable export (JSON, or CSV when the path
// ends in .csv); -compare diffs two JSON exports and exits non-zero on any
// per-metric regression beyond -tolerance.
//
// Long runs are resilient: SIGINT/SIGTERM stop the simulation cooperatively
// at the next phase boundary and flush every artifact (exit 130); -journal
// checkpoints each completed cell durably so -resume restores them and the
// finished output is byte-identical to an uninterrupted run; -keep-going
// and -cell-timeout contain failing or hung cells instead of aborting the
// whole run (see DESIGN.md §7).
//
// With -fleet the one experiment named by -exp is not simulated here but
// served to tvarak-worker processes from /v1/ on the ops server (see
// DESIGN.md §12). The run goes through the same journaled runner, so the
// table, the export and the journal are those of a local run, and either
// run's journal resumes the other.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tvarak"
	"tvarak/internal/experiments"
	"tvarak/internal/fleet"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/obs"
	"tvarak/internal/param"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (or 'all'); see -list")
		list    = flag.Bool("list", false, "list experiment ids")
		scale   = flag.Float64("scale", 1.0, "multiply measured operation counts")
		full    = flag.Bool("full", false, "use the paper's full-scale machine (24 MB LLC) instead of the 1/16-scale reproduction machine")
		designs = flag.String("designs", "", "comma-separated subset of designs (baseline,tvarak,txb-object,txb-page,vilamb)")

		asyncFlags = param.RegisterAsyncFlags(flag.CommandLine)
		parallel   = flag.Int("parallel", runtime.NumCPU(), "max simulation cells running concurrently (1 = sequential; tables are identical at any level)")
		progress   = flag.Bool("progress", false, "print per-cell completion, timing and live counters to stderr as cells finish")

		metricsOut  = flag.String("metrics-out", "", "write the versioned machine-readable export to this path (CSV when it ends in .csv, JSON otherwise; - for JSON on stdout)")
		traceOut    = flag.String("trace", "", "write a JSONL event trace of every cell's measured run to this path (use -parallel 1 for a deterministic event order)")
		sampleEvery = flag.Uint64("sample-every", 0, "epoch length in cycles for per-run time series in the export (0 = aggregates only)")
		profile     = live.RegisterProfileFlags(flag.CommandLine)
		compare     = flag.String("compare", "", "compare two metric exports, given as old.json,new.json; exits 1 on any delta beyond -tolerance")
		tolerance   = flag.Float64("tolerance", 0, "relative per-metric tolerance for -compare (0 = exact)")
		validate    = flag.String("validate", "", "read a metrics export, validate its schema version, and print a summary")

		opsCfg     = live.RegisterOpsFlags(flag.CommandLine)
		fleetFlags = fleet.RegisterFlags(flag.CommandLine)

		journalPath = flag.String("journal", "", "checkpoint each completed cell durably to this JSONL journal; an interrupted run resumes from it with -resume")
		resume      = flag.Bool("resume", false, "reopen -journal and restore already-checkpointed cells instead of re-simulating them (output is byte-identical to an uninterrupted run)")
		cellTimeout = flag.Duration("cell-timeout", 0, "wall-clock bound per simulation cell; a cell exceeding it is marked hung (goroutine dump in the journal) and its worker is released")
		keepGoing   = flag.Bool("keep-going", false, "do not abort on failed cells: render them as FAILED holes, report them in the manifest, exit 1 at the end")
	)
	flag.Parse()

	if *list {
		for _, e := range tvarak.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Paper)
		}
		fmt.Printf("%-14s %s\n", "table1", "Table I: design trade-off matrix (qualitative)")
		return
	}
	if *compare != "" {
		runCompare(*compare, *tolerance)
		return
	}
	if *validate != "" {
		runValidate(*validate)
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "tvarak-sim: -exp required (try -list)")
		os.Exit(2)
	}
	if *exp == "table1" {
		fmt.Print(tableOne)
		return
	}

	async, err := asyncFlags.Config()
	if err != nil {
		usage(err)
	}
	designList, err := param.ParseDesigns(*designs)
	if err != nil {
		usage(err)
	}
	stopProfile, err := profile.Start()
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the run cooperatively: in-flight cells stop at
	// their next phase boundary, completed results flush, and the process
	// exits 130 with a manifest of what remains.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := experiments.Options{
		Scale: *scale, FullScale: *full, Designs: designList,
		Parallel: *parallel, SampleEvery: *sampleEvery,
		Context: ctx, CellTimeout: *cellTimeout, Degrade: *keepGoing,
		Async: async,
	}

	// Live telemetry backs both the -ops-addr endpoint and -progress: the
	// interactive renderer and /runs read the same board, so they can never
	// disagree. It is wall-clock-domain and read-only — attaching it leaves
	// tables and -metrics-out exports byte-identical (DESIGN.md §10).
	var lt *tvarak.LiveTelemetry
	if opsCfg.Enabled() || *progress {
		lt = tvarak.NewLiveTelemetry()
		opts.Live = lt
	}
	var serve func(experiments.Options) (*harness.Table, error)
	if fleetFlags.Serve {
		if *exp == "all" || strings.Contains(*exp, ",") {
			usage(fmt.Errorf("-fleet serves one experiment id, not %q", *exp))
		}
		spec := fleet.JobSpec{Kind: "sweep", Experiment: *exp, Scale: *scale, FullScale: *full,
			SampleEvery: *sampleEvery}.With(designList, *asyncFlags)
		plan, err := fleet.BuildPlan(spec)
		if err != nil {
			fatal(err)
		}
		gw, err := fleetFlags.Gateway(spec, plan, opsCfg, lt)
		if err != nil {
			usage(err)
		}
		// The sweep runs through the runner a local run uses and merges
		// the same way.
		serve = func(o experiments.Options) (*harness.Table, error) {
			payloads, man, err := fleetFlags.Run(gw, harness.Runner{Context: o.Context, Journal: o.Journal, Degrade: o.Degrade, Live: o.Live})
			if err != nil {
				return nil, err
			}
			return plan.(*harness.SweepPlan).MergeTable(payloads, man)
		}
	}
	ops, err := opsCfg.Start("tvarak-sim", lt)
	if err != nil {
		fatal(err)
	}
	var journal *tvarak.RunJournal
	if *resume && *journalPath == "" {
		fmt.Fprintln(os.Stderr, "tvarak-sim: -resume requires -journal")
		os.Exit(2)
	}
	if *journalPath != "" {
		// The journal is bound to the options that shape the run's cells:
		// -resume under different options fails with an error naming both
		// scopes instead of silently restoring nothing (legacy header-less
		// journals are still accepted).
		scope := fmt.Sprintf("tvarak-sim|exp=%s|scale=%g|full=%t|designs=%s",
			*exp, *scale, *full, *designs)
		if a := opts.Async; !a.IsZero() {
			scope += "|async=" + a.Label()
		}
		if *resume {
			journal, err = tvarak.ResumeScopedRunJournal(*journalPath, scope)
		} else {
			journal, err = tvarak.NewScopedRunJournal(*journalPath, scope)
		}
		if err != nil {
			fatal(err)
		}
		defer journal.Close()
		if *resume {
			fmt.Fprintf(os.Stderr, "tvarak-sim: resuming from %s: %d record(s) restorable",
				journal.Path(), journal.Restored())
			if c := journal.CorruptLines(); c > 0 {
				fmt.Fprintf(os.Stderr, ", %d corrupt line(s) skipped", c)
			}
			fmt.Fprintln(os.Stderr)
		}
		opts.Journal = journal
	}
	var tracer *obs.JSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tracer = obs.NewJSONL(f, 0)
		opts.Tracer = tracer
		if lt != nil {
			lt.TraceGauges(tracer.Written, tracer.Dropped)
		}
	}
	if *progress {
		// The renderer subscribes to the run board — the same state /runs
		// serves — instead of a separate results callback, so interactive
		// output and the ops endpoint report from one source of truth.
		lt.Board.Notify = func(e live.CellEntry, done, total int) {
			switch {
			case e.State == live.StateFailed:
				fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-28s FAILED: %s\n",
					done, total, e.Label, e.Err)
			case e.FromJournal:
				fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-28s restored  cyc=%d acc=%d\n",
					done, total, e.Label, e.Cycles, e.Accesses)
			default:
				el := time.Duration(e.ElapsedMS) * time.Millisecond
				fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-28s %8v  cyc=%d acc=%d thr=%.0f/s\n",
					done, total, e.Label, el.Round(time.Millisecond),
					e.Cycles, e.Accesses, e.AccessesPerSec)
			}
		}
	}

	var ids []string
	if *exp == "all" {
		for _, e := range tvarak.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}
	export := obs.NewExport("tvarak-sim")
	cancelled := false
	anyFailed := false
	for _, id := range ids {
		e, err := tvarak.LookupExperiment(strings.TrimSpace(id))
		if err != nil {
			fatal(err)
		}
		run := e.Run
		if serve != nil {
			run = serve
		}
		start := time.Now()
		tab, err := run(opts)
		if err != nil {
			fatal(err)
		}
		export.Runs = append(export.Runs, tab.ExportRuns(e.ID)...)
		figs := experiments.AsyncFigures(tab)
		export.Figures = append(export.Figures, figs...)
		fmt.Printf("# %s (%s) — simulated in %v\n", e.ID, e.Paper, time.Since(start).Round(time.Millisecond))
		fmt.Println(tab)
		for _, f := range figs {
			fmt.Println(f)
		}
		if m := tab.Manifest; m != nil && !m.Clean() {
			fmt.Fprintf(os.Stderr, "tvarak-sim: %s %s\n", e.ID, m)
			if len(m.Failures) > 0 {
				anyFailed = true
			}
			if m.Cancelled {
				cancelled = true
			}
		}
		if cancelled {
			break // flush what completed; remaining experiments were not started
		}
	}

	// Flush every artifact before deciding the exit code: an interrupted
	// run's value is exactly its partial results.
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fatal(err)
		}
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "tvarak-sim: trace bound hit, %d event(s) dropped\n", d)
		}
	}
	if *metricsOut != "" {
		if err := writeExport(export, *metricsOut); err != nil {
			fatal(err)
		}
	}
	if err := stopProfile(); err != nil {
		fatal(err)
	}
	// Shut the ops bundle down before deciding the exit code: the final
	// resource sample lands in the ledger and the HTTP goroutines exit
	// (leak-free teardown is asserted by ci.sh's ops gate).
	if err := ops.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "tvarak-sim: closing ops:", err)
	}
	if cancelled {
		if journal != nil {
			journal.Close()
			fmt.Fprintf(os.Stderr, "tvarak-sim: interrupted — partial results flushed; resume with: tvarak-sim -resume -journal %s\n", journal.Path())
		} else {
			fmt.Fprintln(os.Stderr, "tvarak-sim: interrupted — partial results flushed (run with -journal to make interrupted runs resumable)")
		}
		os.Exit(130)
	}
	if anyFailed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tvarak-sim:", err)
	os.Exit(1)
}

// usage reports a bad option value and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "tvarak-sim:", err)
	os.Exit(2)
}

// writeExport serializes the export, choosing CSV or JSON by extension;
// "-" writes JSON to stdout.
func writeExport(x *obs.Export, path string) error {
	if path == "-" {
		return x.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		err = x.WriteCSV(f)
	} else {
		err = x.WriteJSON(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// runCompare diffs two exports ("old.json,new.json") and exits 1 when they
// differ beyond the tolerance.
func runCompare(spec string, tol float64) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fmt.Fprintln(os.Stderr, "tvarak-sim: -compare wants two paths: old.json,new.json")
		os.Exit(2)
	}
	old, err := readExport(strings.TrimSpace(parts[0]))
	if err != nil {
		fatal(err)
	}
	cur, err := readExport(strings.TrimSpace(parts[1]))
	if err != nil {
		fatal(err)
	}
	rep := obs.Compare(old, cur, tol)
	fmt.Print(rep)
	if !rep.Clean() {
		os.Exit(1)
	}
}

// runValidate checks an export's schema version and prints a summary.
func runValidate(path string) {
	x, err := readExport(path)
	if err != nil {
		fatal(err)
	}
	samples := 0
	for i := range x.Runs {
		samples += len(x.Runs[i].Series)
	}
	fmt.Printf("%s: schema v%d, %d run(s), %d series sample(s)\n", path, x.Schema, len(x.Runs), samples)
}

func readExport(path string) (*obs.Export, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadJSON(f)
}

// tableOne reproduces Table I: trade-offs among TVARAK and previous DAX NVM
// storage redundancy designs.
const tableOne = `Table I: trade-offs among TVARAK and previous DAX NVM storage redundancy designs

design                       csum granularity  csum/parity update (DAX)   csum verification (DAX)     perf overhead
---------------------------  ----------------  -------------------------  --------------------------  -------------
Nova-Fortis / Plexistore     (+) page          (-) no updates             (-) no verification         (+) none
Mojim / HotPot (+csums)      (+) page          (+) on application flush   (~) background scrubbing    (-) very high
Pangolin (TxB-Object-Csums)  (~) object        (+) on application flush   (+) on NVM-to-DRAM copy     (~) moderate-high
Vilamb                       (+) page          (~) periodically           (~) background scrubbing    (~) configurable
TVARAK                       (+) page*         (+) on LLC-to-NVM write    (+) on NVM-to-LLC read      (+) low

* page-granular system-checksums at rest; cache-line-granular DAX-CL-checksums while data is mapped.
This reproduction implements the Mojim/HotPot-style scheme as TxB-Page-Csums, Pangolin-style as
TxB-Object-Csums, the Nova-Fortis-style fs path as daxfs.ReadAt/WriteAt verification, background
scrubbing as daxfs.Scrub, and TVARAK as the internal/core controller.
`
