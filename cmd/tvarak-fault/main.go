// Command tvarak-fault demonstrates the firmware-bug scenarios of Figs. 1-2
// end to end: it injects lost-write, misdirected-write and misdirected-read
// bugs into the simulated NVM DIMMs, shows that device-level ECC does not
// notice them, and shows TVARAK detecting each corruption on read
// verification and recovering the data from cross-DIMM parity.
//
// With -trace the whole session (fills, writebacks, corruption detections,
// parity recoveries, ...) is written as a JSONL event stream, so the
// recovery storm each injected bug causes is inspectable event by event.
//
// With -campaign it instead runs the deterministic fault-injection
// campaign: -n seeded injections per design across all seven paper
// applications, judged by the shadow redundancy oracle (Baseline must
// miss every firmware-bug corruption, TVARAK must detect and recover
// every one). -report writes the per-injection JSONL report; the same
// -seed always yields byte-identical report bytes (see EXPERIMENTS.md
// for reproducing a failed campaign from its seed).
//
// With -campaign -fleet the campaign's units are served to tvarak-worker
// processes from /v1/ on the ops server instead (DESIGN.md §12): the
// report and the journal are those of a local run.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"tvarak"
	"tvarak/internal/fault"
	"tvarak/internal/fleet"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/param"
)

func main() {
	traceOut := flag.String("trace", "", "write a JSONL event trace of every scenario to this path")
	campaign := flag.Bool("campaign", false, "run the oracle-judged fault-injection campaign instead of the demo scenarios")
	seed := flag.Int64("seed", 1, "campaign seed (same seed: byte-identical report)")
	n := flag.Int("n", 112, "campaign injections per design, split across the applications")
	designs := flag.String("designs", "", "comma-separated campaign designs (baseline,tvarak,vilamb; empty = baseline+tvarak)")
	asyncFlags := param.RegisterAsyncFlags(flag.CommandLine)
	report := flag.String("report", "", "write the campaign's JSONL report to this path (- for stdout)")
	workers := flag.Int("workers", 0, "concurrent campaign units (0 = one per CPU)")
	shrink := flag.Bool("shrink", true, "minimize the injection schedule of any failing unit")
	journalPath := flag.String("journal", "", "checkpoint each finished campaign unit durably to this JSONL journal; resume an interrupted campaign with -resume")
	resume := flag.Bool("resume", false, "reopen -journal and restore already-finished units instead of re-simulating them (the report is byte-identical to an uninterrupted run)")
	profile := live.RegisterProfileFlags(flag.CommandLine)
	opsCfg := live.RegisterOpsFlags(flag.CommandLine)
	fleetFlags := fleet.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProfile, err := profile.Start()
	if err != nil {
		fatal(err)
	}

	var lt *tvarak.LiveTelemetry
	if opsCfg.Enabled() {
		lt = tvarak.NewLiveTelemetry()
	}
	var opt tvarak.FaultCampaignOptions
	var serve func(tvarak.FaultCampaignOptions) (*tvarak.FaultCampaignReport, error)
	if *campaign {
		opt = tvarak.FaultCampaignOptions{Seed: *seed, N: *n, Workers: *workers, Shrink: *shrink}
		if opt.Designs, err = param.ParseDesigns(*designs); err != nil {
			fatal(err)
		}
		if opt.Async, err = asyncFlags.Config(); err != nil {
			fatal(err)
		}
		if fleetFlags.Serve {
			spec := fleet.JobSpec{Kind: "campaign", Seed: *seed, N: *n}.With(opt.Designs, *asyncFlags)
			plan, err := fleet.BuildPlan(spec)
			if err != nil {
				fatal(err)
			}
			gw, err := fleetFlags.Gateway(spec, plan, opsCfg, lt)
			if err != nil {
				fatal(err)
			}
			// The campaign runs through the runner a local one uses and
			// merges the same way.
			serve = func(opt tvarak.FaultCampaignOptions) (*tvarak.FaultCampaignReport, error) {
				payloads, man, err := fleetFlags.Run(gw, harness.Runner{Context: opt.Context, Journal: opt.Journal, Live: opt.Live})
				if man.Cancelled {
					return nil, errors.Join(err, context.Cause(opt.Context))
				}
				rep, merr := plan.(*fault.CampaignPlan).MergeReport(payloads)
				if rep != nil {
					rep.Resumed = man.FromJournal
				}
				return rep, errors.Join(err, merr)
			}
		}
	}
	ops, err := opsCfg.Start("tvarak-fault", lt)
	if err != nil {
		fatal(err)
	}

	if *campaign {
		err = runCampaign(opt, *report, *journalPath, *resume, lt, serve)
	} else {
		err = run(*traceOut)
	}

	if perr := stopProfile(); perr != nil {
		fatal(perr)
	}
	if cerr := ops.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "tvarak-fault: closing ops:", cerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvarak-fault:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130) // interrupted: artifacts flushed, resume with -resume
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tvarak-fault:", err)
	os.Exit(1)
}

// runCampaign runs the campaign locally, or through serve when it is
// served on the fleet, and writes its report.
func runCampaign(opt tvarak.FaultCampaignOptions, report, journalPath string, resume bool, lt *tvarak.LiveTelemetry,
	serve func(tvarak.FaultCampaignOptions) (*tvarak.FaultCampaignReport, error)) error {
	// SIGINT/SIGTERM cancel the campaign cooperatively: finished units are
	// kept (and journaled when -journal is set), the partial report is
	// still written, and Run returns an interruption error.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var journal *tvarak.RunJournal
	if resume && journalPath == "" {
		return fmt.Errorf("-resume requires -journal")
	}
	if journalPath != "" {
		// Scope the journal to the campaign's shape, served on the fleet or
		// not, and reject -resume across skewed options.
		scope := opt.Scope()
		var err error
		if resume {
			journal, err = tvarak.ResumeScopedRunJournal(journalPath, scope)
		} else {
			journal, err = tvarak.NewScopedRunJournal(journalPath, scope)
		}
		if err != nil {
			return err
		}
		defer journal.Close()
		if resume {
			fmt.Fprintf(os.Stderr, "tvarak-fault: resuming from %s: %d record(s) restorable\n",
				journal.Path(), journal.Restored())
		}
	}

	fmt.Printf("fault campaign: seed=%d injections=%d apps=%v\n", opt.Seed, opt.N, tvarak.FaultCampaignApps())
	opt.Context = ctx
	opt.Journal = journal
	opt.Live = lt
	opt.Progress = func(done, total int, u *tvarak.FaultUnitReport) {
		status := "ok"
		if u.Failure != "" {
			status = "FAIL: " + u.Failure
		}
		fmt.Printf("  [%2d/%d] %-16s fired=%-3d detected=%-3d recovered=%-3d silent=%-3d %s\n",
			done, total, u.Label(), u.Fired, u.Detections, u.Recoveries, u.SilentCorruptions, status)
	}
	if serve == nil {
		serve = tvarak.RunFaultCampaign
	}
	rep, runErr := serve(opt)
	if rep != nil {
		if report != "" {
			var w io.Writer = os.Stdout
			if report != "-" {
				f, err := os.Create(report)
				if err != nil {
					return err
				}
				defer f.Close()
				w = f
			}
			if err := tvarak.WriteFaultReport(w, rep); err != nil {
				return err
			}
		}
		fmt.Printf("campaign: %d units, %d fired, %d silent under baseline, %d undetected, %d unrecovered, %d crash points, %d failures\n",
			len(rep.Units), rep.Fired, rep.SilentCorruptions, rep.Undetected, rep.Unrecovered, rep.CrashPoints, rep.Failures)
		if rep.Resumed > 0 {
			fmt.Fprintf(os.Stderr, "tvarak-fault: %d unit(s) restored from journal\n", rep.Resumed)
		}
		if rep.Interrupted > 0 {
			hint := "re-run to finish"
			if journal != nil {
				hint = fmt.Sprintf("resume with: tvarak-fault -campaign -seed %d -n %d -resume -journal %s", opt.Seed, opt.N, journal.Path())
			}
			fmt.Fprintf(os.Stderr, "tvarak-fault: interrupted — %d unit(s) not run; %s\n", rep.Interrupted, hint)
		}
	}
	return runErr
}

func run(traceOut string) error {
	cfg := tvarak.ReproScaleConfig(tvarak.DesignTvarak)
	m, err := tvarak.NewMachine(cfg)
	if err != nil {
		return err
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		tr := tvarak.NewJSONLTracer(f, 0)
		defer tr.Close()
		m.Engine().Tracer = tr
	}
	dm, err := m.NewMapping("victim", 1<<20)
	if err != nil {
		return err
	}
	eng := m.Engine()
	ctrl := m.Controller()
	ctrl.CorruptionHook = func(addr uint64) {
		fmt.Printf("    TVARAK: checksum mismatch at %#x — recovering from cross-DIMM parity\n", addr)
	}

	scenario := func(name string, inject func(addr uint64), off uint64, want []byte) error {
		fmt.Printf("== %s ==\n", name)
		addr := dm.Addr(off) &^ 63
		// Flush so the next write reaches the device, then arm the bug.
		eng.Run([]func(*tvarak.Core){func(c *tvarak.Core) {
			dm.Store(c, off, bytes.Repeat([]byte{0x11}, 64))
		}})
		eng.DropCaches()
		inject(addr)
		eng.Run([]func(*tvarak.Core){func(c *tvarak.Core) {
			dm.Store(c, off, want)
		}})
		if eng.NVM.PendingBugs() != 0 {
			return fmt.Errorf("injected bug did not fire")
		}
		fmt.Printf("    device ECC errors: %d (firmware bugs are invisible to device ECC)\n", eng.St.ECCErrors)
		eng.DropCaches()
		var got []byte
		eng.Run([]func(*tvarak.Core){func(c *tvarak.Core) {
			got = make([]byte, 64)
			dm.Load(c, off, got)
		}})
		if !bytes.Equal(got, want) {
			return fmt.Errorf("recovered data wrong")
		}
		fmt.Printf("    read returned correct data; detections=%d recoveries=%d\n\n",
			eng.St.CorruptionsDetected, eng.St.Recoveries)
		return nil
	}

	if err := scenario("lost write (Fig. 1)", func(a uint64) { eng.NVM.InjectLostWrite(a) },
		64*100, bytes.Repeat([]byte{0x22}, 64)); err != nil {
		return err
	}
	if err := scenario("misdirected write (Fig. 2)", func(a uint64) {
		eng.NVM.InjectMisdirectedWrite(a, dm.Addr(64*500)&^63)
	}, 64*200, bytes.Repeat([]byte{0x33}, 64)); err != nil {
		return err
	}
	if err := scenario("misdirected read", func(a uint64) {
		eng.NVM.InjectMisdirectedRead(a, dm.Addr(64*600)&^63)
	}, 64*300, bytes.Repeat([]byte{0x44}, 64)); err != nil {
		return err
	}

	fmt.Println("== media corruption (bit flip) — caught by device ECC, not TVARAK ==")
	before := eng.St.ECCErrors
	addr := dm.Addr(64*700) &^ 63
	eng.Run([]func(*tvarak.Core){func(c *tvarak.Core) {
		dm.Store(c, 64*700, bytes.Repeat([]byte{0x55}, 64))
	}})
	eng.DropCaches()
	eng.NVM.FlipBit(addr+5, 2)
	eng.Run([]func(*tvarak.Core){func(c *tvarak.Core) {
		buf := make([]byte, 64)
		dm.Load(c, 64*700, buf)
	}})
	fmt.Printf("    device ECC errors: %d (was %d)\n", eng.St.ECCErrors, before)
	fmt.Println("\nall scenarios detected and recovered")
	return nil
}
