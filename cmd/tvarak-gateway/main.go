// Command tvarak-gateway coordinates a distributed sweep or fault
// campaign: it enumerates the job's units, hands out leases to
// tvarak-worker processes over an HTTP control plane, re-dispatches units
// whose workers vanish, dedups duplicate results by fingerprint with a
// byte-equality cross-check, and merges the results in enumeration order —
// so the printed table and the -metrics-out export are byte-identical to a
// single-machine tvarak-sim run of the same options.
//
// Usage:
//
//	tvarak-gateway -exp fig8-stream -scale 0.05 -listen :7609
//	tvarak-gateway -exp fig8-redis -listen :0 -addr-file gw.addr -journal fleet.journal
//	tvarak-gateway -exp all-is-not-supported-use-one-id ...     # one experiment per job
//	tvarak-gateway -campaign -seed 7 -n 56 -report out.jsonl -listen :7609
//	tvarak-gateway ... -resume -journal fleet.journal           # after a gateway crash
//	tvarak-gateway ... -keep-going -summary-file summary.json
//
// Workers connect with: tvarak-worker -gateway http://host:port
//
// Robustness model (DESIGN.md §12): workers hold units under TTL leases
// extended by heartbeats; a lease that expires re-enters dispatch behind a
// seeded-jitter exponential backoff, bounded by -max-deliveries. Results
// are accepted by unit fingerprint, not lease, so a result computed under
// an expired lease still lands and duplicates are byte-verified — any
// divergence fails the job loudly. With -journal every accepted result is
// fsync'd before it is acknowledged, so a SIGKILLed gateway resumes with
// -resume and only the missing units are re-dispatched.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tvarak/internal/experiments"
	"tvarak/internal/fault"
	"tvarak/internal/fleet"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/obs"
	"tvarak/internal/param"
)

func main() {
	var (
		exp         = flag.String("exp", "", "experiment id to distribute (sweep mode; see tvarak-sim -list)")
		scale       = flag.Float64("scale", 1.0, "multiply measured operation counts")
		full        = flag.Bool("full", false, "use the paper's full-scale machine instead of the 1/16-scale reproduction machine")
		designs     = flag.String("designs", "", "comma-separated subset of designs (baseline,tvarak,txb-object,txb-page,vilamb)")
		sampleEvery = flag.Uint64("sample-every", 0, "epoch length in cycles for per-run time series in the export (0 = aggregates only)")

		asyncFlags = param.RegisterAsyncFlags(flag.CommandLine)

		campaign = flag.Bool("campaign", false, "distribute the oracle-judged fault-injection campaign instead of a sweep")
		seed     = flag.Int64("seed", 1, "campaign seed (same seed: byte-identical report)")
		n        = flag.Int("n", 112, "campaign injections per design, split across the applications")
		apps     = flag.String("apps", "", "comma-separated campaign applications (empty = all)")
		report   = flag.String("report", "", "write the merged campaign JSONL report to this path (- for stdout)")

		listen        = flag.String("listen", "127.0.0.1:7609", "control-plane listen address (use :0 for a free port)")
		addrFile      = flag.String("addr-file", "", "write the resolved listen address to this file (for scripts using -listen :0)")
		leaseTTL      = flag.Duration("lease-ttl", 30*time.Second, "lease lifetime without a heartbeat before a unit is re-dispatched")
		maxDeliver    = flag.Int("max-deliveries", 3, "leases granted per unit before it terminally fails")
		redeliverBase = flag.Duration("redeliver-backoff", 500*time.Millisecond, "base of the seeded-jitter exponential backoff before an expired or failed unit is re-dispatched")

		journalPath = flag.String("journal", "", "fsync each accepted result to this JSONL journal before acknowledging it; a killed gateway resumes with -resume")
		resume      = flag.Bool("resume", false, "reopen -journal and restore already-accepted results instead of re-dispatching their units (merged output is byte-identical)")
		keepGoing   = flag.Bool("keep-going", false, "complete the job past units whose redelivery is exhausted: render them as FAILED rows with a manifest, exit 1 at the end")

		metricsOut  = flag.String("metrics-out", "", "write the versioned machine-readable export to this path (CSV when it ends in .csv, JSON otherwise)")
		summaryFile = flag.String("summary-file", "", "write the final dispatch summary (leases, expiries, redeliveries, duplicates, per-unit states) as JSON to this path")
		opsCfg      = live.RegisterOpsFlags(flag.CommandLine)
	)
	flag.Parse()

	spec, err := buildSpec(*campaign, *exp, *scale, *full, *designs, *sampleEvery, *seed, *n, *apps)
	if err != nil {
		fatal(err)
	}
	spec.EpochCyc, spec.DirtyGran = asyncFlags.Epoch, asyncFlags.DirtyGran
	spec.Battery, spec.Incremental = asyncFlags.Battery, asyncFlags.Incremental
	plan, err := fleet.BuildPlan(spec)
	if err != nil {
		fatal(err)
	}

	lt := live.NewTelemetry()
	ops, err := opsCfg.Start("tvarak-gateway", lt)
	if err != nil {
		fatal(err)
	}

	var journal *harness.Journal
	if *resume && *journalPath == "" {
		fmt.Fprintln(os.Stderr, "tvarak-gateway: -resume requires -journal")
		os.Exit(2)
	}
	if *journalPath != "" {
		// The journal is bound to the plan's scope: resuming it under
		// different options (or a skewed binary) fails with an error naming
		// both scopes instead of silently merging unrelated results.
		if *resume {
			journal, err = harness.OpenJournalScope(*journalPath, plan.Scope())
		} else {
			journal, err = harness.NewJournalScope(*journalPath, plan.Scope())
		}
		if err != nil {
			fatal(err)
		}
		defer journal.Close()
		if *resume {
			fmt.Fprintf(os.Stderr, "tvarak-gateway: resuming from %s: %d record(s) restorable\n",
				journal.Path(), journal.Restored())
		}
	}

	g, err := fleet.NewGateway(fleet.GatewayConfig{
		Plan:          plan,
		Spec:          spec,
		LeaseTTL:      *leaseTTL,
		MaxDeliveries: *maxDeliver,
		Backoff:       harness.BackoffPolicy{Base: *redeliverBase, Jitter: 0.5, Seed: uint64(spec.Seed) + 1},
		KeepGoing:     *keepGoing,
		Journal:       journal,
		Live:          lt,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	srv := &http.Server{Handler: g.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "tvarak-gateway: control plane:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "tvarak-gateway: serving %q (%d units, %d already done) on http://%s\n",
		plan.Scope(), plan.Units(), g.Status(false).Done, ln.Addr())

	// SIGINT/SIGTERM stop the job: accepted results are already durable in
	// the journal, so a -resume picks up exactly where dispatch stopped.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	payloads, failures, waitErr := g.Wait(ctx)
	if waitErr == nil || !errors.Is(waitErr, context.Canceled) {
		// Let laggard workers poll once more and see StatusDone before the
		// socket goes away, so they exit clean instead of "unreachable".
		g.Drain(ctx)
	}
	srv.Close()

	if *summaryFile != "" {
		if err := writeSummary(*summaryFile, g.Status(true)); err != nil {
			fatal(err)
		}
	}
	if err := ops.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "tvarak-gateway: closing ops:", err)
	}
	if waitErr != nil {
		if errors.Is(waitErr, context.Canceled) {
			hint := "re-run to finish"
			if journal != nil {
				hint = fmt.Sprintf("resume with: tvarak-gateway %s -resume -journal %s",
					strings.Join(jobArgs(spec), " "), journal.Path())
			}
			fmt.Fprintf(os.Stderr, "tvarak-gateway: interrupted — accepted results are durable; %s\n", hint)
			os.Exit(130)
		}
		fatal(waitErr)
	}

	if spec.Kind == "campaign" {
		if err := mergeCampaign(plan.(*fault.CampaignPlan), payloads, *report); err != nil {
			fatal(err)
		}
		return
	}
	if err := mergeSweep(plan.(*harness.SweepPlan), spec, payloads, failures, *keepGoing, *metricsOut); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tvarak-gateway:", err)
	os.Exit(1)
}

// buildSpec assembles the declarative job description served to workers.
func buildSpec(campaign bool, exp string, scale float64, full bool, designs string, sampleEvery uint64, seed int64, n int, apps string) (fleet.JobSpec, error) {
	if campaign {
		if exp != "" {
			return fleet.JobSpec{}, fmt.Errorf("-campaign and -exp are mutually exclusive")
		}
		names, err := designNames(designs)
		if err != nil {
			return fleet.JobSpec{}, err
		}
		return fleet.JobSpec{Kind: "campaign", Seed: seed, N: n, Apps: splitComma(apps), Designs: names}, nil
	}
	if exp == "" {
		return fleet.JobSpec{}, fmt.Errorf("-exp required (one experiment id per job; see tvarak-sim -list)")
	}
	names, err := designNames(designs)
	if err != nil {
		return fleet.JobSpec{}, err
	}
	return fleet.JobSpec{
		Kind: "sweep", Experiment: exp, Scale: scale, FullScale: full,
		Designs: names, SampleEvery: sampleEvery,
	}, nil
}

// designNames parses the CLI's design tokens and canonicalizes them to
// Design.String() values — the on-wire form every worker parses back.
func designNames(s string) ([]string, error) {
	ds, err := param.ParseDesigns(s)
	var out []string
	for _, d := range ds {
		out = append(out, d.String())
	}
	return out, err
}

func splitComma(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// jobArgs reconstructs the CLI flags that select the job, for the resume
// hint.
func jobArgs(spec fleet.JobSpec) []string {
	if spec.Kind == "campaign" {
		return []string{"-campaign", fmt.Sprintf("-seed %d", spec.Seed), fmt.Sprintf("-n %d", spec.N)}
	}
	args := []string{fmt.Sprintf("-exp %s", spec.Experiment), fmt.Sprintf("-scale %g", spec.Scale)}
	if spec.FullScale {
		args = append(args, "-full")
	}
	return args
}

// mergeSweep renders the merged table and export exactly like tvarak-sim.
func mergeSweep(sp *harness.SweepPlan, spec fleet.JobSpec, payloads []json.RawMessage, failures map[int]string, keepGoing bool, metricsOut string) error {
	man, err := fleet.FailureManifest(sp, payloads, failures, keepGoing)
	if err != nil {
		return err
	}
	tab, err := sp.MergeTable(payloads, man)
	if err != nil {
		return err
	}
	e, err := experiments.Lookup(spec.Experiment)
	if err != nil {
		return err
	}
	// The `#` header line carries wall-clock info and is filtered by
	// byte-comparison consumers (ci.sh strips `^# `), matching tvarak-sim.
	fmt.Printf("# %s (%s) — merged from fleet\n", e.ID, e.Paper)
	fmt.Println(tab)
	figs := experiments.AsyncFigures(tab)
	for _, f := range figs {
		fmt.Println(f)
	}
	if metricsOut != "" {
		// Tool is "tvarak-sim", not "tvarak-gateway": the export must be
		// byte-identical to a single-machine run of the same options.
		export := obs.NewExport("tvarak-sim")
		export.Runs = append(export.Runs, tab.ExportRuns(e.ID)...)
		export.Figures = append(export.Figures, figs...)
		if err := writeExport(export, metricsOut); err != nil {
			return err
		}
	}
	if m := tab.Manifest; m != nil && !m.Clean() {
		fmt.Fprintf(os.Stderr, "tvarak-gateway: %s %s\n", e.ID, m)
		if len(m.Failures) > 0 {
			os.Exit(1)
		}
	}
	return nil
}

// mergeCampaign folds the unit reports into the campaign report and writes
// the same JSONL a local tvarak-fault -campaign run produces.
func mergeCampaign(cp *fault.CampaignPlan, payloads []json.RawMessage, report string) error {
	rep, mergeErr := cp.MergeReport(payloads)
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
			if err := fault.WriteJSONL(w, rep); err != nil {
				return err
			}
		}
		fmt.Printf("campaign: %d units, %d fired, %d silent under baseline, %d undetected, %d unrecovered, %d crash points, %d failures\n",
			len(rep.Units), rep.Fired, rep.SilentCorruptions, rep.Undetected, rep.Unrecovered, rep.CrashPoints, rep.Failures)
	}
	return mergeErr
}

// writeExport serializes the export, choosing CSV or JSON by extension.
func writeExport(x *obs.Export, path string) error {
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

// writeSummary dumps the final dispatch snapshot for scripts (ci.sh
// asserts at least one redelivery after SIGKILLing a worker).
func writeSummary(path string, s fleet.StatusResponse) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
