package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"time"

	"tvarak/internal/harness"
	"tvarak/internal/live"
)

// Flags is the -fleet option group of the CLIs that can serve a job
// (tvarak-sim -exp <id>, tvarak-fault -campaign): instead of simulating
// the job in-process, serve it to tvarak-worker processes.
type Flags struct {
	Serve       bool
	LeaseTTL    time.Duration
	Backoff     time.Duration
	SummaryFile string
}

// RegisterFlags registers the fleet option group on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Serve, "fleet", false, "serve the job to tvarak-worker processes at /v1/ on the ops server (requires -ops-addr) instead of simulating it here")
	fs.DurationVar(&f.LeaseTTL, "lease-ttl", 30*time.Second, "with -fleet: lease lifetime without a heartbeat before a unit is re-dispatched")
	fs.DurationVar(&f.Backoff, "redeliver-backoff", 500*time.Millisecond, "with -fleet: base of the seeded-jitter exponential backoff before an expired or failed unit is re-dispatched")
	fs.StringVar(&f.SummaryFile, "summary-file", "", "with -fleet: write the final dispatch summary (leases, expiries, redeliveries, duplicates, per-unit states) as JSON to this path")
	return f
}

// Gateway builds the gateway serving plan, which BuildPlan derived from
// spec, and mounts its control plane at /v1/ on the ops server ops
// describes, which must name a listen address.
func (f *Flags) Gateway(spec JobSpec, plan harness.Plan, ops *live.OpsConfig, lt *live.Telemetry) (*Gateway, error) {
	if ops.Addr == "" {
		return nil, errors.New("-fleet requires -ops-addr: the control plane is served at /v1/ on the ops server")
	}
	g, err := NewGateway(GatewayConfig{
		Plan:     plan,
		Spec:     spec,
		LeaseTTL: f.LeaseTTL,
		Backoff:  harness.BackoffPolicy{Base: f.Backoff, Jitter: 0.5, Seed: uint64(spec.Seed) + 1},
		Live:     lt,
	})
	if err != nil {
		return nil, err
	}
	ops.API = g.Handler()
	return g, nil
}

// Run executes the job on rn with one slot per unit, so every unit is open
// for leasing at once, then finishes it and writes the summary file. Its
// results are RunPlan's, for the caller to merge like a local run's.
func (f *Flags) Run(g *Gateway, rn harness.Runner) ([]json.RawMessage, *harness.Manifest, error) {
	rn.Workers = g.Units()
	payloads, man, err := rn.RunPlan(g)
	ctx := rn.Context
	if ctx == nil {
		ctx = context.Background()
	}
	err = errors.Join(err, g.Finish(ctx))
	if f.SummaryFile != "" {
		data, merr := json.MarshalIndent(g.Status(true), "", "  ")
		if merr == nil {
			merr = os.WriteFile(f.SummaryFile, append(data, '\n'), 0o644)
		}
		err = errors.Join(err, merr)
	}
	return payloads, man, err
}
