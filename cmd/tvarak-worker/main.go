// Command tvarak-worker executes units for a tvarak-gateway: it fetches
// the job spec, re-derives the unit enumeration locally (any skew against
// the gateway's build surfaces as a handshake or fingerprint error), then
// leases units, runs them through the same harness.Runner /
// fault.RunSingleUnit paths a local run uses, and streams the results back
// as journal-format records — heartbeating to keep its leases alive.
//
// Usage:
//
//	tvarak-worker -gateway http://host:7609
//	tvarak-worker -gateway http://host:7609 -name rack2-03 -slots 4
//
// Workers are stateless: SIGKILL one and the gateway re-dispatches its
// leased units to the survivors after the lease TTL; a replacement worker
// produces byte-identical results because every unit is deterministic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"tvarak/internal/fleet"
	"tvarak/internal/harness"
	"tvarak/internal/live"
)

func main() {
	var (
		gateway      = flag.String("gateway", "", "gateway control-plane base URL, e.g. http://host:7609 (required)")
		name         = flag.String("name", "", "worker name in leases and gateway status (default host:pid)")
		slots        = flag.Int("slots", 1, "units run concurrently (each slot is an independent lease loop)")
		retries      = flag.Int("retries", 0, "extra local attempts per sweep unit before reporting it failed to the gateway")
		acquireDelay = flag.Duration("acquire-delay", 0, "pause between lease grant and unit start (CI uses it to widen the kill window)")
		opsCfg       = live.RegisterOpsFlags(flag.CommandLine)
	)
	flag.Parse()

	if *gateway == "" {
		fmt.Fprintln(os.Stderr, "tvarak-worker: -gateway required")
		os.Exit(2)
	}
	if *slots < 1 {
		fmt.Fprintln(os.Stderr, "tvarak-worker: -slots must be >= 1")
		os.Exit(2)
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	lt := live.NewTelemetry()
	ops, err := opsCfg.Start("tvarak-worker", lt)
	if err != nil {
		fatal(err)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Each slot is a full lease loop under its own name suffix; the
	// gateway's acquire path hands them distinct units, so -slots N is N-way
	// unit parallelism without any coordination here.
	errs := make([]error, *slots)
	var wg sync.WaitGroup
	for s := 0; s < *slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			wname := *name
			if *slots > 1 {
				wname = fmt.Sprintf("%s/%d", *name, s)
			}
			w := &fleet.Worker{
				Gateway:      *gateway,
				Name:         wname,
				Retries:      *retries,
				AcquireDelay: *acquireDelay,
				Backoff: harness.BackoffPolicy{
					Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5,
					Seed: uint64(os.Getpid())*16 + uint64(s) + 1,
				},
				Live: lt,
			}
			errs[s] = w.Run(ctx)
		}(s)
	}
	wg.Wait()

	if err := ops.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "tvarak-worker: closing ops:", err)
	}
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "tvarak-worker: interrupted — the gateway will re-dispatch any leased units")
			os.Exit(130)
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tvarak-worker: %s done\n", *name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tvarak-worker:", err)
	os.Exit(1)
}
