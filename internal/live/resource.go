package live

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"tvarak/internal/applog"
)

// ResourceSample is one line of the ops ledger: a wall-clock snapshot of
// process resources plus cumulative simulation progress. Unlike the
// deterministic metric exports, the ledger is explicitly wall-clock-domain —
// timestamps and rates vary run to run, which is the point: tools/opscheck
// reads a ledger to flag heap growth, goroutine leaks, and throughput
// drift, exactly the gates the soak roadmap item needs.
type ResourceSample struct {
	UnixMS         int64   `json:"unixMS"`
	HeapAlloc      uint64  `json:"heapAlloc"`
	HeapSys        uint64  `json:"heapSys"`
	HeapObjects    uint64  `json:"heapObjects"`
	NumGC          uint32  `json:"numGC"`
	Goroutines     int     `json:"goroutines"`
	RSSBytes       uint64  `json:"rssBytes"`
	Accesses       uint64  `json:"accesses"`
	AccessesPerSec float64 `json:"accessesPerSec"`
}

// ResourceSampler periodically appends ResourceSamples to a log and
// mirrors the latest values into the telemetry gauges. It reads only
// runtime and /proc state plus telemetry counters — never simulation
// state — so sampling cannot perturb results. Each sample is fsync'd as it
// is taken, so a concurrent reader (the soak's resource gates) sees every
// sample so far.
type ResourceSampler struct {
	t     *Telemetry
	every time.Duration
	log   *applog.Log
	stop  chan struct{}
	done  chan struct{}
	// Touched only by sample, whose calls are ordered: the first runs
	// before loop starts and the last after loop exits.
	prevAt time.Time
	prevAc uint64
	err    error // first append failure
}

// StartResourceSampler begins sampling every interval, appending JSONL to
// log. The first sample is taken immediately. Stop takes a final sample.
func StartResourceSampler(t *Telemetry, log *applog.Log, every time.Duration) *ResourceSampler {
	if every <= 0 {
		every = time.Second
	}
	s := &ResourceSampler{
		t:     t,
		every: every,
		log:   log,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.sample()
	go s.loop()
	return s
}

func (s *ResourceSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.sample()
		case <-s.stop:
			return
		}
	}
}

func (s *ResourceSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := time.Now()
	acc := s.t.Engine.Accesses.Value()

	smp := ResourceSample{
		UnixMS:      now.UnixMilli(),
		HeapAlloc:   ms.HeapAlloc,
		HeapSys:     ms.HeapSys,
		HeapObjects: ms.HeapObjects,
		NumGC:       ms.NumGC,
		Goroutines:  runtime.NumGoroutine(),
		RSSBytes:    readRSS(),
		Accesses:    acc,
	}
	if !s.prevAt.IsZero() {
		if dt := now.Sub(s.prevAt).Seconds(); dt > 0 && acc >= s.prevAc {
			smp.AccessesPerSec = float64(acc-s.prevAc) / dt
		}
	}
	s.prevAt, s.prevAc = now, acc
	if err := s.log.AppendJSON(smp); err != nil && s.err == nil {
		s.err = err
	}

	s.t.Resource.HeapAlloc.SetInt(smp.HeapAlloc)
	s.t.Resource.Goroutines.SetInt(uint64(smp.Goroutines))
	s.t.Resource.RSS.SetInt(smp.RSSBytes)
	s.t.Resource.AccessesPerSec.Set(smp.AccessesPerSec)
}

// Stop halts the ticker and takes one final sample. It returns the first
// error appending a sample hit.
func (s *ResourceSampler) Stop() error {
	close(s.stop)
	<-s.done
	s.sample()
	return s.err
}

// readRSS returns the process resident set size in bytes via
// /proc/self/statm (field 2 × page size), or 0 where /proc is unavailable.
func readRSS() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	var pages uint64
	if _, err := fmt.Sscanf(fields[1], "%d", &pages); err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// ReadResourceLedger parses a JSONL ops ledger back into samples. Blank
// lines are skipped; a torn final line (process killed mid-write) is
// tolerated and dropped.
func ReadResourceLedger(r io.Reader) ([]ResourceSample, error) {
	samples, err := applog.ReadAll[ResourceSample](r)
	if err != nil {
		return nil, fmt.Errorf("live: bad ledger %w", err)
	}
	return samples, nil
}

// OpsConfig configures StartOps: the full live-telemetry bundle a CLI
// enables with its -ops-* flags.
type OpsConfig struct {
	Addr        string        // ops HTTP listen address ("" = no server)
	AddrFile    string        // write the resolved listen address here (for :0 in scripts)
	LedgerPath  string        // append resource samples to this JSONL file ("" = no ledger)
	SampleEvery time.Duration // resource sample interval (default 1s)
}

// Enabled reports whether the config asks for the ops server or the
// resource ledger.
func (c OpsConfig) Enabled() bool { return c.Addr != "" || c.LedgerPath != "" }

// Ops bundles the running ops server, resource sampler, and ledger.
type Ops struct {
	srv     *Server
	sampler *ResourceSampler
	ledger  *applog.Log
}

// StartOps starts whichever of the ops server and resource sampler the
// config asks for. Returns nil (no cleanup needed) when the config enables
// neither. A ledger left torn by a killed process is repaired before
// sampling appends to it.
func StartOps(t *Telemetry, cfg OpsConfig) (*Ops, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	o := &Ops{}
	if cfg.Addr != "" {
		srv, err := Serve(cfg.Addr, t)
		if err != nil {
			return nil, err
		}
		o.srv = srv
		if cfg.AddrFile != "" {
			if err := os.WriteFile(cfg.AddrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
				_ = srv.Close()
				return nil, err
			}
		}
	}
	if cfg.LedgerPath != "" {
		log, err := applog.Open(cfg.LedgerPath)
		if err != nil {
			if o.srv != nil {
				_ = o.srv.Close()
			}
			return nil, err
		}
		o.ledger = log
		o.sampler = StartResourceSampler(t, log, cfg.SampleEvery)
	}
	return o, nil
}

// Addr returns the ops server's bound address, or "" if no server runs.
func (o *Ops) Addr() string {
	if o == nil || o.srv == nil {
		return ""
	}
	return o.srv.Addr()
}

// Close stops the sampler (final sample), closes the ledger, and
// shuts the server down, waiting for its goroutine. Safe on nil.
func (o *Ops) Close() error {
	if o == nil {
		return nil
	}
	var first error
	if o.sampler != nil {
		if err := o.sampler.Stop(); err != nil {
			first = err
		}
	}
	if o.ledger != nil {
		if err := o.ledger.Close(); err != nil && first == nil {
			first = err
		}
	}
	if o.srv != nil {
		if err := o.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
