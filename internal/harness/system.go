// Package harness assembles complete simulated systems and runs the
// paper's experiments: it owns the experiment registry (Table II), the
// fixed-work methodology of §IV (setup → stat reset → measured run), and
// the table rendering for every figure.
package harness

import (
	"context"
	"fmt"

	"tvarak/internal/core"
	"tvarak/internal/daxfs"
	"tvarak/internal/obs"
	"tvarak/internal/param"
	"tvarak/internal/pmem"
	"tvarak/internal/sim"
	"tvarak/internal/swred"
)

// System is one fully assembled machine: engine, optional TVARAK
// controller, file system, and the design selection that decides which
// redundancy machinery heaps get.
type System struct {
	Cfg  *param.Config
	Eng  *sim.Engine
	Ctrl *core.Controller // non-nil only under param.Tvarak
	FS   *daxfs.FS

	// Vilambs are the asynchronous schemes attached to this system's
	// heaps (param.Vilamb only); Run schedules their daemons on the
	// dedicated extra core.
	Vilambs []*swred.Vilamb
}

// NewSystem builds the machine described by cfg. Under the Vilamb design
// one extra core is provisioned for the redundancy daemon (Vilamb's design
// runs its daemons on dedicated cores).
func NewSystem(cfg *param.Config) (*System, error) {
	if cfg.Design == param.Vilamb {
		c2 := *cfg
		c2.Cores += param.VilambDaemonCores
		cfg = &c2
	}
	eng, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg, Eng: eng}
	if cfg.Design == param.Tvarak {
		s.Ctrl = core.New(eng)
	}
	s.FS, err = daxfs.New(eng, s.Ctrl)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewHeap creates a file of the given size, DAX-maps it, builds a
// persistent heap on it, and attaches the software redundancy scheme when
// the design is a TxB baseline. maxObjects sizes the object checksum table
// for TxB-Object-Csums.
func (s *System) NewHeap(name string, size uint64, maxObjects uint64) (*pmem.Heap, error) {
	if _, err := s.FS.Create(name, size); err != nil {
		return nil, err
	}
	m, err := s.FS.MMap(name)
	if err != nil {
		return nil, err
	}
	h, err := pmem.NewHeap(m, s.Cfg.Cores)
	if err != nil {
		return nil, err
	}
	switch s.Cfg.Design {
	case param.TxBObjectCsums, param.TxBPageCsums:
		if _, err := swred.Attach(s.FS, h, s.Cfg.Design, maxObjects); err != nil {
			return nil, err
		}
	case param.Vilamb:
		v, err := swred.AttachVilamb(s.FS, h, s.Cfg.Async)
		if err != nil {
			return nil, err
		}
		s.Vilambs = append(s.Vilambs, v)
	}
	return h, nil
}

// NewMapping creates and DAX-maps a plain file (fio and stream use raw
// mappings rather than heaps). For TxB designs raw mappings have no
// redundancy — faithful to Table I: the software schemes only cover data
// accessed through their transactional interface. Vilamb's dirty tracking
// models page-table dirty bits, which see raw stores just as well as
// transactional ones, so under the Vilamb design raw mappings get the
// async scheme too; workloads report writes through Async(m).MarkDirty.
func (s *System) NewMapping(name string, size uint64) (*daxfs.DaxMap, error) {
	if _, err := s.FS.Create(name, size); err != nil {
		return nil, err
	}
	m, err := s.FS.MMap(name)
	if err != nil {
		return nil, err
	}
	if s.Cfg.Design == param.Vilamb {
		v, err := swred.AttachVilambRaw(s.FS, m, s.Cfg.Async)
		if err != nil {
			return nil, err
		}
		s.Vilambs = append(s.Vilambs, v)
	}
	return m, nil
}

// Async returns the asynchronous scheme attached to mapping m (nil when
// the design is not Vilamb or m has no scheme).
func (s *System) Async(m *daxfs.DaxMap) *swred.Vilamb {
	for _, v := range s.Vilambs {
		if v.Mapping() == m {
			return v
		}
	}
	return nil
}

// Workload is one application workload (one row group of Table II).
type Workload interface {
	// Name is the figure label, e.g. "redis/set".
	Name() string
	// Setup builds files/heaps and preloads data. It may run cores.
	Setup(s *System) error
	// Workers returns the measured fixed work, one function per core slot
	// (nil entries idle the core).
	Workers(s *System) []func(*sim.Core)
}

// Observation selects the telemetry attached to a measured run. The zero
// value disables everything and leaves the run's results byte-identical to
// an unobserved run — both the sampler and the tracer are strictly
// read-only.
type Observation struct {
	// SampleEvery, when non-zero, attaches an epoch sampler with the given
	// epoch length in cycles; the run's Result carries the time series.
	SampleEvery uint64
	// Tracer, when non-nil, receives the measured run's simulation events
	// (setup traffic is not traced).
	Tracer obs.Tracer
	// Probe, when non-nil, receives cumulative (cycles, accesses) at every
	// weave-phase boundary — live wall-clock telemetry (internal/live), strictly read-only. Unlike the sampler
	// and tracer it attaches before setup, so an operator watching /runs
	// sees liveness during long preloads too; the consumer must therefore
	// tolerate the cumulative values rebasing at ResetMeasurement
	// (live.Telemetry.CellProbe does).
	Probe func(cycles, accesses uint64)
}

// Run executes one workload on a fresh system with the given config,
// following the fixed-work methodology: setup, measurement reset, measured
// run (which drains on completion). It returns the collected statistics.
func Run(cfg *param.Config, w Workload) (*Result, error) {
	return RunObserved(cfg, w, Observation{})
}

// RunObserved is Run with telemetry: the sampler and tracer attach after
// setup and the measurement reset, so they cover exactly the fixed-work
// region the statistics cover.
func RunObserved(cfg *param.Config, w Workload, ob Observation) (*Result, error) {
	return RunObservedCtx(nil, cfg, w, ob)
}

// RunObservedCtx is RunObserved under a context: the context installs on
// the engine before setup, so cancellation stops either the setup or the
// measured run cooperatively at its next phase boundary. A cancelled or
// panicked run returns the engine's error (wrapping context.Canceled,
// context.DeadlineExceeded, or a *sim.WorkloadPanicError) and no result.
// A nil ctx behaves exactly like RunObserved.
func RunObservedCtx(ctx context.Context, cfg *param.Config, w Workload, ob Observation) (*Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: building system for %s: %w", w.Name(), err)
	}
	if ctx != nil {
		s.Eng.SetContext(ctx)
	}
	s.Eng.Probe = ob.Probe
	if err := w.Setup(s); err != nil {
		return nil, fmt.Errorf("harness: setup of %s: %w", w.Name(), err)
	}
	if err := s.Eng.Err(); err != nil {
		return nil, fmt.Errorf("harness: setup of %s: %w", w.Name(), err)
	}
	s.Eng.ResetMeasurement()
	var smp *obs.Sampler
	if ob.SampleEvery > 0 {
		smp = obs.NewSampler(ob.SampleEvery)
		s.Eng.AttachSampler(smp)
	}
	s.Eng.Tracer = ob.Tracer
	s.Eng.Run(s.WithDaemons(w.Workers(s)))
	if err := s.Eng.Err(); err != nil {
		return nil, fmt.Errorf("harness: measured run of %s: %w", w.Name(), err)
	}
	st := s.Eng.St.Clone()
	r := &Result{Workload: w.Name(), Design: cfg.Design, Stats: st}
	if smp != nil {
		r.Series = smp.Samples()
	}
	return r, nil
}

// WithDaemons augments a worker list with the Vilamb daemons (if any): the
// daemons run on the spare core(s) and stop, after a final reconciliation
// pass, once every application worker has finished. The engine is
// single-stepped, so the shared flag needs no synchronization.
func (s *System) WithDaemons(workers []func(*sim.Core)) []func(*sim.Core) {
	if len(s.Vilambs) == 0 {
		return workers
	}
	stop := false
	remaining := 0
	wrapped := make([]func(*sim.Core), len(workers), s.Cfg.Cores)
	for i, w := range workers {
		if w == nil {
			continue
		}
		remaining++
		w := w
		wrapped[i] = func(c *sim.Core) {
			w(c)
			remaining--
			if remaining == 0 {
				stop = true
			}
		}
	}
	// No measured work at all (every slot nil or an empty list): nothing
	// will ever flip stop, so the daemons would spin forever. Start them
	// stopped; they still run their final reconciliation pass.
	if remaining == 0 {
		stop = true
	}
	daemons := min(param.VilambDaemonCores, len(s.Vilambs))
	if len(wrapped)+daemons > s.Cfg.Cores {
		panic("harness: no spare cores for the Vilamb daemons")
	}
	// The daemon pool splits the schemes round-robin. Each pool paces
	// itself by its schemes' epoch (they all share the system's Async
	// config, but tests may override one instance's EpochCyc, so take the
	// pool minimum); incremental mode wakes up incrementalSlices times per
	// epoch and drains a share of the pending lines each wake.
	for d := 0; d < daemons; d++ {
		var vs []*swred.Vilamb
		epoch := uint64(0)
		incremental := false
		for i := d; i < len(s.Vilambs); i += daemons {
			v := s.Vilambs[i]
			vs = append(vs, v)
			if epoch == 0 || v.EpochCyc < epoch {
				epoch = v.EpochCyc
			}
			incremental = incremental || v.Config().Incremental
		}
		subs := uint64(1)
		if incremental {
			subs = swred.IncrementalSlices
		}
		interval := max(1, epoch/subs)
		wrapped = append(wrapped, func(c *sim.Core) {
			const slice = 10000 // interruptible sleep so daemon idle time does not pad the fixed-work runtime
			sub := uint64(0)
			for !stop {
				for slept := uint64(0); !stop && slept < interval; {
					step := min(slice, interval-slept)
					c.Compute(step)
					slept += step
				}
				sub++
				for _, v := range vs {
					if sub%subs == 0 {
						v.ProcessEpoch(c)
					} else {
						v.ProcessPartial(c, int(subs-sub%subs))
					}
				}
			}
			for _, v := range vs {
				v.ProcessEpoch(c) // reconcile the tail
			}
		})
	}
	return wrapped
}
