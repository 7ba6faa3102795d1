// Package experiments is the registry that maps every table and figure of
// the paper's evaluation to a runnable experiment over the harness and the
// seven applications (see DESIGN.md §3 for the index).
//
// Every experiment enumerates its independent (workload × design × variant)
// cells declaratively and hands them to one shared harness.Runner, which
// executes them across a bounded worker pool and reassembles the table in
// enumeration order — so the rendered tables are byte-identical at any
// parallelism level.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tvarak/internal/apps/fio"
	"tvarak/internal/apps/kvtrees"
	"tvarak/internal/apps/nstore"
	"tvarak/internal/apps/redispm"
	"tvarak/internal/apps/stream"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/obs"
	"tvarak/internal/param"
)

// Options tune how experiments run.
type Options struct {
	// FullScale uses the paper's Table III machine (24 MB LLC) instead of
	// the 1/16-scale reproduction machine. Workload footprints do not
	// change, so full-scale runs are meaningful mainly for sizing studies.
	FullScale bool
	// Scale multiplies measured operation counts (1.0 = default).
	Scale float64
	// Designs restricts which designs run (nil = all four). Experiments
	// never mutate this slice.
	Designs []param.Design
	// Async shapes every Vilamb-design cell's machine: epoch interval,
	// dirty-tracking granularity, battery preset and recomputation mode
	// (the ext-async sweeps own their epoch/granularity axes and take only
	// the recomputation mode from here). The zero value is the classic
	// Vilamb sketch and leaves Scope strings and cell fingerprints
	// identical to their pre-async forms.
	Async param.AsyncConfig
	// Parallel bounds how many cells simulate concurrently: 0 means one
	// per CPU, 1 means sequential. Results are identical at any level.
	Parallel int
	// SampleEvery, when non-zero, samples every cell's measured run into
	// an epoch time series of the given cycle granularity; the series
	// rides on each Result and lands in the machine-readable export.
	SampleEvery uint64
	// Tracer, when non-nil, receives every cell's measured simulation
	// events, stamped with the cell's workload/design/variant label. It
	// must be safe for concurrent Trace calls when Parallel != 1.
	Tracer obs.Tracer
	// Context, when non-nil, cancels the run cooperatively: in-flight
	// cells stop at their next simulation phase boundary, completed
	// results are kept, and the table's Manifest reports the
	// interruption.
	Context context.Context
	// Journal, when non-nil, makes the run crash-safe: each completed
	// cell's result is journaled durably, and a resumed run (the same
	// journal reopened) restores journaled cells instead of re-simulating
	// them. Fingerprints are scoped by experiment id, Scale and
	// FullScale, so changing any of those re-runs rather than
	// resurrecting stale results.
	Journal *harness.Journal
	// CellTimeout, when non-zero, bounds each cell's wall-clock time; a
	// cell that exceeds it is marked hung (with a goroutine dump in the
	// journal) and its worker slot is released.
	CellTimeout time.Duration
	// Degrade keeps an experiment going past failed cells: the table
	// renders them as explicit FAILED holes and the Manifest carries the
	// details, instead of the run aborting.
	Degrade bool
	// Live, when non-nil, streams per-cell lifecycle and phase-boundary
	// progress into the wall-clock telemetry bundle served at -ops-addr
	// (/metrics and /runs). Strictly read-only: attaching it changes no
	// result.
	Live *live.Telemetry
}

func (o Options) designs() []param.Design {
	if len(o.Designs) > 0 {
		return o.Designs
	}
	return param.Designs()
}

func (o Options) config(d param.Design) *param.Config {
	var c *param.Config
	if o.FullScale {
		c = param.Default(d)
	} else {
		c = param.ReproScale(d)
	}
	if d == param.Vilamb && !o.Async.IsZero() {
		c.Async = o.Async
	}
	return c
}

func (o Options) scale(n int) int {
	if o.Scale <= 0 {
		return n
	}
	if s := int(float64(n) * o.Scale); s > 0 {
		return s
	}
	return 1
}

// scaleBytes applies Scale to a byte count in uint64 throughout, avoiding
// the uint64→int round-trip that silently truncates large footprints on
// 32-bit builds.
func (o Options) scaleBytes(n uint64) uint64 {
	if o.Scale <= 0 {
		return n
	}
	if s := uint64(float64(n) * o.Scale); s > 0 {
		return s
	}
	return 1
}

// Scope namespaces journal fingerprints: the experiment id plus every
// option that changes what a cell simulates. (Designs and SampleEvery
// already shape each cell's own fingerprint.) The fleet's gateway/worker
// handshake compares Scope strings to reject version- or option-skewed
// peers, and a journaled run resumes only under the same Scope.
func (o Options) Scope(id string) string {
	s := fmt.Sprintf("%s|scale=%g|full=%t", id, o.Scale, o.FullScale)
	if !o.Async.IsZero() {
		s += "|async=" + o.Async.Label()
	}
	return s
}

// runner is the harness.Runner the options describe.
func (o Options) runner() harness.Runner {
	return harness.Runner{
		Workers:     o.Parallel,
		Context:     o.Context,
		Journal:     o.Journal,
		CellTimeout: o.CellTimeout,
		Degrade:     o.Degrade,
		Live:        o.Live,
	}
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Paper string // which figure/table it reproduces
	Title string // rendered table title; a fleet merge reuses it so distributed output is byte-identical
	Run   func(o Options) (*harness.Table, error)
}

// Cells enumerates the experiment's independent simulation cells without
// running them, for callers that schedule cells themselves. It returns nil
// for ids outside the registry.
func (e Experiment) Cells(o Options) []harness.Cell {
	if b := cellBuilders[e.ID]; b != nil {
		return b(o)
	}
	return nil
}

// Plan enumerates the experiment's cells as a sweep plan under the
// options' scope and the experiment's title. A local run and a fleet job
// both execute this plan, so their tables are byte-identical.
func (e Experiment) Plan(o Options) *harness.SweepPlan {
	cells := e.Cells(o)
	for i := range cells {
		cells[i].SampleEvery = o.SampleEvery
		cells[i].Tracer = o.Tracer
	}
	p := harness.NewSweepPlan(o.Scope(e.ID), cells)
	p.Title = e.Title
	return p
}

// cellBuilders maps experiment ids to their cell enumerators.
var cellBuilders = map[string]func(Options) []harness.Cell{
	"fig8-redis":  fig8RedisCells,
	"fig8-kv":     fig8KVCells,
	"fig8-nstore": fig8NStoreCells,
	"fig8-fio":    fig8FioCells,
	"fig8-stream": fig8StreamCells,
	"fig9":        fig9Cells,
	"fig10a": func(o Options) []harness.Cell {
		return waySweepCells(o, func(cfg *param.Config, ways int) { cfg.Tvarak.RedundancyWays = ways })
	},
	"fig10b": func(o Options) []harness.Cell {
		return waySweepCells(o, func(cfg *param.Config, ways int) { cfg.Tvarak.DiffWays = ways })
	},
	"sec4g":          sec4GCells,
	"sec4h-dimms":    sec4HDimmsCells,
	"sec4h-tech":     sec4HTechCells,
	"ext-vilamb":     extVilambCells,
	"ext-async":      extAsyncCells,
	"ext-async-mini": extAsyncMiniCells,
}

// Experiments returns the full registry, in paper order.
func Experiments() []Experiment {
	exps := []Experiment{
		{ID: "fig8-redis", Paper: "Fig. 8(a)-(d): Redis set-only and get-only", Title: "Fig. 8(a)-(d) Redis"},
		{ID: "fig8-kv", Paper: "Fig. 8(e)-(h): C-Tree/B-Tree/RB-Tree insert-only and balanced", Title: "Fig. 8(e)-(h) key-value structures"},
		{ID: "fig8-nstore", Paper: "Fig. 8(i)-(l): N-Store YCSB read-heavy/balanced/update-heavy", Title: "Fig. 8(i)-(l) N-Store"},
		{ID: "fig8-fio", Paper: "Fig. 8(m)-(p): fio seq/rand reads and writes", Title: "Fig. 8(m)-(p) fio"},
		{ID: "fig8-stream", Paper: "Fig. 8(q)-(t): stream copy/scale/add/triad", Title: "Fig. 8(q)-(t) stream"},
		{ID: "fig9", Paper: "Fig. 9: impact of TVARAK's design choices", Title: "Fig. 9 design-choice ablation (vs Baseline)"},
		{ID: "fig10a", Paper: "Fig. 10(a): sensitivity to redundancy-caching LLC ways", Title: "Fig. 10(a) redundancy-caching way sensitivity"},
		{ID: "fig10b", Paper: "Fig. 10(b): sensitivity to data-diff LLC ways", Title: "Fig. 10(b) data-diff way sensitivity"},
		{ID: "sec4g", Paper: "§IV-G: exclusive caches (TVARAK without LLC data diffs)", Title: "§IV-G exclusive-cache TVARAK (no LLC data diffs)"},
		{ID: "sec4h-dimms", Paper: "§IV-H: 4 vs 8 NVM DIMMs", Title: "§IV-H NVM DIMM count (stream triad)"},
		{ID: "sec4h-tech", Paper: "§IV-H: Optane-like vs battery-backed-DRAM NVM", Title: "§IV-H NVM technology (stream triad)"},
		{ID: "ext-vilamb", Paper: "extension: Table I's Vilamb row (asynchronous epochs) vs the paper's designs", Title: "extension: Vilamb (asynchronous epochs) vs evaluated designs"},
		{ID: "ext-async", Paper: "extension: async-redundancy family mega-sweep (epoch × dirty granularity × battery preset, 7 apps)", Title: "extension: async family epoch/granularity mega-sweep"},
		{ID: "ext-async-mini", Paper: "extension: reduced async-family sweep (golden and CI fleet gate)", Title: "extension: async family sweep (reduced)"},
	}
	for i := range exps {
		e := exps[i]
		exps[i].Run = func(o Options) (*harness.Table, error) { return e.Plan(o).Run(o.runner()) }
	}
	return exps
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// designCells is the Fig. 8 shape: every workload under every design.
func designCells(o Options, mk []func() harness.Workload) []harness.Cell {
	var cells []harness.Cell
	for _, m := range mk {
		for _, d := range o.designs() {
			cells = append(cells, harness.Cell{Config: o.config(d), Make: m})
		}
	}
	return cells
}

func fig8RedisCells(o Options) []harness.Cell {
	mk := []func() harness.Workload{}
	for _, setOnly := range []bool{true, false} {
		mk = append(mk, func() harness.Workload {
			cfg := redispm.Default(setOnly)
			cfg.Ops = o.scale(cfg.Ops)
			return redispm.New(cfg)
		})
	}
	return designCells(o, mk)
}

func fig8KVCells(o Options) []harness.Cell {
	mk := []func() harness.Workload{}
	for _, st := range kvtrees.Structures() {
		for _, mix := range []kvtrees.Mix{kvtrees.InsertOnly, kvtrees.Balanced} {
			mk = append(mk, func() harness.Workload {
				cfg := kvtrees.Default(st, mix)
				cfg.Ops = o.scale(cfg.Ops)
				return kvtrees.New(cfg)
			})
		}
	}
	return designCells(o, mk)
}

func fig8NStoreCells(o Options) []harness.Cell {
	mk := []func() harness.Workload{}
	for _, mix := range nstore.Mixes() {
		mk = append(mk, func() harness.Workload {
			cfg := nstore.Default(mix)
			cfg.Txns = o.scale(cfg.Txns)
			return nstore.New(cfg)
		})
	}
	return designCells(o, mk)
}

func fig8FioCells(o Options) []harness.Cell {
	mk := []func() harness.Workload{}
	for _, pat := range []fio.Pattern{fio.Seq, fio.Rand} {
		for _, wr := range []bool{false, true} {
			mk = append(mk, func() harness.Workload {
				cfg := fio.Default(pat, wr)
				cfg.AccessBytes = o.scaleBytes(cfg.AccessBytes)
				return fio.New(cfg)
			})
		}
	}
	return designCells(o, mk)
}

func fig8StreamCells(o Options) []harness.Cell {
	mk := []func() harness.Workload{}
	for _, k := range stream.Kernels() {
		mk = append(mk, func() harness.Workload {
			cfg := stream.Default(k)
			cfg.ArrayBytes = o.scaleBytes(cfg.ArrayBytes) &^ 4095
			return stream.New(cfg)
		})
	}
	return designCells(o, mk)
}

// fig9Workloads is the paper's ablation set: one workload per application.
func fig9Workloads(o Options) []func() harness.Workload {
	return []func() harness.Workload{
		func() harness.Workload {
			cfg := redispm.Default(true)
			cfg.Ops = o.scale(cfg.Ops)
			return redispm.New(cfg)
		},
		func() harness.Workload {
			cfg := kvtrees.Default(kvtrees.CTree, kvtrees.InsertOnly)
			cfg.Ops = o.scale(cfg.Ops)
			return kvtrees.New(cfg)
		},
		func() harness.Workload {
			cfg := nstore.Default(nstore.BalancedMix)
			cfg.Txns = o.scale(cfg.Txns)
			return nstore.New(cfg)
		},
		func() harness.Workload {
			cfg := fio.Default(fio.Rand, true)
			cfg.AccessBytes = o.scaleBytes(cfg.AccessBytes)
			return fio.New(cfg)
		},
		func() harness.Workload {
			cfg := stream.Default(stream.Triad)
			cfg.ArrayBytes = o.scaleBytes(cfg.ArrayBytes) &^ 4095
			return stream.New(cfg)
		},
	}
}

// fig9Points are the cumulative design points of Fig. 9.
var fig9Points = []struct {
	Name  string
	Feats param.TvarakFeatures
}{
	{"naive", param.TvarakFeatures{}},
	{"+dax-cl-csums", param.TvarakFeatures{CacheLineChecksums: true}},
	{"+red-caching", param.TvarakFeatures{CacheLineChecksums: true, RedundancyCaching: true}},
	{"+data-diffs(tvarak)", param.FullTvarak()},
}

func fig9Cells(o Options) []harness.Cell {
	var cells []harness.Cell
	for _, mk := range fig9Workloads(o) {
		cells = append(cells, harness.Cell{Config: o.config(param.Baseline), Make: mk})
		for _, pt := range fig9Points {
			cfg := o.config(param.Tvarak)
			cfg.Tvarak.Features = pt.Feats
			cells = append(cells, harness.Cell{Config: cfg, Make: mk, Variant: pt.Name})
		}
	}
	return cells
}

func waySweepCells(o Options, set func(*param.Config, int)) []harness.Cell {
	var cells []harness.Cell
	for _, mk := range fig9Workloads(o) {
		cells = append(cells, harness.Cell{Config: o.config(param.Baseline), Make: mk})
		for _, ways := range []int{1, 2, 4, 6, 8} {
			cfg := o.config(param.Tvarak)
			set(cfg, ways)
			cells = append(cells, harness.Cell{
				Config:  cfg,
				Make:    mk,
				Variant: fmt.Sprintf("%d-way", ways),
			})
		}
	}
	return cells
}

func sec4GCells(o Options) []harness.Cell {
	var cells []harness.Cell
	for _, mk := range fig9Workloads(o) {
		cells = append(cells, harness.Cell{Config: o.config(param.Baseline), Make: mk})
		for _, pt := range []struct {
			name  string
			feats param.TvarakFeatures
		}{
			{"inclusive(full)", param.FullTvarak()},
			{"exclusive(no-diffs)", param.TvarakFeatures{CacheLineChecksums: true, RedundancyCaching: true}},
		} {
			cfg := o.config(param.Tvarak)
			cfg.Tvarak.Features = pt.feats
			cells = append(cells, harness.Cell{Config: cfg, Make: mk, Variant: pt.name})
		}
	}
	return cells
}

// extVilambCells compares the Vilamb extension against the paper's four
// designs on the transactional workloads it applies to (Table I's
// "configurable" overhead row).
func extVilambCells(o Options) []harness.Cell {
	mks := []func() harness.Workload{
		func() harness.Workload {
			cfg := redispm.Default(true)
			cfg.Ops = o.scale(cfg.Ops)
			return redispm.New(cfg)
		},
		func() harness.Workload {
			cfg := kvtrees.Default(kvtrees.CTree, kvtrees.InsertOnly)
			cfg.Ops = o.scale(cfg.Ops)
			return kvtrees.New(cfg)
		},
	}
	// Copy before appending Vilamb: o.designs() may return the caller's
	// Options.Designs slice, and appending in place would scribble over
	// its spare capacity.
	base := o.designs()
	designs := make([]param.Design, 0, len(base)+1)
	designs = append(designs, base...)
	designs = append(designs, param.Vilamb)
	var cells []harness.Cell
	for _, mk := range mks {
		for _, d := range designs {
			cells = append(cells, harness.Cell{Config: o.config(d), Make: mk})
		}
	}
	return cells
}

func sec4HDimmsCells(o Options) []harness.Cell {
	var cells []harness.Cell
	for _, dimms := range []int{4, 8} {
		for _, d := range o.designs() {
			cfg := o.config(d)
			cfg.NVM = param.OptaneLike(dimms).Mem
			cells = append(cells, harness.Cell{
				Config: cfg,
				Make: func() harness.Workload {
					scfg := stream.Default(stream.Triad)
					scfg.ArrayBytes = o.scaleBytes(scfg.ArrayBytes) &^ 4095
					return stream.New(scfg)
				},
				Variant: fmt.Sprintf("%d-DIMMs", dimms),
				Rename:  func(w string) string { return fmt.Sprintf("%s/%ddimm", w, dimms) },
			})
		}
	}
	return cells
}

func sec4HTechCells(o Options) []harness.Cell {
	var cells []harness.Cell
	for _, tech := range []param.NVMTech{param.OptaneLike(4), param.BatteryBackedDRAM(4)} {
		for _, d := range o.designs() {
			cfg := o.config(d)
			cfg.NVM = tech.Mem
			cells = append(cells, harness.Cell{
				Config: cfg,
				Make: func() harness.Workload {
					scfg := stream.Default(stream.Triad)
					scfg.ArrayBytes = o.scaleBytes(scfg.ArrayBytes) &^ 4095
					return stream.New(scfg)
				},
				Variant: tech.Name,
				Rename:  func(w string) string { return fmt.Sprintf("%s/%s", w, tech.Name) },
			})
		}
	}
	return cells
}
