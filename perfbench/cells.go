package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tvarak/internal/apps/fio"
	"tvarak/internal/apps/kvtrees"
	"tvarak/internal/apps/nstore"
	"tvarak/internal/apps/redispm"
	"tvarak/internal/apps/stream"
	"tvarak/internal/experiments"
	"tvarak/internal/harness"
	"tvarak/internal/param"
	"tvarak/internal/stats"
)

// cellDeadline bounds one simulation cell's wall time. The slowest cell
// of any workload takes a few seconds; a cell past this is hung, and
// counts as failed.
const cellDeadline = 60 * time.Second

// cellRec is what the benchmark observed about one cell or campaign unit.
type cellRec struct {
	label                 string
	wall                  time.Duration
	build, setup, measure time.Duration
	setupAccesses         uint64
	stats                 stats.Stats
	digest                string // of the simulated counters or the unit report
	fail                  string // "" when the cell passed every check
	timeout               bool
}

// reseed sets the seed of every workload the sweeps build. The apps'
// default seed is 1, so seed 1 leaves each cell exactly as the registry
// enumerates it.
func reseed(w harness.Workload, seed int64) {
	switch w := w.(type) {
	case *redispm.Workload:
		w.Cfg.Seed = seed
	case *kvtrees.Workload:
		w.Cfg.Seed = seed
	case *nstore.Workload:
		w.Cfg.Seed = seed
	case *fio.Workload:
		w.Cfg.Seed = seed
	case *stream.Workload:
		w.Cfg.Seed = seed
	}
}

// runCell simulates one cell on a fresh machine, timing each call into the
// simulator: harness.NewSystem (build), Workload.Setup (setup) and
// sim.Engine.Run over the workload's workers (measure). It follows the
// harness's fixed-work method (setup, measurement reset, measured run)
// step for step, so its result is the one harness.Run returns. An error
// or a panic fails the cell instead of the benchmark.
func runCell(c harness.Cell, i int, seed int64, tr *tracer, parent int) (r *harness.Result, rec cellRec) {
	start := time.Now()
	w := c.Make()
	reseed(w, seed)
	rec.label = w.Name() + "/" + c.Config.Design.String()
	if c.Variant != "" {
		rec.label += "[" + c.Variant + "]"
	}
	id := tr.begin("cell", parent, i)
	defer func() {
		if p := recover(); p != nil {
			rec.fail = fmt.Sprintf("panic: %v", p)
		}
		rec.wall = time.Since(start)
		tr.end(id)
		if rec.fail != "" {
			r = harness.FailureResult(c, i, &harness.CellFailure{Index: i, Label: rec.label, Err: rec.fail})
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), cellDeadline)
	defer cancel()

	var s *harness.System
	var err error
	rec.build = tr.phase("build", id, i, func() { s, err = harness.NewSystem(c.Config) })
	if err == nil {
		s.Eng.SetContext(ctx)
		rec.setup = tr.phase("setup", id, i, func() { err = w.Setup(s) })
		if err == nil {
			err = s.Eng.Err()
		}
	}
	if err == nil {
		rec.setupAccesses = s.Eng.St.Loads + s.Eng.St.Stores
		s.Eng.ResetMeasurement()
		rec.measure = tr.phase("measure", id, i, func() { s.Eng.Run(s.WithDaemons(w.Workers(s))) })
		err = s.Eng.Err()
	}
	if err != nil {
		rec.fail = err.Error()
		rec.timeout = errors.Is(err, context.DeadlineExceeded)
		return nil, rec
	}
	rec.stats = s.Eng.St.Clone()
	rec.digest = digest(rec.stats)
	r = &harness.Result{Workload: w.Name(), Design: c.Config.Design, Variant: c.Variant, Stats: rec.stats}
	if c.Rename != nil {
		r.Workload = c.Rename(r.Workload)
	}
	return r, rec
}

// runCells runs cells on a harness.Runner with the given worker count and
// returns their results and records in cell order.
func runCells(cells []harness.Cell, workers int, seed int64, tr *tracer, parent int) ([]*harness.Result, []cellRec) {
	rs := make([]*harness.Result, len(cells))
	recs := make([]cellRec, len(cells))
	_ = harness.Runner{Workers: workers}.ForEach(len(cells), func(i int) error {
		rs[i], recs[i] = runCell(cells[i], i, seed, tr, parent)
		return nil // a failed cell is recorded, and never stops the others
	})
	return rs, recs
}

// digest fingerprints a value's JSON form, so that runs at the same seed
// can be compared cell by cell.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable"
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// isFullTvarak reports whether a cell runs the complete TVARAK design, the
// cells whose overhead the paper's headline numbers describe.
func isFullTvarak(c harness.Cell) bool {
	return c.Config.Design == param.Tvarak && c.Config.Tvarak.Features == param.FullTvarak()
}

// goldenExps is the fixed sweep at the scales of the committed goldens.
var goldenExps = []struct {
	id    string
	scale float64
}{
	{"fig8-redis", 0.02},
	{"fig8-stream", 0.05},
	{"fig9", 0.02},
	{"ext-async-mini", 0.02},
}

// goldenSweep runs every cell of the golden experiments on two workers. At
// the default seed each rendered table must equal its golden byte for
// byte; a row that differs fails its cell.
func goldenSweep(seed int64, tr *tracer, passID int) (*pass, error) {
	type group struct {
		exp        experiments.Experiment
		first, end int
	}
	var (
		groups []group
		cells  []harness.Cell
	)
	for _, g := range goldenExps {
		e, err := experiments.Lookup(g.id)
		if err != nil {
			return nil, err
		}
		cs := e.Cells(experiments.Options{Scale: g.scale})
		groups = append(groups, group{exp: e, first: len(cells), end: len(cells) + len(cs)})
		cells = append(cells, cs...)
	}
	p := &pass{workers: 2}
	var rs []*harness.Result
	p.timed(func() { rs, p.cells = runCells(cells, p.workers, seed, tr, passID) })

	var over []float64
	for _, g := range groups {
		tab := &harness.Table{Title: g.exp.Title}
		for _, r := range rs[g.first:g.end] {
			tab.Add(r)
		}
		for i, r := range rs[g.first:g.end] {
			if !r.Failed() && isFullTvarak(cells[g.first+i]) {
				over = append(over, 100*tab.Overhead(r))
			}
		}
		got := tab.String()
		for _, f := range experiments.AsyncFigures(tab) {
			got += "\n" + f.String()
		}
		if seed != defaultSeed {
			continue
		}
		path := filepath.Join("testdata", "golden-"+g.exp.ID+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			p.problems = append(p.problems, fmt.Sprintf("reading golden: %v", err))
			continue
		}
		if got == string(want) {
			continue
		}
		p.problems = append(p.problems, fmt.Sprintf("%s differs from %s", g.exp.ID, path))
		gotL, wantL := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		rowDiffers := false
		for i := g.first; i < g.end; i++ {
			l := 2 + i - g.first // title and header precede the rows
			if l >= len(gotL) || l >= len(wantL) || gotL[l] != wantL[l] {
				rowDiffers = true
				failCell(&p.cells[i], "golden mismatch")
			}
		}
		if !rowDiffers { // a derived figure panel differs: blame the whole table
			for i := g.first; i < g.end; i++ {
				failCell(&p.cells[i], "golden mismatch")
			}
		}
	}
	p.overheadPct = mean(over)
	return p, nil
}

func failCell(c *cellRec, why string) {
	if c.fail == "" {
		c.fail = why
	}
}

// hotpathApps are the hotpath's workloads with the TVARAK overhead the
// paper publishes for them (Fig. 8) and the overhead EXPERIMENTS.md
// records for this model at scale 1.0.
var hotpathApps = []struct {
	name, paper string
	repo        float64
}{
	{"stream/triad", "+6-21% (all four stream kernels)", 46.9},
	{"fio/rand-read", "+2%", 3.9},
	{"fio/rand-write", "+33%", 35.2},
}

//go:embed hotpath_counters.json
var hotpathCountersJSON []byte

// hotpathCounters is the simulated outcome of every hotpath cell at the
// default seed: its measured counters and its setup's simulated accesses.
type hotpathCounters map[string]hotpathCell

type hotpathCell struct {
	SetupAccesses uint64
	Stats         stats.Stats
}

// hotpathCells returns the hotpath's cells from the Fig. 8 registry at
// scale 1.0: each app under Baseline and TVARAK, Baseline first.
func hotpathCells() ([]harness.Cell, error) {
	o := experiments.Options{Scale: 1, Designs: []param.Design{param.Baseline, param.Tvarak}}
	var cells []harness.Cell
	for _, id := range []string{"fig8-stream", "fig8-fio"} {
		e, err := experiments.Lookup(id)
		if err != nil {
			return nil, err
		}
		for _, c := range e.Cells(o) {
			name := c.Make().Name()
			for _, a := range hotpathApps {
				if a.name == name {
					cells = append(cells, c)
				}
			}
		}
	}
	return cells, nil
}

// hotpath runs its cells one at a time. At the default seed every cell's
// counters must equal the recorded ones and each app's TVARAK overhead
// must round to the value EXPERIMENTS.md reports; record, when non-empty,
// names a file to write the counters to instead of checking them.
func hotpath(seed int64, tr *tracer, passID int, record string) (*pass, error) {
	cells, err := hotpathCells()
	if err != nil {
		return nil, err
	}
	p := &pass{workers: 1}
	var rs []*harness.Result
	p.timed(func() { rs, p.cells = runCells(cells, p.workers, seed, tr, passID) })

	tab := &harness.Table{}
	for _, r := range rs {
		tab.Add(r)
	}
	var over []float64
	for i, r := range rs {
		if r.Failed() || !isFullTvarak(cells[i]) {
			continue
		}
		o := 100 * tab.Overhead(r)
		over = append(over, o)
		for _, a := range hotpathApps {
			if a.name != r.Workload {
				continue
			}
			p.notes = append(p.notes, fmt.Sprintf(
				"model %-15s TVARAK overhead %+.1f%%  paper Fig. 8 %s  EXPERIMENTS.md %+.1f%%",
				a.name, o, a.paper, a.repo))
			if seed == defaultSeed && fmt.Sprintf("%.1f", o) != fmt.Sprintf("%.1f", a.repo) {
				why := fmt.Sprintf("%s: overhead %+.1f%%, EXPERIMENTS.md has %+.1f%%", a.name, o, a.repo)
				failCell(&p.cells[i], why)
				p.problems = append(p.problems, why)
			}
		}
	}
	p.notes = append(p.notes, "model check: against the paper's published figures only, not against hardware; "+
		"stream's gap to the paper is EXPERIMENTS.md deviation 1")
	p.overheadPct = mean(over)
	if seed != defaultSeed {
		return p, nil
	}

	got := hotpathCounters{}
	for _, c := range p.cells {
		got[c.label] = hotpathCell{c.setupAccesses, c.stats}
	}
	if record != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return nil, err
		}
		return p, os.WriteFile(record, append(b, '\n'), 0o644)
	}
	var want hotpathCounters
	if err := json.Unmarshal(hotpathCountersJSON, &want); err != nil {
		return nil, fmt.Errorf("hotpath_counters.json: %w", err)
	}
	for i := range p.cells {
		c := &p.cells[i]
		if got[c.label] != want[c.label] {
			failCell(c, "simulated counters differ from hotpath_counters.json")
			p.problems = append(p.problems, c.label+": simulated counters differ from hotpath_counters.json")
		}
	}
	return p, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
