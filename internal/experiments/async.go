package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"tvarak/internal/apps/kvtrees"
	"tvarak/internal/harness"
	"tvarak/internal/obs"
	"tvarak/internal/param"
)

// asyncEpochs is the mega-sweep's epoch axis at the Table III 2.27 GHz
// clock: 1 µs, 10 µs, 100 µs and 1 ms between reconciliation passes. The
// epoch is also each design point's worst-case vulnerability window, so the
// axis spans Vilamb's "performance of no redundancy, coverage a knob" claim
// from nearly-synchronous to clearly-exposed.
var asyncEpochs = []uint64{2270, 22700, 227000, 2270000}

// asyncGrans is the dirty-tracking granularity axis: what the commit hook
// records, and therefore how much data each reconciliation pass touches.
var asyncGrans = []param.DirtyGran{param.GranPage, param.GranLine, param.GranRange}

// asyncSeven is the sweep's workload set: the Fig. 9 ablation set (one
// workload per application) widened to all seven campaign applications by
// adding the two remaining tree structures.
func asyncSeven(o Options) []func() harness.Workload {
	mks := fig9Workloads(o)
	for _, st := range []kvtrees.Structure{kvtrees.BTree, kvtrees.RBTree} {
		mks = append(mks, func() harness.Workload {
			cfg := kvtrees.Default(st, kvtrees.InsertOnly)
			cfg.Ops = o.scale(cfg.Ops)
			return kvtrees.New(cfg)
		})
	}
	return mks
}

// asyncGridCells enumerates one workload set against the async design
// family: Baseline and synchronous TVARAK anchor each workload, then every
// (epoch × granularity) Vilamb point, then the battery-backed-DRAM preset
// at each battery epoch (line-granular, staged intent checksums, zero
// vulnerability window). Options.Async contributes only the recomputation
// mode (Incremental): the sweep itself owns the epoch/granularity axes.
func asyncGridCells(o Options, mks []func() harness.Workload, epochs []uint64,
	grans []param.DirtyGran, batteryEpochs []uint64) []harness.Cell {
	var cells []harness.Cell
	for _, mk := range mks {
		cells = append(cells, harness.Cell{Config: o.config(param.Baseline), Make: mk})
		cells = append(cells, harness.Cell{Config: o.config(param.Tvarak), Make: mk})
		for _, ep := range epochs {
			for _, g := range grans {
				cfg := o.config(param.Vilamb)
				cfg.Async = param.AsyncConfig{EpochCyc: ep, DirtyGran: g, Incremental: o.Async.Incremental}
				cells = append(cells, harness.Cell{Config: cfg, Make: mk, Variant: cfg.Async.Label()})
			}
		}
		for _, ep := range batteryEpochs {
			cfg := o.config(param.Vilamb)
			cfg.Async = param.BatteryPreset(ep)
			cfg.Async.Incremental = o.Async.Incremental
			cells = append(cells, harness.Cell{Config: cfg, Make: mk, Variant: cfg.Async.Label()})
		}
	}
	return cells
}

// extAsyncCells is the full mega-sweep: 7 workloads × (Baseline, TVARAK,
// 4 epochs × 3 granularities of Vilamb, battery preset per epoch).
func extAsyncCells(o Options) []harness.Cell {
	return asyncGridCells(o, asyncSeven(o), asyncEpochs, asyncGrans, asyncEpochs)
}

// extAsyncMiniCells is the reduced sweep the golden regression test and the
// CI fleet gate run: two workload extremes (pointer-chasing c-tree inserts,
// sequential stream triad), two epochs, two granularities, one battery
// point. Small enough to simulate in seconds, wide enough to cross every
// axis of the family.
func extAsyncMiniCells(o Options) []harness.Cell {
	mks := []func() harness.Workload{asyncSeven(o)[1], asyncSeven(o)[4]}
	return asyncGridCells(o, mks,
		[]uint64{22700, 227000}, []param.DirtyGran{param.GranPage, param.GranLine},
		[]uint64{22700})
}

// parseAsyncVariant splits an AsyncConfig.Label-shaped variant
// ("ep22700/line+bat") into its epoch and series ("line+bat") parts.
func parseAsyncVariant(v string) (epoch uint64, series string, ok bool) {
	rest, found := strings.CutPrefix(v, "ep")
	if !found {
		return 0, "", false
	}
	num, series, found := strings.Cut(rest, "/")
	if !found || series == "" {
		return 0, "", false
	}
	epoch, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, "", false
	}
	return epoch, series, true
}

// AsyncFigures derives the async sweep's two figure panels from a finished
// table: runtime overhead vs epoch length, and the measured mean
// vulnerability window (cycles a dirty line stayed stale before its
// reconciliation) vs epoch length. One row per workload × granularity
// series, one column per epoch, both in first-appearance order so the
// panels are byte-identical at any parallelism. Returns nil
// when the table carries no async variants, so callers can apply it to any
// experiment's table unconditionally.
func AsyncFigures(tab *harness.Table) []obs.Figure {
	type point struct {
		overhead, window float64
		ok               bool
	}
	var (
		epochs []uint64
		rows   []string
		data   = map[string]map[uint64]point{}
	)
	seenEpoch := map[uint64]bool{}
	for _, r := range tab.Results {
		if r.Design != param.Vilamb || r.Failed() {
			continue
		}
		ep, series, ok := parseAsyncVariant(r.Variant)
		if !ok {
			continue
		}
		if !seenEpoch[ep] {
			seenEpoch[ep] = true
			// Insertion-sort into ascending order: the axis is tiny and the
			// result is independent of cell enumeration order.
			at := len(epochs)
			for i, e := range epochs {
				if ep < e {
					at = i
					break
				}
			}
			epochs = append(epochs[:at], append([]uint64{ep}, epochs[at:]...)...)
		}
		row := r.Workload + "/" + series
		if data[row] == nil {
			rows = append(rows, row)
			data[row] = map[uint64]point{}
		}
		window := 0.0
		if r.Stats.AsyncWindowLines > 0 && !strings.Contains(series, "+bat") {
			// Battery-preset points verify staged intent checksums at the
			// reconciliation pass, so their silent-vulnerability window is
			// zero by construction regardless of measured staleness.
			window = float64(r.Stats.AsyncWindowCyc) / float64(r.Stats.AsyncWindowLines)
		}
		data[row][ep] = point{overhead: tab.Overhead(r), window: window, ok: true}
	}
	if len(rows) == 0 {
		return nil
	}

	cols := make([]string, len(epochs))
	for i, ep := range epochs {
		cols[i] = fmt.Sprintf("%dcyc", ep)
	}
	overhead := obs.Figure{
		ID: "async-overhead-vs-epoch", Unit: "pct", Columns: cols,
		Title: "figure: async family runtime overhead vs epoch length",
	}
	window := obs.Figure{
		ID: "async-window-vs-epoch", Unit: "cyc", Columns: cols,
		Title: "figure: async family mean vulnerability window vs epoch length",
	}
	for _, row := range rows {
		or := obs.FigureRow{Label: row, Values: make([]float64, len(epochs))}
		wr := obs.FigureRow{Label: row, Values: make([]float64, len(epochs))}
		for i, ep := range epochs {
			p, ok := data[row][ep]
			if !ok {
				or.Holes |= 1 << uint(i)
				wr.Holes |= 1 << uint(i)
				continue
			}
			or.Values[i] = p.overhead
			wr.Values[i] = p.window
		}
		overhead.Rows = append(overhead.Rows, or)
		window.Rows = append(window.Rows, wr)
	}
	return []obs.Figure{overhead, window}
}
