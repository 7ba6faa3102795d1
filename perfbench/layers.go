package main

import (
	"strings"

	"tvarak/internal/stats"
)

// layerMetrics computes the per-layer counts and host times from the
// traced passes, and the figures that need untraced timing (throughput,
// tracing overhead) from the untraced passes of the same inputs. A layer
// the workload does not reach, or whose counters a campaign unit keeps to
// itself, reads 0.
func layerMetrics(plain, traced []*pass) map[string]float64 {
	var (
		st                          stats.Stats
		build, setup, measure, busy float64
		setupAcc                    uint64
		slots, tracedWall, units    float64
		unitWalls                   []float64
		timeouts, cells             int
		camp                        campaignTotals
	)
	for _, p := range traced {
		slots += float64(p.workers) * p.wall.Seconds()
		tracedWall += p.wall.Seconds()
		if p.campaign != nil {
			camp.add(p.campaign)
		}
		for _, c := range p.cells {
			cells++
			busy += c.wall.Seconds()
			build += c.build.Seconds()
			setup += c.setup.Seconds()
			measure += c.measure.Seconds()
			setupAcc += c.setupAccesses
			addStats(&st, &c.stats)
			if p.campaign != nil {
				units++
				unitWalls = append(unitWalls, c.wall.Seconds())
			}
			if c.timeout {
				timeouts++
			}
		}
	}
	var plainWall, plainAcc, over float64
	var attempted, failed int
	for _, p := range plain {
		plainWall += p.wall.Seconds()
		for _, c := range p.cells {
			plainAcc += float64(c.setupAccesses + c.stats.Loads + c.stats.Stores)
		}
		over += p.overheadPct / float64(len(plain))
	}
	for _, p := range append(append([]*pass(nil), plain...), traced...) {
		attempted += len(p.cells)
		failed += p.failed()
	}
	measAcc := st.Loads + st.Stores
	unitTail, _ := tail(unitWalls, tailBeyond)
	m := map[string]float64{
		"sim_accesses_per_s":  ratio(plainAcc, plainWall),
		"tvarak_overhead_pct": over,
		"failed_frac":         ratio(float64(failed), float64(attempted)),
		"trace.overhead_frac": ratio(tracedWall, plainWall) - 1,

		"harness.build_s":          build,
		"harness.cells":            float64(cells),
		"harness.runner_busy_frac": ratio(busy, slots),

		"setup.sim_accesses":  float64(setupAcc),
		"setup.ns_per_access": ratio(setup*1e9, float64(setupAcc)),

		"sim.measure_s":             measure,
		"sim.measure_accesses":      float64(measAcc),
		"sim.measure_ns_per_access": ratio(measure*1e9, float64(measAcc)),
		"sim.cycles":                float64(st.Cycles),
		"sim.load_stall_frac":       ratio(float64(st.LoadStallCyc), float64(st.ComputeCycles+st.LoadStallCyc+st.StoreIssueCyc)),
		"cache.l1_miss_ratio":       missRatio(st.Cache[stats.L1]),
		"cache.l2_miss_ratio":       missRatio(st.Cache[stats.L2]),
		"cache.llc_miss_ratio":      missRatio(st.Cache[stats.LLC]),
		"cache.tvarak_hit_ratio":    ratio(float64(st.Cache[stats.TvarakCache].Hits), float64(st.Cache[stats.TvarakCache].Total())),
		"core.fills":                float64(st.Fills),
		"core.writebacks":           float64(st.Writebacks),
		"core.diff_stashes":         float64(st.DiffStashes),
		"core.diff_evictions":       float64(st.DiffEvictions),
		"core.red_invalidations":    float64(st.RedInvalidations),
		"core.verify_extra_cyc":     float64(st.VerifyExtraCyc),
		"nvm.data_accesses":         float64(st.NVM.Data()),
		"nvm.red_accesses":          float64(st.NVM.Redundancy()),
		"nvm.red_per_data":          ratio(float64(st.NVM.Redundancy()), float64(st.NVM.Data())),
		"swred.epochs":              float64(st.AsyncEpochs),
		"swred.lines_reconciled":    float64(st.AsyncLinesReconciled + camp.windowLines),
		"swred.window_cyc_mean":     ratio(float64(st.AsyncWindowCyc+camp.windowCyc), float64(st.AsyncWindowLines+camp.windowLines)),
		"fault.units":               units,
		"fault.unit_p50_s":          median(unitWalls),
		"fault.unit_tail_s":         unitTail,
		"fault.fired":               float64(camp.fired),
		"fault.detected":            float64(camp.detected),
		"fault.recovered":           float64(camp.recovered),
		"fault.silent_baseline":     float64(camp.silent),
		"fault.undetected":          float64(camp.undetected),
		"fault.unrecovered":         float64(camp.unrecovered),
		"fault.crash_points":        float64(camp.crashPoints),
		"fault.timeouts":            float64(timeouts),
	}
	return m
}

// addStats accumulates the counters the per-layer metrics read.
func addStats(a, b *stats.Stats) {
	a.Cycles += b.Cycles
	for i := range a.Cache {
		a.Cache[i].Hits += b.Cache[i].Hits
		a.Cache[i].Misses += b.Cache[i].Misses
	}
	a.NVM.DataReads += b.NVM.DataReads
	a.NVM.DataWrites += b.NVM.DataWrites
	a.NVM.RedReads += b.NVM.RedReads
	a.NVM.RedWrites += b.NVM.RedWrites
	a.ComputeCycles += b.ComputeCycles
	a.LoadStallCyc += b.LoadStallCyc
	a.StoreIssueCyc += b.StoreIssueCyc
	a.Loads += b.Loads
	a.Stores += b.Stores
	a.VerifyExtraCyc += b.VerifyExtraCyc
	a.Writebacks += b.Writebacks
	a.Fills += b.Fills
	a.DiffStashes += b.DiffStashes
	a.DiffEvictions += b.DiffEvictions
	a.RedInvalidations += b.RedInvalidations
	a.AsyncEpochs += b.AsyncEpochs
	a.AsyncLinesReconciled += b.AsyncLinesReconciled
	a.AsyncWindowCyc += b.AsyncWindowCyc
	a.AsyncWindowLines += b.AsyncWindowLines
}

func missRatio(c stats.CacheCounter) float64 {
	return ratio(float64(c.Misses), float64(c.Total()))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerUnit gives a per-layer metric its unit from its name.
func layerUnit(name string) string {
	switch {
	case name == "sim_accesses_per_s":
		return "1/s"
	case name == "tvarak_overhead_pct":
		return "%"
	case name == "go.alloc_mb":
		return "MB"
	case name == "go.sched_latency_p99_us":
		return "us"
	case strings.HasSuffix(name, "ns_per_access"):
		return "ns"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_cyc"), strings.HasSuffix(name, "_cyc_mean"), name == "sim.cycles":
		return "cycles"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"),
		strings.HasSuffix(name, "_per_data"), strings.HasPrefix(name, "cpu."),
		strings.HasPrefix(name, "phase."):
		return "frac"
	}
	return "count"
}
