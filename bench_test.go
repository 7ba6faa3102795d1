// Benchmarks regenerating every table and figure of the paper's evaluation
// (§IV). Each benchmark runs one experiment of the registry end to end —
// all designs, fixed-work methodology — and reports the headline relative
// overheads as custom metrics, so `go test -bench` output can be compared
// row by row against the paper (see EXPERIMENTS.md).
//
// Benchmarks default to a reduced operation-count scale so the full suite
// completes in minutes; set -benchtime=1x (the default here is fine) and
// raise benchScale for closer-to-paper runs.
package tvarak_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"tvarak"
	"tvarak/internal/apps/redispm"
	"tvarak/internal/apps/stream"
	"tvarak/internal/experiments"
	"tvarak/internal/harness"
	"tvarak/internal/param"
)

// benchScale reduces measured op counts for benchmark runs.
const benchScale = 0.25

// assertParallelDeterminism is the PR 1 determinism gate, run inside the
// benchmark itself: the experiment's cells (every app uses a fixed seed) at
// a tiny scale must render byte-identical tables sequentially and across a
// full worker pool. It runs before the timer starts.
func assertParallelDeterminism(b *testing.B, e tvarak.Experiment) {
	b.Helper()
	const checkScale = 0.02
	seq, err := e.Run(experiments.Options{Scale: checkScale, Parallel: 1})
	if err != nil {
		b.Fatal(err)
	}
	par, err := e.Run(experiments.Options{Scale: checkScale, Parallel: runtime.NumCPU()})
	if err != nil {
		b.Fatal(err)
	}
	if seq.String() != par.String() {
		b.Fatalf("benchmark cells not deterministic across -parallel:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}

// runExperiment executes one registry experiment and reports the TVARAK
// and software-scheme runtime overheads (fraction over Baseline) as
// benchmark metrics, plus the table itself via b.Log on the first run.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := tvarak.LookupExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	assertParallelDeterminism(b, e)
	b.ReportAllocs()
	b.ResetTimer()
	// Cells fan out across the CPUs through the parallel runner; the
	// reassembled table (and therefore every reported metric) is identical
	// to a sequential run's.
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(experiments.Options{Scale: benchScale, Parallel: runtime.NumCPU()})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			report(b, tab)
		}
	}
}

// report emits per-design average overhead metrics.
func report(b *testing.B, tab *tvarak.ResultTable) {
	type agg struct {
		sum float64
		n   int
	}
	perDesign := map[param.Design]*agg{}
	for _, r := range tab.Results {
		if r.Design == param.Baseline || r.Variant != "" {
			continue
		}
		a := perDesign[r.Design]
		if a == nil {
			a = &agg{}
			perDesign[r.Design] = a
		}
		a.sum += tab.Overhead(r)
		a.n++
	}
	for d, a := range perDesign {
		if a.n > 0 {
			b.ReportMetric(100*a.sum/float64(a.n), fmt.Sprintf("%%over-base/%s", d))
		}
	}
}

// Fig. 8: runtime, energy, NVM accesses and cache accesses per application.

func BenchmarkFig8Redis(b *testing.B)  { runExperiment(b, "fig8-redis") }
func BenchmarkFig8KV(b *testing.B)     { runExperiment(b, "fig8-kv") }
func BenchmarkFig8NStore(b *testing.B) { runExperiment(b, "fig8-nstore") }
func BenchmarkFig8Fio(b *testing.B)    { runExperiment(b, "fig8-fio") }
func BenchmarkFig8Stream(b *testing.B) { runExperiment(b, "fig8-stream") }

// Fig. 9: design-choice ablation (naive → +DAX-CL → +caching → +diffs).

func BenchmarkFig9Ablation(b *testing.B) { runExperiment(b, "fig9") }

// Fig. 10: sensitivity to the LLC way-partition sizes.

func BenchmarkFig10Redundancy(b *testing.B) { runExperiment(b, "fig10a") }
func BenchmarkFig10Diff(b *testing.B)       { runExperiment(b, "fig10b") }

// §IV-G: exclusive-cache TVARAK (no data diffs).

func BenchmarkSec4GExclusive(b *testing.B) { runExperiment(b, "sec4g") }

// §IV-H: DIMM count and NVM technology sweeps.

func BenchmarkSec4HDimms(b *testing.B) { runExperiment(b, "sec4h-dimms") }
func BenchmarkSec4HTech(b *testing.B)  { runExperiment(b, "sec4h-tech") }

// Single-cell end-to-end benchmarks: ONE (workload, design) cell through
// the full fixed-work methodology (system build, setup, measured run).
// This is the unit the campaign and experiment runners multiply by
// thousands, so its ns/op and allocs/op are the headline hot-path numbers
// that tools/benchdiff gates against BENCH_8.json. sim-cycles is the
// simulated runtime — deterministic, so any drift is a correctness signal,
// not noise.

func benchSingleCell(b *testing.B, d tvarak.Design, mk func() harness.Workload) {
	b.Helper()
	cfg := tvarak.ReproScaleConfig(d)
	b.ReportAllocs()
	b.ResetTimer()
	var cycles, ops uint64
	for i := 0; i < b.N; i++ {
		r, err := harness.Run(cfg, mk())
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Stats.Cycles
		ops = r.Stats.Loads + r.Stats.Stores
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
	b.ReportMetric(float64(ops), "sim-accesses")
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(ops)*float64(b.N)/elapsed, "accesses/sec")
	}
}

func streamTriadCell() harness.Workload {
	cfg := stream.Default(stream.Triad)
	cfg.ArrayBytes = uint64(float64(cfg.ArrayBytes)*benchScale) &^ 4095
	return stream.New(cfg)
}

func redisSetCell() harness.Workload {
	cfg := redispm.Default(true)
	cfg.Ops = int(float64(cfg.Ops) * benchScale)
	return redispm.New(cfg)
}

func BenchmarkCellStreamTriadBaseline(b *testing.B) {
	benchSingleCell(b, tvarak.DesignBaseline, streamTriadCell)
}

func BenchmarkCellStreamTriadTvarak(b *testing.B) {
	benchSingleCell(b, tvarak.DesignTvarak, streamTriadCell)
}

func BenchmarkCellRedisSetBaseline(b *testing.B) {
	benchSingleCell(b, tvarak.DesignBaseline, redisSetCell)
}

func BenchmarkCellRedisSetTvarak(b *testing.B) {
	benchSingleCell(b, tvarak.DesignTvarak, redisSetCell)
}

// BenchmarkRecoveryLatency measures the parity-reconstruction path itself:
// cycles to detect and recover one corrupted line (Figs. 1-2 machinery).
func BenchmarkRecoveryLatency(b *testing.B) {
	cfg := tvarak.ReproScaleConfig(tvarak.DesignTvarak)
	m, err := tvarak.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dm, err := m.NewMapping("bench", 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	eng := m.Engine()
	data := bytes.Repeat([]byte{0x5a}, 64)
	eng.Run([]func(*tvarak.Core){func(c *tvarak.Core) {
		for off := uint64(0); off < 1<<20; off += 64 {
			dm.Store(c, off, data)
		}
	}})
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		off := uint64(i%16384) * 64
		// A pattern guaranteed to differ from both the initial fill and
		// any earlier iteration's content of this line (byte 2 is 0xA1,
		// never 0x5a; bytes 0-1 encode the iteration).
		fresh := bytes.Repeat([]byte{0xA1}, 64)
		fresh[0], fresh[1] = byte(i), byte(i>>8)
		eng.DropCaches()
		eng.NVM.InjectLostWrite(dm.Addr(off))
		eng.Run([]func(*tvarak.Core){func(c *tvarak.Core) {
			dm.Store(c, off, fresh) // lost
		}})
		eng.DropCaches()
		eng.ResetMeasurement()
		eng.Run([]func(*tvarak.Core){func(c *tvarak.Core) {
			buf := make([]byte, 64)
			dm.Load(c, off, buf)
		}})
		if eng.St.Recoveries != 1 {
			b.Fatalf("iteration %d: recoveries = %d, want 1", i, eng.St.Recoveries)
		}
		cycles += eng.St.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/recovery")
}
