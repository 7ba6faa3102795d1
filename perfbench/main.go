// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator and prints, as the last line of its
// standard output, one JSON object: whether the outputs it checked were
// correct, how many cells or campaign units it attempted and how many
// failed, and its metrics. With -trace 0 those are the end-to-end metrics
// listed in BENCHMARK.json; with -trace 1 they are the per-layer ones.
//
// A cell or unit fails on an error, a deadline overrun, an oracle verdict
// failure or a mismatch with a reference. "correct" turns false only for
// the reference checks: the goldens and recorded counters at the default
// seed, identical results from repeated and from traced passes. A failing
// oracle verdict is a defect the benchmark measures, in "failed".
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hotpath --seed 1 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - golden-sweep: the fig8-redis, fig8-stream, fig9 and ext-async-mini
//     cells at the scales of testdata/golden-*.txt, on two workers;
//   - hotpath: stream triad, fio rand-read and fio rand-write at scale 1.0
//     under Baseline and TVARAK, one cell at a time;
//   - campaign: consecutive oracle-judged fault campaigns over Baseline,
//     TVARAK and Vilamb, starting at the seed, two units at a time.
//
// A workload repeats its pass (the sweep, the six hotpath cells, one
// campaign) as often as fits -seconds seconds at the pass's nominal
// length, at least once, and reports the median pass. Times are host
// time; cycles and counters are simulated.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// defaultSeed is the seed at which the workloads reproduce the committed
// goldens, the recorded hotpath counters and tvarak-fault's default
// campaign.
const defaultSeed = 1

// traceDir receives a traced run's spans and CPU profile.
const traceDir = ".bench_build/trace"

// pass is one repetition of a workload's unit of work.
type pass struct {
	workers     int
	wall, cpu   time.Duration
	cells       []cellRec
	campaign    *campaignTotals // campaign passes only
	overheadPct float64         // mean TVARAK overhead of the full-TVARAK cells
	problems    []string        // failed reference checks
	notes       []string        // lines printed before the result
}

// timed runs f as the pass's measured work.
func (p *pass) timed(f func()) {
	c0, t0 := cpuTime(), time.Now()
	f()
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
}

func (p *pass) failed() int {
	n := 0
	for _, c := range p.cells {
		if c.fail != "" {
			n++
		}
	}
	return n
}

func (p *pass) setup() time.Duration {
	var d time.Duration
	for _, c := range p.cells {
		d += c.setup
	}
	return d
}

// workload is one named workload: run executes its pass k (tr is nil for
// an untraced pass), and nominal is how long a pass takes on the 2-core
// host the benchmark was tuned on. A workload whose set-up happens out of
// the benchmark's sight times it with setupProbe instead of summing its
// cells' Workload.Setup calls.
type workload struct {
	run        func(k int, tr *tracer, passID int) (*pass, error)
	nominal    time.Duration
	minPasses  int
	setupProbe func() (time.Duration, error)
}

// passes is how many passes fill a budget at the nominal pass time, at
// least minPasses. The count depends on the budget alone, never on how
// fast this host happens to be, so that every run of a workload does the
// same work: the same cells, the same campaign seeds, the same sample
// count.
func (w workload) passes(budget time.Duration) int {
	return max(w.minPasses, int((budget+w.nominal/2)/w.nominal))
}

func lookupWorkload(name string, seed int64, record string) (workload, error) {
	switch name {
	case "golden-sweep":
		// Two sweeps at least: the sweep's median cell sits where cell
		// times climb steeply (the light stream cells end there), and one
		// sweep's worth of samples leaves its value noisy.
		return workload{run: func(_ int, tr *tracer, id int) (*pass, error) {
			return goldenSweep(seed, tr, id)
		}, nominal: 25 * time.Second, minPasses: 2}, nil
	case "hotpath":
		return workload{run: func(_ int, tr *tracer, id int) (*pass, error) {
			return hotpath(seed, tr, id, record)
		}, nominal: 9 * time.Second, minPasses: 1}, nil
	case "campaign":
		return workload{run: func(k int, tr *tracer, id int) (*pass, error) {
			return campaign(seed+int64(k), unitDeadline, nil, tr, id)
		}, nominal: 700 * time.Millisecond, minPasses: 1, setupProbe: campaignSetup}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (have golden-sweep, hotpath, campaign)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: golden-sweep, hotpath or campaign")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the default seed checks outputs against the committed references")
	seconds := flag.Float64("seconds", 10, "how long to repeat the workload's pass")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of a traced run instead of the end-to-end ones")
	record := flag.String("record", "", "hotpath at the default seed: write its simulated counters to this file instead of checking them")
	flag.Parse()

	w, err := lookupWorkload(*name, *seed, *record)
	var res *result
	if err == nil && *trace == 1 {
		res, err = runTraced(w, *name, *seed, *seconds)
	} else if err == nil {
		res, err = runPlain(w, *seconds)
	}
	var out []byte
	if err == nil {
		out, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runPasses runs passes 0..n-1 of w untraced.
func runPasses(w workload, n int) ([]*pass, error) {
	var ps []*pass
	for k := 0; k < n; k++ {
		p, err := runPass(w, k, nil)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// runPass runs pass k of w; a campaign's pass k is the campaign at seed+k.
// Each pass starts from a collected heap, so that garbage one pass leaves
// behind weighs on neither the next pass's time nor its peak memory.
func runPass(w workload, k int, tr *tracer) (*pass, error) {
	runtime.GC()
	id := tr.begin("pass", 0, -1)
	defer tr.end(id)
	return w.run(k, tr, id)
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(w workload, seconds float64) (*result, error) {
	var setups []float64
	for i := 0; w.setupProbe != nil && i < 5; i++ {
		d, err := w.setupProbe()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	ps, err := runPasses(w, w.passes(budget(seconds)))
	if err != nil {
		return nil, err
	}
	res, samples := summarize(ps)
	var walls, cpus []float64
	for _, p := range ps {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		if w.setupProbe == nil {
			setups = append(setups, p.setup().Seconds())
		}
	}
	p50 := median(samples)
	tailV, pct := tail(samples, tailBeyond)
	fmt.Printf("%d passes; cell_tail_s is p%v of %d cell samples\n", len(ps), pct, len(samples))
	res.Metrics = map[string]metric{
		"wall_s":      {median(walls), "s"},
		"setup_s":     {median(setups), "s"},
		"cpu_s":       {median(cpus), "s"},
		"cell_p50_s":  {p50, "s"},
		"cell_tail_s": {tailV, "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"pass_frac":   {float64(res.Attempted-res.Failed) / float64(res.Attempted), "frac"},
	}
	return res, nil
}

// summarize prints what the passes report, checks that passes at the same
// seed simulated identical cells, and counts attempts and failures. It
// returns the result without metrics and every cell's wall seconds.
func summarize(ps []*pass) (*result, []float64) {
	res := &result{Correct: true}
	var samples []float64
	for k, p := range ps {
		if k == 0 || p.campaign != nil {
			for _, n := range p.notes {
				fmt.Println(n)
			}
		}
		if k == 0 && p.campaign == nil {
			for _, c := range p.cells {
				fmt.Printf("cell %-44s digest %s %s\n", c.label, c.digest, c.fail)
			}
		}
		if k > 0 && p.campaign == nil && !sameDigests(ps[0], p) {
			p.problems = append(p.problems, fmt.Sprintf("pass %d simulated differently from pass 0 at the same seed", k))
		}
		for _, pr := range p.problems {
			fmt.Println("CHECK FAILED:", pr)
			res.Correct = false
		}
		for _, c := range p.cells {
			samples = append(samples, c.wall.Seconds())
		}
		res.Attempted += len(p.cells)
		res.Failed += p.failed()
	}
	return res, samples
}

func sameDigests(a, b *pass) bool {
	if len(a.cells) != len(b.cells) {
		return false
	}
	for i := range a.cells {
		if a.cells[i].digest != b.cells[i].digest {
			return false
		}
	}
	return true
}

// runTraced is the traced run. Each of at least two passes runs twice,
// untraced and with spans, pprof labels and a CPU profile, in alternating
// order so that neither side always gets the colder process; the traced
// pass must simulate exactly what the untraced one did. It reports the
// per-layer metrics.
func runTraced(w workload, name string, seed int64, seconds float64) (*result, error) {
	tr := newTracer()
	var (
		plain, traced []*pass
		samples       []profSample
		profs         [][]byte
		goStats       goAcc
	)
	for k := 0; k < max(2, w.passes(budget(seconds)/2)); k++ {
		for side := 0; side < 2; side++ {
			if (side+k)%2 == 0 {
				p, err := runPass(w, k, nil)
				if err != nil {
					return nil, err
				}
				plain = append(plain, p)
				continue
			}
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
			g0 := readGo()
			p, err := runPass(w, k, tr)
			goStats.add(g0, readGo())
			pprof.StopCPUProfile()
			if err != nil {
				return nil, err
			}
			traced = append(traced, p)
			s, err := parseProfile(prof.Bytes())
			if err != nil {
				return nil, err
			}
			samples = append(samples, s...)
			profs = append(profs, prof.Bytes())
		}
	}

	res, _ := summarize(append(append([]*pass(nil), plain...), traced...))
	for k := range plain {
		if !sameDigests(plain[k], traced[k]) {
			fmt.Printf("CHECK FAILED: traced pass %d simulated differently from its untraced run\n", k)
			res.Correct = false
		}
	}
	m := layerMetrics(plain, traced)
	for k, v := range goStats.metrics() {
		m[k] = v
	}
	for k, v := range foldProfile(samples) {
		m[k] = v
	}
	for _, n := range spanNames {
		m["span."+n+"_self_s"] = 0
	}
	for n, d := range tr.selfTimes() {
		m["span."+n+"_self_s"] = d.Seconds()
	}
	res.Metrics = map[string]metric{}
	for k, v := range m {
		res.Metrics[k] = metric{v, layerUnit(k)}
	}
	writeTrace(tr, profs, name, seed)
	return res, nil
}

func budget(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// spanNames are the spans the tracer records.
var spanNames = []string{"pass", "cell", "build", "setup", "measure", "unit"}

// writeTrace keeps the traced run's spans and its CPU profiles, one per
// traced pass, for inspection with go tool pprof (which merges several
// profiles given together); failing to write them does not fail the run.
func writeTrace(tr *tracer, profs [][]byte, name string, seed int64) {
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", name, seed))
	err := os.MkdirAll(traceDir, 0o755)
	for k, prof := range profs {
		if err == nil {
			err = os.WriteFile(fmt.Sprintf("%s-pass%d.cpu.pprof", base, k), prof, 0o644)
		}
	}
	if err == nil {
		var b bytes.Buffer
		if err = tr.writeSpans(&b); err == nil {
			err = os.WriteFile(base+".spans.jsonl", b.Bytes(), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: keeping trace:", err)
	}
}
