// benchdiff runs the repo's hot-path benchmark suite with fixed iteration
// counts and gates the results against a committed baseline (BENCH_8.json).
//
// Usage:
//
//	go run ./tools/benchdiff -out BENCH_8.json                 # (re)record baseline
//	go run ./tools/benchdiff -out new.json -baseline BENCH_8.json  # run + gate
//	go run ./tools/benchdiff -compare BENCH_8.json,new.json    # gate two files
//
// What is gated, and how strictly, follows from what is actually portable
// across machines and runs:
//
//   - allocs/op and B/op are properties of the code, not the machine: with
//     fixed -benchtime=Nx counts they are reproducible to within GC noise.
//     A >10% (+small absolute slack) increase fails the gate.
//   - sim-cycles / sim-accesses / sim-cycles/recovery are SIMULATED time:
//     fully deterministic. Any drift at all fails — it means behaviour
//     changed, which the golden-table tests should also catch.
//   - ns/op is wall-clock and does NOT transfer across machines (or even
//     across hours on a loaded CI box; ±40% drift has been measured on the
//     same commit). It is reported for every benchmark but only enforced
//     when -ns-tol > 0 (ci.sh exposes this as BENCH_NS_TOL for dedicated,
//     quiet machines).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// suite is one `go test -bench` invocation: a package, a benchmark filter,
// and a FIXED iteration count so allocs/op is reproducible (adaptive
// benchtime changes b.N between runs, which shifts amortised one-time
// allocations).
type suite struct {
	Pkg       string `json:"pkg"`
	Pattern   string `json:"pattern"`
	Benchtime string `json:"benchtime"`
}

var suites = []suite{
	{"tvarak/internal/cache", "LookupHitStride4|LookupHitStride12|LookupMiss|VictimLRUFullSet|Install|SetIndexStride12", "200000x"},
	{"tvarak/internal/xsum", "ChecksumLine|XORIntoLine|XORIntoPage|ParityDeltaLine", "100000x"},
	{"tvarak/internal/nvm", "New$|ReadLine$|ReadLineUntouched|WriteLine|ReadLineDRAM", "200000x"},
	{"tvarak/internal/sim", "LoadL1Hit|StoreL1Hit|LoadMissStream|StoreMissStream", "100000x"},
	{"tvarak/internal/core", "OnFillVerify|OnWriteback$", "20000x"},
	// One oracle-judged fault-campaign unit: machine, oracle shadow,
	// injections and end-of-unit verification.
	{"tvarak/internal/fault", "CampaignUnit", "5x"},
	// End-to-end cells: one full fixed-work (workload, design) run each.
	// These carry the deterministic sim-cycles/sim-accesses metrics.
	{"tvarak", "CellStreamTriadBaseline|CellStreamTriadTvarak|CellRedisSetBaseline|CellRedisSetTvarak", "1x"},
}

// result holds one benchmark's reported values, keyed by unit
// ("ns/op", "allocs/op", "sim-cycles", ...).
type result struct {
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

type report struct {
	Schema     string            `json:"schema"`
	Go         string            `json:"go"`
	Suites     []suite           `json:"suites"`
	Benchmarks map[string]result `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?$`)

func main() {
	out := flag.String("out", "", "write benchmark results (JSON) to this file")
	baseline := flag.String("baseline", "", "gate the fresh run against this baseline file")
	compare := flag.String("compare", "", "gate two existing files: baseline,new (no benchmarks are run)")
	nsTol := flag.Float64("ns-tol", 0, "wall-clock tolerance, e.g. 0.10 = fail ns/op regressions >10%; 0 disables the ns/op gate")
	flag.Parse()

	if *compare != "" {
		parts := strings.SplitN(*compare, ",", 2)
		if len(parts) != 2 {
			fatalf("-compare wants baseline,new")
		}
		old, err := load(parts[0])
		if err != nil {
			fatalf("%v", err)
		}
		fresh, err := load(parts[1])
		if err != nil {
			fatalf("%v", err)
		}
		os.Exit(diff(old, fresh, *nsTol))
	}

	rep, err := run()
	if err != nil {
		fatalf("%v", err)
	}
	if *out != "" {
		if err := save(*out, rep); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}
	if *baseline != "" {
		old, err := load(*baseline)
		if err != nil {
			fatalf("%v", err)
		}
		os.Exit(diff(old, rep, *nsTol))
	}
	if *out == "" {
		// Neither -out nor -baseline: print to stdout for inspection.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(2)
}

// run executes every suite and parses the standard bench output lines.
func run() (*report, error) {
	rep := &report{
		Schema:     "tvarak-bench/1",
		Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		Suites:     suites,
		Benchmarks: map[string]result{},
	}
	for _, s := range suites {
		fmt.Printf("benchdiff: %s -bench '%s' -benchtime %s\n", s.Pkg, s.Pattern, s.Benchtime)
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", s.Pattern, "-benchtime", s.Benchtime, "-benchmem",
			"-count", "1", s.Pkg)
		outBytes, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("%s: %v\n%s", s.Pkg, err, outBytes)
		}
		n := 0
		for _, line := range strings.Split(string(outBytes), "\n") {
			name, r, ok := parseLine(line)
			if !ok {
				continue
			}
			rep.Benchmarks[s.Pkg+"."+strings.TrimPrefix(name, "Benchmark")] = r
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("%s: pattern %q matched no benchmarks:\n%s", s.Pkg, s.Pattern, outBytes)
		}
	}
	return rep, nil
}

// parseLine parses one "BenchmarkName  N  v1 unit1  v2 unit2 ..." line.
func parseLine(line string) (string, result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return "", result{}, false
	}
	m := benchLine.FindStringSubmatch(f[0])
	if m == nil {
		return "", result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", result{}, false
	}
	r := result{Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", result{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return m[1], r, true
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}

func save(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// diff gates fresh against old and returns the process exit code.
func diff(old, fresh *report, nsTol float64) int {
	names := make([]string, 0, len(old.Benchmarks))
	for name := range old.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	fails := 0
	for _, name := range names {
		ob := old.Benchmarks[name]
		nb, ok := fresh.Benchmarks[name]
		if !ok {
			fmt.Printf("FAIL %s: present in baseline, missing from this run\n", name)
			fails++
			continue
		}
		units := make([]string, 0, len(ob.Metrics))
		for u := range ob.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, unit := range units {
			ov := ob.Metrics[unit]
			nv, ok := nb.Metrics[unit]
			if !ok {
				fmt.Printf("FAIL %s: metric %s missing from this run\n", name, unit)
				fails++
				continue
			}
			switch verdict(unit, ov, nv, nsTol) {
			case gateFail:
				fmt.Printf("FAIL %s: %s %s -> %s (%+.1f%%)\n",
					name, unit, fmtVal(ov), fmtVal(nv), pct(ov, nv))
				fails++
			case gateInfo:
				fmt.Printf("  ok %s: %s %s -> %s (%+.1f%%, not gated)\n",
					name, unit, fmtVal(ov), fmtVal(nv), pct(ov, nv))
			case gatePass:
				if nv != ov {
					fmt.Printf("  ok %s: %s %s -> %s (%+.1f%%)\n",
						name, unit, fmtVal(ov), fmtVal(nv), pct(ov, nv))
				}
			}
		}
	}
	for name := range fresh.Benchmarks {
		if _, ok := old.Benchmarks[name]; !ok {
			fmt.Printf("note %s: not in baseline (regenerate with UPDATE_BENCH=1 ./ci.sh)\n", name)
		}
	}
	if fails > 0 {
		fmt.Printf("benchdiff: %d regression(s) vs baseline\n", fails)
		return 1
	}
	fmt.Printf("benchdiff: %d benchmarks within budget\n", len(names))
	return 0
}

type gate int

const (
	gatePass gate = iota
	gateFail
	gateInfo
)

// verdict applies the per-unit gating policy described in the package
// comment.
func verdict(unit string, old, new, nsTol float64) gate {
	switch {
	case strings.HasPrefix(unit, "sim-"):
		// Simulated time and access counts are deterministic: exact match.
		if new != old {
			return gateFail
		}
		return gatePass
	case unit == "allocs/op":
		if new > old*1.10+2 {
			return gateFail
		}
		return gatePass
	case unit == "B/op":
		if new > old*1.10+128 {
			return gateFail
		}
		return gatePass
	case unit == "ns/op":
		if nsTol > 0 && new > old*(1+nsTol) {
			return gateFail
		}
		if nsTol > 0 {
			return gatePass
		}
		return gateInfo
	default:
		// accesses/sec and other wall-clock-derived extras: report only.
		return gateInfo
	}
}

func pct(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * (new - old) / old
}

func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
