package live

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tvarak/internal/applog"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddAt(w, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("Value = %v, want 3.5", got)
	}
	g.SetInt(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("Value = %v, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "help", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 111.5 {
		t.Fatalf("Sum = %v, want 111.5", h.Sum())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// le="1" is cumulative and inclusive: 0.5 and 1 both land at or below.
	for _, want := range []string{
		`h_bucket{le="1"} 2`,
		`h_bucket{le="5"} 3`,
		`h_bucket{le="10"} 4`,
		`h_bucket{le="+Inf"} 5`,
		`h_sum 111.5`,
		`h_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_things_total", "Things counted.")
	g := r.NewGauge("t_level", "Current level.")
	r.NewGaugeFunc("t_funcval", "Computed.", func() float64 { return 7 })
	c.Add(3)
	g.Set(1.25)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_things_total Things counted.
# TYPE t_things_total counter
t_things_total 3
# HELP t_level Current level.
# TYPE t_level gauge
t_level 1.25
# HELP t_funcval Computed.
# TYPE t_funcval gauge
t_funcval 7
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup_total", "")
}

func TestBoardLifecycle(t *testing.T) {
	b := NewBoard()
	var notified []CellEntry
	b.Notify = func(e CellEntry, done, total int) {
		notified = append(notified, e)
		if total != 3 {
			t.Errorf("notify total = %d, want 3", total)
		}
	}
	b.Begin("exp", 3)

	b.CellRunning(0, "a/base")
	b.CellProgress(0, 1000, 50)
	b.CellDone(0, 2000, 100)

	b.CellRunning(1, "b/base")
	b.CellRunning(1, "b/base")
	b.CellFailed(1, "b/base", "boom", true)

	b.CellRestored(2, "c/base", 5000, 250)

	s := b.Snapshot()
	if s.Experiment != "exp" || s.Total != 3 || s.Done != 3 || s.Failed != 1 {
		t.Fatalf("snapshot header = %+v", s)
	}
	if len(s.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(s.Cells))
	}
	c0, c1, c2 := s.Cells[0], s.Cells[1], s.Cells[2]
	if c0.State != StateDone || c0.Cycles != 2000 || c0.Accesses != 100 || c0.Attempts != 1 {
		t.Errorf("cell 0 = %+v", c0)
	}
	if c1.State != StateFailed || !c1.Hung || c1.Err != "boom" || c1.Attempts != 2 {
		t.Errorf("cell 1 = %+v", c1)
	}
	if c2.State != StateDone || !c2.FromJournal || c2.Accesses != 250 {
		t.Errorf("cell 2 = %+v", c2)
	}
	if len(notified) != 3 {
		t.Fatalf("notify fired %d times, want 3", len(notified))
	}
	// JSON round-trips (the /runs schema).
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
}

func TestBoardLateProgressHarmless(t *testing.T) {
	// A watchdog-abandoned goroutine may keep probing after Begin resets
	// the board for the next experiment; out-of-range and post-terminal
	// writes must not panic or skew counts.
	b := NewBoard()
	b.Begin("one", 2)
	b.CellRunning(1, "x")
	probe := func() { b.CellProgress(1, 9, 9) }
	b.Begin("two", 1) // old index 1 now out of range
	probe()
	b.CellProgress(5, 1, 1) // out of range entirely
	b.CellDone(0, 1, 1)
	b.CellDone(0, 2, 2) // double-terminal ignored
	s := b.Snapshot()
	if s.Done != 1 || s.Total != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Cells[0].Cycles != 1 {
		t.Fatalf("double-done overwrote totals: %+v", s.Cells[0])
	}
}

func TestCellProbeDeltasAndRebase(t *testing.T) {
	tl := NewTelemetry()
	tl.Board.Begin("p", 1)
	probe := tl.CellProbe(0)
	probe(100, 10)
	probe(300, 25)
	if got := tl.Engine.Accesses.Value(); got != 25 {
		t.Fatalf("accesses = %d, want 25", got)
	}
	if got := tl.Engine.Cycles.Value(); got != 300 {
		t.Fatalf("cycles = %d, want 300", got)
	}
	if got := tl.Engine.Phases.Value(); got != 2 {
		t.Fatalf("phases = %d, want 2", got)
	}
	// ResetMeasurement zeroes the engine stats: cumulative goes backwards,
	// the probe must rebase instead of underflowing.
	probe(50, 5)
	if got := tl.Engine.Accesses.Value(); got != 30 {
		t.Fatalf("accesses after rebase = %d, want 30", got)
	}
}

func TestServerEndpointsAndNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	tl := NewTelemetry()
	tl.Board.Begin("srv", 1)
	tl.Runner.Started.Add(1)
	srv, err := Serve("127.0.0.1:0", tl)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if got := get("/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
	m := get("/metrics")
	for _, want := range []string{
		"# TYPE tvarak_cells_started_total counter",
		"tvarak_cells_started_total 1",
		"# TYPE tvarak_sim_accesses_total counter",
		"# TYPE tvarak_cell_seconds histogram",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var snap BoardSnapshot
	if err := json.Unmarshal([]byte(get("/runs")), &snap); err != nil {
		t.Fatalf("/runs: %v", err)
	}
	if snap.Experiment != "srv" || len(snap.Cells) != 1 {
		t.Errorf("/runs = %+v", snap)
	}
	if got := get("/debug/pprof/cmdline"); got == "" {
		t.Error("/debug/pprof/cmdline empty")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The serving goroutine and any keep-alive handlers must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestResourceSamplerLedger(t *testing.T) {
	tl := NewTelemetry()
	tl.Engine.Accesses.Add(1000)
	path := t.TempDir() + "/ops.jsonl"
	log, err := applog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s := StartResourceSampler(tl, log, 10*time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	tl.Engine.Accesses.Add(9000)
	time.Sleep(30 * time.Millisecond)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ReadResourceLedger(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 3 {
		t.Fatalf("only %d samples", len(samples))
	}
	first, last := samples[0], samples[len(samples)-1]
	if first.HeapAlloc == 0 || first.Goroutines == 0 {
		t.Errorf("first sample missing runtime stats: %+v", first)
	}
	if last.Accesses != 10000 {
		t.Errorf("final accesses = %d, want 10000", last.Accesses)
	}
	if runtime.GOOS == "linux" && first.RSSBytes == 0 {
		t.Error("RSS = 0 on linux")
	}
	if tl.Resource.HeapAlloc.Value() == 0 {
		t.Error("heap gauge not mirrored")
	}
	// Torn tail tolerated.
	torn := data + `{"unixMS":123,"heap`
	got, err := ReadResourceLedger(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(got) != len(samples) {
		t.Fatalf("torn tail changed count: %d vs %d", len(got), len(samples))
	}
	// Mid-file corruption is a real error.
	bad := `{"unixMS":1}` + "\n" + `garbage` + "\n" + `{"unixMS":2}` + "\n"
	if _, err := ReadResourceLedger(strings.NewReader(bad)); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func mkSamples(heap []uint64, gor []int, aps []float64) []ResourceSample {
	n := len(heap)
	if len(gor) > n {
		n = len(gor)
	}
	if len(aps) > n {
		n = len(aps)
	}
	out := make([]ResourceSample, n)
	for i := range out {
		out[i].UnixMS = int64(i * 1000)
		out[i].HeapAlloc = 1 << 20
		out[i].Goroutines = 10
		if i < len(heap) {
			out[i].HeapAlloc = heap[i]
		}
		if i < len(gor) {
			out[i].Goroutines = gor[i]
		}
		if i < len(aps) {
			out[i].AccessesPerSec = aps[i]
		}
	}
	return out
}

func findingChecks(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Check)
	}
	return out
}

func TestAnalyzeHeapGrowth(t *testing.T) {
	c := DefaultOpsCheck()
	// Monotonic doubling: flagged.
	heap := make([]uint64, 10)
	for i := range heap {
		heap[i] = uint64(1<<20) + uint64(i)*200*1024
	}
	fs := c.Analyze(mkSamples(heap, nil, nil))
	if got := findingChecks(fs); len(got) != 1 || got[0] != "heap-growth" {
		t.Fatalf("findings = %v, want [heap-growth]", got)
	}
	// GC sawtooth with the same endpoints: not flagged (rise fraction low).
	saw := make([]uint64, 10)
	for i := range saw {
		if i%2 == 0 {
			saw[i] = 1 << 20
		} else {
			saw[i] = 3 << 20
		}
	}
	saw[9] = 3 << 20
	if fs := c.Analyze(mkSamples(saw, nil, nil)); len(fs) != 0 {
		t.Fatalf("sawtooth flagged: %v", fs)
	}
	// Flat heap: clean.
	flat := make([]uint64, 10)
	for i := range flat {
		flat[i] = 1 << 20
	}
	if fs := c.Analyze(mkSamples(flat, nil, nil)); len(fs) != 0 {
		t.Fatalf("flat heap flagged: %v", fs)
	}
	// Too few samples: clean regardless.
	if fs := c.Analyze(mkSamples(heap[:3], nil, nil)); len(fs) != 0 {
		t.Fatalf("short ledger flagged: %v", fs)
	}
}

func TestAnalyzeGoroutineLeak(t *testing.T) {
	c := DefaultOpsCheck()
	fs := c.Analyze(mkSamples(nil, []int{10, 12, 30}, nil))
	if got := findingChecks(fs); len(got) != 1 || got[0] != "goroutine-leak" {
		t.Fatalf("findings = %v, want [goroutine-leak]", got)
	}
	// Within slack: clean.
	if fs := c.Analyze(mkSamples(nil, []int{10, 14, 15}, nil)); len(fs) != 0 {
		t.Fatalf("within-slack flagged: %v", fs)
	}
}

func TestAnalyzeThroughputDrift(t *testing.T) {
	c := DefaultOpsCheck()
	aps := []float64{1000, 1000, 1000, 1000, 1000, 400, 400, 400, 400, 400}
	fs := c.Analyze(mkSamples(nil, nil, aps))
	if got := findingChecks(fs); len(got) != 1 || got[0] != "throughput-drift" {
		t.Fatalf("findings = %v, want [throughput-drift]", got)
	}
	// Idle (zero) samples excluded: a run that pauses between experiments
	// doesn't count as drifting.
	padded := append([]float64{0, 0, 0, 0}, []float64{1000, 990, 1010, 1000, 1005, 995, 1000, 1000}...)
	if fs := c.Analyze(mkSamples(nil, nil, padded)); len(fs) != 0 {
		t.Fatalf("steady padded flagged: %v", fs)
	}
}

func TestStartOpsBundle(t *testing.T) {
	dir := t.TempDir()
	tl := NewTelemetry()
	ledger := dir + "/ops.jsonl"
	addrFile := dir + "/addr"
	o, err := StartOps(tl, OpsConfig{
		Addr:        "127.0.0.1:0",
		AddrFile:    addrFile,
		LedgerPath:  ledger,
		SampleEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Addr() == "" {
		t.Fatal("no addr")
	}
	b, err := readFile(addrFile)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b) != o.Addr() {
		t.Fatalf("addr file %q != %q", strings.TrimSpace(b), o.Addr())
	}
	resp, err := http.Get("http://" + o.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	lb, err := readFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ReadResourceLedger(strings.NewReader(lb))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 2 {
		t.Fatalf("ledger has %d samples, want >= 2 (start + final)", len(samples))
	}
	// Disabled config: nil, Close safe.
	var nilOps *Ops
	if err := nilOps.Close(); err != nil {
		t.Fatal(err)
	}
	o2, err := StartOps(tl, OpsConfig{})
	if err != nil || o2 != nil {
		t.Fatalf("empty config: %v %v", o2, err)
	}
}

// TestStartOpsRepairsTornLedger reopens a ledger a killed process left
// with a torn final line: the new samples must not merge onto the torn
// line, so the whole ledger still analyzes with every complete sample.
func TestStartOpsRepairsTornLedger(t *testing.T) {
	ledger := t.TempDir() + "/ops.jsonl"
	full, err := json.Marshal(ResourceSample{UnixMS: 1, HeapAlloc: 1024, Goroutines: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ledger, append(append(full, '\n'), full[:len(full)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := StartOps(NewTelemetry(), OpsConfig{LedgerPath: ledger, SampleEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	_, samples, err := DefaultOpsCheck().AnalyzeLedgerFile(ledger)
	if err != nil {
		t.Fatalf("reopened torn ledger does not analyze: %v", err)
	}
	// The complete pre-crash sample plus the start and final samples.
	if len(samples) != 3 || samples[0].UnixMS != 1 {
		t.Fatalf("got %d samples (first %+v), want the old sample then 2 new ones", len(samples), samples[0])
	}
}

// TestOpsLedgerVisibleWhileRunning reads the ledger while the sampler is
// still running, the way the soak's resource gates do: the samples taken so
// far must already be on disk.
func TestOpsLedgerVisibleWhileRunning(t *testing.T) {
	ledger := t.TempDir() + "/ops.jsonl"
	o, err := StartOps(NewTelemetry(), OpsConfig{LedgerPath: ledger, SampleEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	time.Sleep(50 * time.Millisecond)
	_, samples, err := DefaultOpsCheck().AnalyzeLedgerFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples on disk before Close")
	}
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

func BenchmarkCounterAddAt(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AddAt(3, 1)
	}
	if c.Value() == 0 {
		b.Fatal("unreachable")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("bench_h", "", []float64{0.1, 1, 10, 100})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 200))
	}
}

func TestProbeAllocFree(t *testing.T) {
	tl := NewTelemetry()
	tl.Board.Begin("alloc", 1)
	probe := tl.CellProbe(0)
	probe(1, 1)
	allocs := testing.AllocsPerRun(100, func() {
		probe(2, 2)
	})
	if allocs > 0 {
		t.Fatalf("probe allocates %v per call", allocs)
	}
}
