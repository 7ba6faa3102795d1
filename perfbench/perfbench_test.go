package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 1000; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct {
		n         int
		want, pct float64
	}{
		{1000, 990, 99}, // p99.9 would leave 1 beyond
		{903, 858, 95},  // p99 would leave 9
		{100, 90, 90},
		{63, 48, 75},
		{20, 10, 50},
		{19, 10, 50},  // too few for any tail: the median
		{18, 9.5, 50}, // the median of an even count
		{1, 1, 50},
	} {
		in := xs[len(xs)-tc.n:]
		v, pct := tail(in, tailBeyond)
		if v != tc.want || pct != tc.pct {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v", tc.n, v, pct, tc.want, tc.pct)
		}
		beyond := 0
		for _, x := range in {
			if x > v {
				beyond++
			}
		}
		if tc.n >= 2*tailBeyond && beyond < tailBeyond {
			t.Errorf("tail of %d samples has %d beyond it, want at least %d", tc.n, beyond, tailBeyond)
		}
	}
	if v, _ := tail(nil, tailBeyond); v != 0 {
		t.Errorf("tail of no samples = %v, want 0", v)
	}
}

func TestFoldAttributesPackagesToLayers(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"tvarak/internal/cache.(*Cache).Lookup", "tvarak/internal/sim.(*Engine).access"}, "cache"},
		{[]string{"tvarak/internal/apps/redispm.(*Workload).Setup.func1"}, "apps"},
		{[]string{"tvarak/internal/ycsb.(*Zipf).Next", "tvarak/internal/apps/nstore.(*Workload).Workers.func1"}, "apps"},
		// A standard-library or helper leaf counts against the layer that called it.
		{[]string{"hash/crc32.update", "tvarak/internal/xsum.Checksum", "tvarak/internal/core.(*Controller).OnFill"}, "xsum"},
		{[]string{"runtime.memmove", "tvarak/internal/nvm.(*Memory).ReadRaw"}, "nvm"},
		{[]string{"tvarak/internal/stats.(*Stats).AddCache", "tvarak/internal/sim.(*Engine).fillL1"}, "sim"},
		// The runtime's own work gets its own buckets.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "tvarak/internal/nvm.New"}, "runtime_alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "tvarak/internal/pmem.(*Heap).Alloc"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{[]string{"runtime.lock2", "runtime.chansend", "tvarak/internal/sim.(*Core).yieldTurn"}, "runtime_sched"},
		{[]string{"tvarak/internal/fault.(*unitCtx).sweep"}, "fault"},
		{[]string{"tvarak/internal/oracle.(*Oracle).Check"}, "oracle"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
		{nil, "other"},
	} {
		if got := layerOfStack(tc.stack); got != tc.want {
			t.Errorf("layerOfStack(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}

	m := foldProfile([]profSample{
		{stack: []string{"tvarak/internal/cache.(*Cache).Lookup"}, ns: 30, phase: "measure"},
		{stack: []string{"tvarak/internal/pmem.(*Heap).Alloc"}, ns: 10, phase: "setup"},
		{stack: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, ns: 60},
	})
	want := map[string]float64{"cpu.cache": 0.3, "cpu.pmem": 0.1, "cpu.runtime_gc": 0.6,
		"phase.measure": 0.3, "phase.setup": 0.1, "phase.build": 0, "cpu.sim": 0}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if len(m) != len(cpuLayers)+len(phases) {
		t.Errorf("fold has %d metrics, want one per layer and phase (%d)", len(m), len(cpuLayers)+len(phases))
	}
}

// The goroutine profile records the calling goroutine with its labels,
// so a profile taken under phase=measure holds a labelled sample whose
// stack includes this test.
func TestParseProfileReadsStacksAndLabels(t *testing.T) {
	var b bytes.Buffer
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", "measure"), func(context.Context) {
		err = pprof.Lookup("goroutine").WriteTo(&b, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if s.phase == "measure" && strings.Contains(fn, "TestParseProfileReadsStacksAndLabels") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample labelled phase=measure inside this test among %d samples", len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	tr := newTracer()
	ms := time.Millisecond
	tr.spans = []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "cell", Start: 10 * ms, End: 60 * ms},
		{ID: 3, Parent: 1, Name: "cell", Start: 40 * ms, End: 90 * ms}, // overlaps the first cell
		{ID: 4, Parent: 2, Name: "setup", Start: 20 * ms, End: 30 * ms},
	}
	self := tr.selfTimes()
	want := map[string]time.Duration{"pass": 20 * ms, "cell": 90 * ms, "setup": 10 * ms}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, self[k], v)
		}
	}
}

// A unit that overruns its deadline is a failed unit, counted as a
// timeout; the campaign still completes and reports every unit.
func TestTinyDeadlineFailsUnitsAndCampaignCompletes(t *testing.T) {
	p, err := campaign(defaultSeed, time.Nanosecond, []string{"stream"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.cells) != len(campaignDesigns) {
		t.Fatalf("campaign reported %d units, want %d", len(p.cells), len(campaignDesigns))
	}
	if p.failed() != len(p.cells) {
		t.Errorf("%d of %d units failed, want all", p.failed(), len(p.cells))
	}
	m := layerMetrics([]*pass{p}, []*pass{p})
	if m["fault.timeouts"] != float64(len(p.cells)) || m["failed_frac"] != 1 {
		t.Errorf("fault.timeouts = %v, failed_frac = %v; want %d and 1", m["fault.timeouts"], m["failed_frac"], len(p.cells))
	}

	ok, err := campaign(defaultSeed, unitDeadline, []string{"stream"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok.failed() != 0 {
		t.Errorf("with the default deadline %d stream units failed: %+v", ok.failed(), ok.cells)
	}
}
