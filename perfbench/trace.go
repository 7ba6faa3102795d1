package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed call the benchmark made into the simulator. Spans of
// one cell or unit share its Cell id; Parent links a phase to its cell and
// a cell to its pass.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Cell   int           `json:"cell"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory and labels the CPU profile with the
// phase each call belongs to. A nil *tracer times calls and records
// nothing, which is how untraced runs use it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(name string, parent, cell int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// phase runs f as a child span of parent, under the pprof label
// phase=name so that every goroutine f starts (the engine's per-core
// goroutines, a unit's machine) carries the label too. It returns f's
// wall time whether or not the tracer records.
func (t *tracer) phase(name string, parent, cell int, f func()) time.Duration {
	start := time.Now()
	if t == nil {
		f()
		return time.Since(start)
	}
	id := t.begin(name, parent, cell)
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { f() })
	t.end(id)
	return time.Since(start)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover (children of one span may overlap when a
// pass runs cells concurrently; the union is subtracted once).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		if k.End < 0 {
			continue
		}
		iv = append(iv, [2]time.Duration{max(k.Start, p.Start), min(k.End, p.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi time.Duration
	hi = -1
	for _, x := range iv {
		if x[1] <= hi {
			continue
		}
		lo := max(x[0], hi)
		if x[1] > lo {
			total += x[1] - lo
		}
		hi = x[1]
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// goSnap is a reading of the Go runtime's own counters.
type goSnap struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
	sched                *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readGo() goSnap {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		sched:      s[4].Value.Float64Histogram(),
	}
}

// goAcc accumulates the Go runtime's counters over the traced passes.
type goAcc struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
	sched                []uint64 // scheduling-latency histogram counts
	buckets              []float64
}

// add accumulates what happened between readings a and b.
func (g *goAcc) add(a, b goSnap) {
	g.allocBytes += b.allocBytes - a.allocBytes
	g.gcCycles += b.gcCycles - a.gcCycles
	g.gcCPU += b.gcCPU - a.gcCPU
	g.totalCPU += b.totalCPU - a.totalCPU
	if g.sched == nil {
		g.sched, g.buckets = make([]uint64, len(b.sched.Counts)), b.sched.Buckets
	}
	for i := range g.sched {
		g.sched[i] += b.sched.Counts[i] - a.sched.Counts[i]
	}
}

// metrics returns the per-layer Go runtime metrics.
func (g *goAcc) metrics() map[string]float64 {
	return map[string]float64{
		"go.alloc_mb":             float64(g.allocBytes) / (1 << 20),
		"go.gc_cycles":            float64(g.gcCycles),
		"go.gc_cpu_frac":          ratio(g.gcCPU, g.totalCPU),
		"go.sched_latency_p99_us": histQuantile(g.sched, g.buckets, 0.99) * 1e6,
	}
}

// histQuantile returns the upper bound of the bucket holding quantile q of
// a runtime/metrics histogram's counts (its lower bound when the bucket is
// unbounded above).
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > want {
			if hi := buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return buckets[i]
		}
	}
	return buckets[len(buckets)-1]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (getrusage's
// maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
