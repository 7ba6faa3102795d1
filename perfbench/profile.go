package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets a CPU profile folds into: one per simulator
// package the benchmark attributes time to, three for the Go runtime's own
// work, and other.
var cpuLayers = []string{
	"sim", "cache", "core", "nvm", "xsum", "geom", "pmem", "daxfs", "swred",
	"apps", "oracle", "fault", "harness",
	"runtime_gc", "runtime_alloc", "runtime_sched", "other",
}

// phases are the pprof label values the tracer sets around its calls.
var phases = []string{"build", "setup", "measure", "unit"}

// profSample is one CPU profile sample: its stack, leaf first, with inlined
// frames expanded; its CPU nanoseconds; and its phase label ("" outside
// any traced call, as for the GC's background workers).
type profSample struct {
	stack []string
	ns    int64
	phase string
}

// foldProfile turns a CPU profile into the share of sampled CPU time per
// layer (cpu.*) and per traced phase (phase.*).
func foldProfile(samples []profSample) map[string]float64 {
	m := map[string]float64{}
	for _, l := range cpuLayers {
		m["cpu."+l] = 0
	}
	for _, p := range phases {
		m["phase."+p] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.ns
	}
	if total == 0 {
		return m
	}
	for _, s := range samples {
		f := float64(s.ns) / float64(total)
		m["cpu."+layerOfStack(s.stack)] += f
		if s.phase != "" {
			m["phase."+s.phase] += f
		}
	}
	return m
}

// layerOfStack attributes one flat sample. Time the runtime spends in the
// garbage collector, in allocation, or in scheduling goroutines gets its
// own bucket; any other sample belongs to the nearest frame, leaf first,
// in a package that is one of the simulator's layers, so a memmove or a
// crc32 call counts against the layer that asked for it.
func layerOfStack(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	for _, fn := range stack {
		if gcFrame(fn) {
			return "runtime_gc"
		}
	}
	if pkgOf(stack[0]) == "runtime" {
		for _, fn := range stack {
			if allocFrames[fn] {
				return "runtime_alloc"
			}
		}
		for _, fn := range stack {
			if schedFrames[fn] {
				return "runtime_sched"
			}
		}
	}
	for _, fn := range stack {
		if l := layerOf(pkgOf(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// pkgOf returns the import path of a profiled function name such as
// "tvarak/internal/sim.(*Engine).access".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// layerOf maps a package to its layer, or "" for a package that is not
// one (the standard library, or helpers such as stats and param whose
// time belongs to their caller).
func layerOf(pkg string) string {
	rest, ok := strings.CutPrefix(pkg, "tvarak/internal/")
	if !ok {
		return ""
	}
	top, _, _ := strings.Cut(rest, "/")
	switch top {
	case "apps", "ycsb":
		return "apps"
	case "sim", "cache", "core", "nvm", "xsum", "geom", "pmem", "daxfs",
		"swred", "oracle", "fault", "harness":
		return top
	}
	return ""
}

func gcFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime._GC") ||
		gcFrames[fn]
}

var gcFrames = set("runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush", "runtime.wbBufFlush1")

var allocFrames = set("runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.newarray", "runtime.makechan",
	"runtime.mallocgcLarge", "runtime.mallocgcSmallNoscan", "runtime.mallocgcSmallScanNoHeader")

var schedFrames = set("runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.gopark", "runtime.goschedImpl", "runtime.gosched_m", "runtime.Gosched",
	"runtime.mcall", "runtime.goready", "runtime.ready", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.notesleep", "runtime.futexsleep",
	"runtime.futexwakeup", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.lock2", "runtime.unlock2", "runtime.casgstatus", "runtime.newproc",
	"runtime.goexit0", "runtime.execute", "runtime.runqgrab", "runtime.stealWork")

func set(xs ...string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what the fold needs: each sample's stack of
// function names, its last value (CPU nanoseconds for a CPU profile) and
// its "phase" label.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		vals   []uint64
		labels [][2]uint64 // (key, str) string-table indexes
	}
	var (
		strs     []string
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName = map[uint64]uint64{}   // function id -> name index
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s rawSample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendInts(s.locs, v, b)
				case 2:
					s.vals = appendInts(s.vals, v, b)
				case 3:
					var kv [2]uint64
					err := fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if len(s.vals) > 0 {
			ps.ns = int64(s.vals[len(s.vals)-1])
		}
		for _, l := range s.locs {
			for _, fid := range locLines[l] {
				ps.stack = append(ps.stack, str(funcName[fid]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "phase" {
				ps.phase = str(kv[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling f with each field number and
// either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped: profile.proto uses none that the fold reads.
func fields(b []byte, f func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := f(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendInts appends a repeated integer field, which runtime/pprof writes
// either as one varint per field or packed into one length-delimited run.
func appendInts(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// varint decodes a protobuf varint, returning its length (0 if malformed).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
