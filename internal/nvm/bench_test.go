package nvm

import (
	"bytes"
	"testing"

	"tvarak/internal/geom"
	"tvarak/internal/param"
	"tvarak/internal/stats"
)

// Media reads and writes back every LLC miss and writeback; the injectable
// firmware-bug machinery must cost nothing when no bug is armed (the normal
// case — bugs exist only inside fault-injection campaigns).

func mkBenchNVM(b *testing.B) (*Memory, geom.Geometry) {
	b.Helper()
	g, err := geom.New(64, 4096, 1<<20, 16<<20, 4)
	if err != nil {
		b.Fatal(err)
	}
	st := &stats.Stats{}
	return New(NVMKind, &g, param.OptaneLike(4).Mem, st), g
}

// BenchmarkNew is what every simulated cell pays for its two pools before
// it simulates an access, at the reproduction's scale.
func BenchmarkNew(b *testing.B) {
	cfg := param.ReproScale(param.Tvarak)
	g, err := geom.New(cfg.LineSize, cfg.PageSize, cfg.DRAMBytes, cfg.NVMBytes, cfg.NVM.DIMMs)
	if err != nil {
		b.Fatal(err)
	}
	st := &stats.Stats{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(NVMKind, &g, cfg.NVM, st)
		New(DRAMKind, &g, cfg.DRAM, st)
	}
}

// The line and page benchmarks pre-write their working set, so they
// measure allocated media: a never-written page takes a zero fast path on
// read (BenchmarkReadLineUntouched) and allocates on first write.

func BenchmarkReadLine(b *testing.B) {
	m, g := mkBenchNVM(b)
	buf := make([]byte, 64)
	base := g.NVMBase()
	m.WriteRaw(base, bytes.Repeat(pat(1), 1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := base + uint64(i&1023)*64
		if _, err := m.ReadLine(uint64(i), addr, Data, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadLineUntouched(b *testing.B) {
	m, g := mkBenchNVM(b)
	buf := make([]byte, 64)
	base := g.NVMBase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := base + uint64(i&1023)*64
		if _, err := m.ReadLine(uint64(i), addr, Data, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteLine(b *testing.B) {
	m, g := mkBenchNVM(b)
	data := make([]byte, 64)
	base := g.NVMBase()
	m.WriteRaw(base, bytes.Repeat(pat(1), 1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteLine(uint64(i), base+uint64(i&1023)*64, Data, data)
	}
}

func BenchmarkReadLineDRAM(b *testing.B) {
	g, err := geom.New(64, 4096, 1<<20, 16<<20, 4)
	if err != nil {
		b.Fatal(err)
	}
	m := New(DRAMKind, &g, param.ReproScale(param.Baseline).DRAM, &stats.Stats{})
	buf := make([]byte, 64)
	m.WriteRaw(0, bytes.Repeat(pat(1), 1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ReadLine(uint64(i), uint64(i&1023)*64, Data, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadRawPage(b *testing.B) {
	m, g := mkBenchNVM(b)
	buf := make([]byte, 4096)
	base := g.NVMBase()
	m.WriteRaw(base, bytes.Repeat(pat(1), 16*64))
	b.ReportAllocs()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ReadRaw(base+uint64(i&15)*4096, buf)
	}
}
