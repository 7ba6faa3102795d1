package nvm

import (
	"bytes"
	"testing"

	"tvarak/internal/geom"
	"tvarak/internal/param"
	"tvarak/internal/stats"
)

func mkNVM(t *testing.T) (*Memory, *stats.Stats, geom.Geometry) {
	t.Helper()
	g, err := geom.New(64, 4096, 1<<20, 16<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Stats{}
	p := param.OptaneLike(4).Mem
	return New(NVMKind, &g, p, st), st, g
}

func pat(b byte) []byte {
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = b + byte(i)
	}
	return buf
}

func TestWriteReadRoundTrip(t *testing.T) {
	m, _, g := mkNVM(t)
	addr := g.NVMBase() + 4096*7 + 128
	m.WriteLine(0, addr, Data, pat(3))
	got := make([]byte, 64)
	if _, err := m.ReadLine(0, addr, Data, got); err != nil {
		t.Fatalf("ReadLine: %v", err)
	}
	if !bytes.Equal(got, pat(3)) {
		t.Error("read-back mismatch")
	}
}

func TestRawRoundTripUnaligned(t *testing.T) {
	m, _, g := mkNVM(t)
	data := []byte("hello, tvarak — spanning a line boundary for sure........................")
	addr := g.NVMBase() + 60 // straddles the first line boundary
	m.WriteRaw(addr, data)
	got := make([]byte, len(data))
	m.ReadRaw(addr, got)
	if !bytes.Equal(got, data) {
		t.Errorf("raw round trip: got %q want %q", got, data)
	}
}

func TestStatsClassification(t *testing.T) {
	m, st, g := mkNVM(t)
	a := g.NVMBase()
	buf := make([]byte, 64)
	m.WriteLine(0, a, Data, pat(0))
	m.WriteLine(0, a, Redundancy, pat(1))
	m.ReadLine(0, a, Data, buf)
	m.ReadLine(0, a, Redundancy, buf)
	n := st.NVM
	if n.DataReads != 1 || n.DataWrites != 1 || n.RedReads != 1 || n.RedWrites != 1 {
		t.Errorf("NVM counter = %+v, want 1 of each", n)
	}
	wantE := 1600.0*2 + 9000.0*2
	if st.EnergyPJ != wantE {
		t.Errorf("energy = %v pJ, want %v", st.EnergyPJ, wantE)
	}
}

func TestLatencyAndOccupancy(t *testing.T) {
	m, _, g := mkNVM(t)
	a := g.NVMBase() // page 0 → DIMM 0
	buf := make([]byte, 64)
	done, _ := m.ReadLine(100, a, Data, buf)
	if done != 100+136 {
		t.Errorf("read completes at %d, want 236 (fixed service latency)", done)
	}
	// Occupancy accumulates as a per-DIMM bandwidth bound.
	m.ReadLine(100, a, Data, buf)
	if m.BusyUntil() != 2*21 {
		t.Errorf("BusyUntil = %d, want %d (two reads on one DIMM)", m.BusyUntil(), 2*21)
	}
	// A read to another DIMM does not raise the bound.
	b := g.NVMBase() + 4096 // page 1 → DIMM 1
	m.ReadLine(100, b, Data, buf)
	if m.BusyUntil() != 2*21 {
		t.Errorf("BusyUntil = %d after other-DIMM read, want %d", m.BusyUntil(), 2*21)
	}
	// Writes occupy longer than reads.
	done4 := m.WriteLine(500, a, Data, pat(1))
	if done4 != 500+341 {
		t.Errorf("write completes at %d, want 841", done4)
	}
	if m.BusyUntil() != 2*21+63 {
		t.Errorf("BusyUntil = %d, want %d", m.BusyUntil(), 2*21+63)
	}
	m.ResetTiming()
	if m.BusyUntil() != 0 {
		t.Error("ResetTiming did not clear DIMM busy state")
	}
}

func TestPageInterleaving(t *testing.T) {
	m, _, g := mkNVM(t)
	buf := make([]byte, 64)
	for p := uint64(0); p < 8; p++ {
		m.ReadLine(0, g.PageBase(p), Data, buf)
	}
	reads, _ := m.DIMMAccesses()
	for d, r := range reads {
		if r != 2 {
			t.Errorf("DIMM %d got %d reads, want 2 (pages round-robin)", d, r)
		}
	}
}

func TestLostWriteBug(t *testing.T) {
	m, _, g := mkNVM(t)
	a := g.NVMBase() + 4096
	m.WriteLine(0, a, Data, pat(1))
	m.InjectLostWrite(a)
	m.WriteLine(0, a, Data, pat(2)) // acknowledged, lost
	got := make([]byte, 64)
	if _, err := m.ReadLine(0, a, Data, got); err != nil {
		t.Fatalf("device ECC flagged a lost write, but ECC cannot detect firmware bugs: %v", err)
	}
	if !bytes.Equal(got, pat(1)) {
		t.Error("lost write reached media")
	}
	if m.PendingBugs() != 0 {
		t.Error("bug did not fire")
	}
	// The bug is one-shot: the next write lands.
	m.WriteLine(0, a, Data, pat(3))
	m.ReadRaw(a, got)
	if !bytes.Equal(got, pat(3)) {
		t.Error("write after one-shot bug did not land")
	}
}

func TestMisdirectedWriteBug(t *testing.T) {
	m, _, g := mkNVM(t)
	x := g.NVMBase() + 4096*2
	y := g.NVMBase() + 4096*3
	m.WriteLine(0, x, Data, pat(10))
	m.WriteLine(0, y, Data, pat(20))
	m.InjectMisdirectedWrite(x, y)
	m.WriteLine(0, x, Data, pat(30)) // lands on y, corrupting it
	got := make([]byte, 64)
	if _, err := m.ReadLine(0, x, Data, got); err != nil {
		t.Fatalf("ECC error on x: %v", err)
	}
	if !bytes.Equal(got, pat(10)) {
		t.Error("x should keep its old data after the misdirected write")
	}
	// y is corrupted and — crucially — device ECC does NOT notice, because
	// data and ECC moved together (§II-A).
	if _, err := m.ReadLine(0, y, Data, got); err != nil {
		t.Fatalf("ECC detected misdirected write, which it must not: %v", err)
	}
	if !bytes.Equal(got, pat(30)) {
		t.Error("y should hold the misdirected data")
	}
}

func TestMisdirectedReadBug(t *testing.T) {
	m, _, g := mkNVM(t)
	x := g.NVMBase()
	y := g.NVMBase() + 4096
	m.WriteLine(0, x, Data, pat(1))
	m.WriteLine(0, y, Data, pat(2))
	m.InjectMisdirectedRead(x, y)
	got := make([]byte, 64)
	if _, err := m.ReadLine(0, x, Data, got); err != nil {
		t.Fatalf("ECC detected misdirected read, which it must not: %v", err)
	}
	if !bytes.Equal(got, pat(2)) {
		t.Error("misdirected read should return y's content")
	}
	// One-shot: next read is correct.
	m.ReadLine(0, x, Data, got)
	if !bytes.Equal(got, pat(1)) {
		t.Error("read after one-shot bug wrong")
	}
}

func TestFreshMediaPassesECC(t *testing.T) {
	m, st, g := mkNVM(t)
	buf := make([]byte, 64)
	if _, err := m.ReadLine(0, g.NVMBase()+4096*9, Data, buf); err != nil {
		t.Fatalf("read of never-written line: %v", err)
	}
	if st.ECCErrors != 0 {
		t.Errorf("fresh media raised %d ECC errors", st.ECCErrors)
	}
}

func TestECCDetectsMediaCorruption(t *testing.T) {
	m, st, g := mkNVM(t)
	a := g.NVMBase()
	m.WriteLine(0, a, Data, pat(5))
	m.FlipBit(a+10, 3)
	got := make([]byte, 64)
	if _, err := m.ReadLine(0, a, Data, got); err != ErrECC {
		t.Errorf("ReadLine after bit flip: err = %v, want ErrECC", err)
	}
	if st.ECCErrors != 1 {
		t.Errorf("ECCErrors = %d, want 1", st.ECCErrors)
	}
}

func TestDRAMLineInterleaving(t *testing.T) {
	g, err := geom.New(64, 4096, 1<<20, 16<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Stats{}
	m := New(DRAMKind, &g, param.Default(param.Baseline).DRAM, st)
	buf := make([]byte, 64)
	for i := uint64(0); i < 12; i++ {
		m.ReadLine(0, i*64, Data, buf)
	}
	reads, _ := m.DIMMAccesses()
	for d, r := range reads {
		if r != 2 {
			t.Errorf("DRAM DIMM %d got %d reads, want 2 (lines round-robin over 6 DIMMs)", d, r)
		}
	}
	if st.DRAMReads != 12 {
		t.Errorf("DRAMReads = %d, want 12", st.DRAMReads)
	}
}

func TestUnalignedLinePanics(t *testing.T) {
	m, _, g := mkNVM(t)
	defer func() {
		if recover() == nil {
			t.Error("unaligned ReadLine did not panic")
		}
	}()
	m.ReadLine(0, g.NVMBase()+1, Data, make([]byte, 64))
}
