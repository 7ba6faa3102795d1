package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tvarak/internal/core"
	"tvarak/internal/daxfs"
	"tvarak/internal/param"
	"tvarak/internal/sim"
	"tvarak/internal/xsum"
)

// sys builds a small Tvarak machine with one mapped 1 MB file.
func sys(t *testing.T, feats param.TvarakFeatures) (*sim.Engine, *core.Controller, *daxfs.FS, *daxfs.DaxMap) {
	t.Helper()
	cfg := param.SmallTest(param.Tvarak)
	cfg.Tvarak.Features = feats
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := core.New(e)
	fs, err := daxfs.New(e, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("data", 1<<20); err != nil {
		t.Fatal(err)
	}
	m, err := fs.MMap("data")
	if err != nil {
		t.Fatal(err)
	}
	return e, ctrl, fs, m
}

// checkIntegrity verifies, from raw media after a drain, that every
// DAX-CL-checksum matches its line and that every parity line equals the
// XOR of its stripe's data lines — the two invariants TVARAK maintains.
func checkIntegrity(t *testing.T, e *sim.Engine, m *daxfs.DaxMap, clChecksums bool) {
	t.Helper()
	geo := &e.Geo
	ls := geo.LineSize
	line := make([]byte, ls)
	if clChecksums {
		for off := uint64(0); off < m.Size(); off += uint64(ls) {
			e.NVM.ReadRaw(m.Addr(off), line)
			idx := off / uint64(ls)
			var ent [xsum.Size]byte
			e.NVM.ReadRaw(geo.DataIndexAddr(m.CsumDI(), idx*xsum.Size), ent[:])
			if xsum.Checksum(line) != xsum.Get(ent[:], 0) {
				t.Fatalf("DAX-CL-checksum mismatch at offset %#x", off)
			}
		}
	}
	// Parity: XOR of data pages in each stripe touched by the file.
	ps := uint64(geo.PageSize)
	parity := make([]byte, ps)
	acc := make([]byte, ps)
	page := make([]byte, ps)
	seen := map[uint64]bool{}
	for p := uint64(0); p < m.Size()/ps; p++ {
		s := geo.StripeOf(geo.PageOf(m.Addr(p * ps)))
		if seen[s] {
			continue
		}
		seen[s] = true
		for i := range acc {
			acc[i] = 0
		}
		for k := 0; k < geo.DIMMs; k++ {
			pp := s*uint64(geo.DIMMs) + uint64(k)
			if geo.IsParityPage(pp) {
				continue
			}
			e.NVM.ReadRaw(geo.PageBase(pp), page)
			xsum.XORInto(acc, page)
		}
		e.NVM.ReadRaw(geo.PageBase(geo.ParityPage(s)), parity)
		if !bytes.Equal(acc, parity) {
			t.Fatalf("parity mismatch for stripe %d", s)
		}
	}
}

func TestRedundancyMaintainedAcrossFeatureCombos(t *testing.T) {
	combos := []param.TvarakFeatures{
		{},                         // naive (Fig. 4)
		{CacheLineChecksums: true}, // +DAX-CL-checksums
		{CacheLineChecksums: true, RedundancyCaching: true},                  // +redundancy caching (also the exclusive-cache design)
		{CacheLineChecksums: true, RedundancyCaching: true, DataDiffs: true}, // full TVARAK
	}
	for _, feats := range combos {
		name := fmt.Sprintf("cl=%v cache=%v diff=%v", feats.CacheLineChecksums, feats.RedundancyCaching, feats.DataDiffs)
		t.Run(name, func(t *testing.T) {
			e, _, _, m := sys(t, feats)
			e.Run([]func(*sim.Core){func(c *sim.Core) {
				rng := rand.New(rand.NewSource(7))
				buf := make([]byte, 64)
				for i := 0; i < 4000; i++ {
					off := uint64(rng.Intn(int(m.Size()-64))) &^ 63
					if rng.Intn(2) == 0 {
						rng.Read(buf)
						m.Store(c, off, buf)
					} else {
						m.Load(c, off, buf)
					}
				}
			}})
			checkIntegrity(t, e, m, feats.CacheLineChecksums)
			if e.St.CorruptionsDetected != 0 {
				t.Errorf("false-positive corruptions: %d", e.St.CorruptionsDetected)
			}
			if e.St.NVM.Redundancy() == 0 {
				t.Error("no redundancy NVM traffic recorded")
			}
		})
	}
}

func TestNaivePageChecksumsStayCurrent(t *testing.T) {
	e, _, fs, m := sys(t, param.TvarakFeatures{}) // page-granular mode
	e.Run([]func(*sim.Core){func(c *sim.Core) {
		buf := bytes.Repeat([]byte{0xab}, 64)
		for i := 0; i < 500; i++ {
			m.Store(c, uint64(i*64)%m.Size(), buf)
		}
	}})
	// In page-granular mode the controller keeps per-page checksums
	// current even while mapped, so a scrub passes.
	if bad := fs.Scrub(); len(bad) != 0 {
		t.Errorf("scrub found %d bad pages under naive controller: %+v", len(bad), bad)
	}
}

func TestLostWriteDetectedAndRecovered(t *testing.T) {
	e, ctrl, _, m := sys(t, param.FullTvarak())
	off := uint64(64 * 100)
	addr := e.Geo.LineAddr(m.Addr(off))
	newData := bytes.Repeat([]byte{0x5a}, 64)

	// Establish an initial value.
	e.Run([]func(*sim.Core){func(c *sim.Core) {
		m.Store(c, off, bytes.Repeat([]byte{0x11}, 64))
	}})
	e.DropCaches()

	// Arm the lost-write bug so the NEXT writeback of this line is lost.
	e.NVM.InjectLostWrite(addr)
	e.Run([]func(*sim.Core){func(c *sim.Core) {
		m.Store(c, off, newData)
	}})
	if e.NVM.PendingBugs() != 0 {
		t.Fatal("lost-write bug never fired (no writeback happened)")
	}
	// Media still holds old data; checksums and parity reflect the new.
	raw := make([]byte, 64)
	e.NVM.ReadRaw(addr, raw)
	if raw[0] != 0x11 {
		t.Fatal("lost write unexpectedly reached media")
	}

	var caught []uint64
	ctrl.CorruptionHook = func(a uint64) { caught = append(caught, a) }
	e.DropCaches()
	e.Run([]func(*sim.Core){func(c *sim.Core) {
		got := make([]byte, 64)
		m.Load(c, off, got)
		if !bytes.Equal(got, newData) {
			t.Error("load did not return recovered (new) data")
		}
	}})
	if e.St.CorruptionsDetected != 1 || e.St.Recoveries != 1 {
		t.Errorf("corruptions=%d recoveries=%d, want 1/1", e.St.CorruptionsDetected, e.St.Recoveries)
	}
	if len(caught) != 1 || caught[0] != addr {
		t.Errorf("corruption hook saw %v, want [%#x]", caught, addr)
	}
	// Media was repaired.
	e.NVM.ReadRaw(addr, raw)
	if !bytes.Equal(raw, newData) {
		t.Error("media not repaired after recovery")
	}
}

func TestMisdirectedWriteDetectedOnBothLines(t *testing.T) {
	e, _, _, m := sys(t, param.FullTvarak())
	offX := uint64(64 * 10)
	offY := uint64(64 * 20)
	addrX := e.Geo.LineAddr(m.Addr(offX))
	addrY := e.Geo.LineAddr(m.Addr(offY))
	xNew := bytes.Repeat([]byte{0xaa}, 64)
	yOld := bytes.Repeat([]byte{0xbb}, 64)

	e.Run([]func(*sim.Core){func(c *sim.Core) {
		m.Store(c, offX, bytes.Repeat([]byte{0x01}, 64))
		m.Store(c, offY, yOld)
	}})
	e.DropCaches()

	e.NVM.InjectMisdirectedWrite(addrX, addrY)
	e.Run([]func(*sim.Core){func(c *sim.Core) {
		m.Store(c, offX, xNew) // writeback lands on Y, corrupting it
	}})
	e.DropCaches()

	e.Run([]func(*sim.Core){func(c *sim.Core) {
		gotX := make([]byte, 64)
		m.Load(c, offX, gotX)
		if !bytes.Equal(gotX, xNew) {
			t.Error("X not recovered to its intended new data")
		}
		gotY := make([]byte, 64)
		m.Load(c, offY, gotY)
		if !bytes.Equal(gotY, yOld) {
			t.Error("Y not recovered to its pre-corruption data")
		}
	}})
	if e.St.CorruptionsDetected != 2 || e.St.Recoveries != 2 {
		t.Errorf("corruptions=%d recoveries=%d, want 2/2", e.St.CorruptionsDetected, e.St.Recoveries)
	}
}

func TestMisdirectedReadDetected(t *testing.T) {
	e, _, _, m := sys(t, param.FullTvarak())
	offX, offY := uint64(0), uint64(64*5)
	addrX := e.Geo.LineAddr(m.Addr(offX))
	addrY := e.Geo.LineAddr(m.Addr(offY))
	xData := bytes.Repeat([]byte{0x42}, 64)

	e.Run([]func(*sim.Core){func(c *sim.Core) {
		m.Store(c, offX, xData)
		m.Store(c, offY, bytes.Repeat([]byte{0x43}, 64))
	}})
	e.DropCaches()
	e.NVM.InjectMisdirectedRead(addrX, addrY)
	e.Run([]func(*sim.Core){func(c *sim.Core) {
		got := make([]byte, 64)
		m.Load(c, offX, got)
		if !bytes.Equal(got, xData) {
			t.Error("misdirected read not corrected")
		}
	}})
	if e.St.CorruptionsDetected != 1 {
		t.Errorf("corruptions=%d, want 1", e.St.CorruptionsDetected)
	}
}

func TestVerificationOnEveryFill(t *testing.T) {
	e, _, _, m := sys(t, param.FullTvarak())
	// Write then read back a region bigger than caches; every NVM fill of
	// mapped data must consult a checksum (redundancy reads > 0 even for a
	// read-only phase).
	e.Run([]func(*sim.Core){func(c *sim.Core) {
		buf := bytes.Repeat([]byte{1}, 64)
		for off := uint64(0); off < m.Size(); off += 64 {
			m.Store(c, off, buf)
		}
	}})
	e.DropCaches()
	e.ResetMeasurement()
	e.Run([]func(*sim.Core){func(c *sim.Core) {
		buf := make([]byte, 64)
		for off := uint64(0); off < m.Size(); off += 64 {
			m.Load(c, off, buf)
		}
	}})
	if e.St.NVM.RedReads == 0 {
		t.Error("read-only phase performed no checksum reads — reads are not being verified")
	}
	if e.St.NVM.RedWrites != 0 {
		t.Errorf("read-only phase performed %d redundancy writes", e.St.NVM.RedWrites)
	}
	if e.St.Fills == 0 {
		t.Fatal("no fills recorded")
	}
	// Checksum locality: 16 checksums per line means far fewer redundancy
	// reads than fills for a sequential scan.
	if e.St.NVM.RedReads*8 > e.St.Fills {
		t.Errorf("redundancy reads %d too high for %d fills (caching broken?)",
			e.St.NVM.RedReads, e.St.Fills)
	}
}

func TestDiffStashAndEarlyWriteback(t *testing.T) {
	e, _, _, m := sys(t, param.FullTvarak())
	e.Run([]func(*sim.Core){func(c *sim.Core) {
		buf := bytes.Repeat([]byte{9}, 64)
		// Dirty many lines mapping to the same LLC sets to overflow the
		// 1-way diff partition.
		for i := 0; i < 20000; i++ {
			m.Store(c, uint64(i*64)%m.Size(), buf)
		}
	}})
	if e.St.DiffStashes == 0 {
		t.Error("no diffs stashed")
	}
	if e.St.DiffEvictions == 0 {
		t.Error("no diff evictions (early writebacks) despite overflow")
	}
	checkIntegrity(t, e, m, true)
}

func TestUnmapReconcilesPageChecksums(t *testing.T) {
	e, _, fs, m := sys(t, param.FullTvarak())
	e.Run([]func(*sim.Core){func(c *sim.Core) {
		m.Store(c, 128, bytes.Repeat([]byte{0x77}, 256))
	}})
	if err := fs.MUnmap(m); err != nil {
		t.Fatal(err)
	}
	if bad := fs.Scrub(); len(bad) != 0 {
		t.Errorf("scrub after munmap found bad pages: %+v", bad)
	}
	// The fs read path sees the data.
	f, _ := fs.Open("data")
	got := make([]byte, 256)
	if err := fs.ReadAt(f, 128, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x77}, 256)) {
		t.Error("fs read path returned wrong data after munmap")
	}
}

func TestBaselineHasNoRedundancyTraffic(t *testing.T) {
	cfg := param.SmallTest(param.Baseline)
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := daxfs.New(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.Create("data", 1<<20)
	m, _ := fs.MMap("data")
	e.Run([]func(*sim.Core){func(c *sim.Core) {
		buf := bytes.Repeat([]byte{1}, 64)
		for i := 0; i < 1000; i++ {
			m.Store(c, uint64(i*64), buf)
		}
	}})
	if e.St.NVM.Redundancy() != 0 {
		t.Error("baseline produced redundancy traffic")
	}
	if e.St.Cache[3].Total() != 0 { // TvarakCache
		t.Error("baseline touched the on-controller cache")
	}
}

func TestTvarakOverheadOrdering(t *testing.T) {
	// Sequential writes: TVARAK must cost more than baseline but far less
	// than double (the paper reports single-digit % for sequential fio).
	run := func(d param.Design, feats param.TvarakFeatures) uint64 {
		cfg := param.SmallTest(d)
		cfg.Tvarak.Features = feats
		e, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ctrl *core.Controller
		if d == param.Tvarak {
			ctrl = core.New(e)
		}
		fs, err := daxfs.New(e, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		fs.Create("data", 2<<20)
		m, _ := fs.MMap("data")
		e.Run([]func(*sim.Core){func(c *sim.Core) {
			buf := bytes.Repeat([]byte{1}, 64)
			for off := uint64(0); off < m.Size(); off += 64 {
				m.Store(c, off, buf)
			}
		}})
		return e.St.Cycles
	}
	base := run(param.Baseline, param.TvarakFeatures{})
	full := run(param.Tvarak, param.FullTvarak())
	naive := run(param.Tvarak, param.TvarakFeatures{})
	if full <= base {
		t.Errorf("TVARAK (%d) not slower than baseline (%d)", full, base)
	}
	// A single-threaded pure store stream with zero compute is TVARAK's
	// worst case: the run is NVM-write-bandwidth-bound, so the +1/3 parity
	// and +1/16 checksum line accesses show up almost fully in runtime,
	// and verification reads serialize behind data reads with no other
	// thread to fill the DIMM gaps. Anything beyond ~1.8x means the
	// redundancy caching is broken.
	if float64(full) > 1.8*float64(base) {
		t.Errorf("sequential-write TVARAK overhead too high: %d vs %d", full, base)
	}
	if naive <= full {
		t.Errorf("naive controller (%d) not slower than full TVARAK (%d)", naive, full)
	}
}
