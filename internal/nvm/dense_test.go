package nvm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tvarak/internal/geom"
	"tvarak/internal/param"
	"tvarak/internal/stats"
	"tvarak/internal/xsum"
)

// dense is the differential reference for the lazy page store: one flat
// byte array over the pool's physical range with one ECC word per line,
// every byte allocated up front, and the DIMM of an access computed
// straight from the interleave rule. It shares no address arithmetic or
// storage with Memory, only the device semantics: timing, stats, ECC and
// the three firmware bugs, and which media pages have been allocated.
type dense struct {
	kind                     Kind
	p                        param.MemParams
	base, unit, ls, nd, page uint64
	data                     []byte
	ecc                      []uint32
	st                       stats.Stats
	reads, writes            []uint64
	busy                     []uint64
	bugsW, bugsR             map[uint64]bug

	// written marks, per DIMM, the DIMM-local media pages that a write, a
	// misdirected write or a bit flip has reached.
	written [][]bool
}

func newDense(kind Kind, g *geom.Geometry, p param.MemParams) *dense {
	d := &dense{
		kind:   kind,
		p:      p,
		ls:     uint64(g.LineSize),
		nd:     uint64(p.DIMMs),
		page:   uint64(g.PageSize),
		reads:  make([]uint64, p.DIMMs),
		writes: make([]uint64, p.DIMMs),
		busy:   make([]uint64, p.DIMMs),
		bugsW:  map[uint64]bug{},
		bugsR:  map[uint64]bug{},
	}
	size := uint64(g.DRAMBytes)
	d.unit = d.ls
	if kind == NVMKind {
		d.base, size, d.unit = g.NVMBase(), uint64(g.NVMBytes), uint64(g.PageSize)
	}
	d.written = make([][]bool, p.DIMMs)
	for i := range d.written {
		d.written[i] = make([]bool, (size/d.nd+d.page-1)/d.page)
	}
	d.data = make([]byte, size)
	d.ecc = make([]uint32, size/d.ls)
	zero := xsum.Checksum(make([]byte, d.ls))
	for i := range d.ecc {
		d.ecc[i] = zero
	}
	return d
}

func (d *dense) line(addr uint64) []byte { return d.data[addr-d.base : addr-d.base+d.ls] }

// mediaPage returns the DIMM and DIMM-local media page holding addr: the
// unit's index picks the DIMM round-robin, and the DIMM stores its units
// back to back in pages.
func (d *dense) mediaPage(addr uint64) *bool {
	rel := addr - d.base
	idx := rel / d.unit
	return &d.written[idx%d.nd][(idx/d.nd*d.unit+rel%d.unit)/d.page]
}

func (d *dense) touch(addr uint64) { *d.mediaPage(addr) = true }

func (d *dense) account(addr uint64, write bool, class Class) {
	k := (addr - d.base) / d.unit % d.nd
	pj := d.p.ReadEnergyPJ
	if write {
		d.writes[k]++
		d.busy[k] += d.p.WriteOccupancyCyc
		pj = d.p.WriteEnergyPJ
	} else {
		d.reads[k]++
		d.busy[k] += d.p.ReadOccupancyCyc
	}
	if d.kind == NVMKind {
		d.st.AddNVM(write, class == Redundancy, pj)
	} else {
		d.st.AddDRAM(write, pj)
	}
}

func (d *dense) readLine(now, addr uint64, class Class, buf []byte) (uint64, error) {
	src := addr
	if b, ok := d.bugsR[addr]; ok && class == Data {
		delete(d.bugsR, addr)
		src = b.target
	}
	d.account(src, false, class)
	copy(buf, d.line(src))
	if d.ecc[(src-d.base)/d.ls] != xsum.Checksum(buf) {
		d.st.ECCErrors++
		return now + d.p.ReadCyc, ErrECC
	}
	return now + d.p.ReadCyc, nil
}

func (d *dense) writeLine(now, addr uint64, class Class, data []byte) uint64 {
	dst := addr
	if b, ok := d.bugsW[addr]; ok && class == Data {
		delete(d.bugsW, addr)
		if b.kind == lostWrite {
			d.account(addr, true, class)
			return now + d.p.WriteCyc
		}
		dst = b.target
	}
	d.account(dst, true, class)
	d.touch(dst)
	copy(d.line(dst), data)
	d.ecc[(dst-d.base)/d.ls] = xsum.Checksum(data)
	return now + d.p.WriteCyc
}

func (d *dense) writeRaw(addr uint64, data []byte) {
	copy(d.data[addr-d.base:], data)
	for la := addr &^ (d.ls - 1); la < addr+uint64(len(data)); la += d.ls {
		d.touch(la)
		d.ecc[(la-d.base)/d.ls] = xsum.Checksum(d.line(la))
	}
}

func (d *dense) readRaw(addr uint64, buf []byte) { copy(buf, d.data[addr-d.base:]) }

// pair drives one Memory and its dense reference with the same operations
// and compares everything observable after each.
type pair struct {
	t    *testing.T
	m    *Memory
	st   *stats.Stats
	ref  *dense
	g    geom.Geometry
	base uint64
	size uint64
}

func newPair(t *testing.T, kind Kind, pageSize, nvmDIMMs, dimms int) *pair {
	t.Helper()
	// 40 stripes of NVM (more pages than one slab holds) and a DRAM pool
	// divisible into whole lines on 3 or 4 DIMMs.
	g, err := geom.New(64, pageSize, pageSize*12*8, pageSize*nvmDIMMs*40, nvmDIMMs)
	if err != nil {
		t.Fatal(err)
	}
	p := param.OptaneLike(dimms).Mem
	if kind == DRAMKind {
		p = param.ReproScale(param.Baseline).DRAM
		p.DIMMs = dimms
	}
	h := &pair{t: t, st: &stats.Stats{}, g: g}
	h.m = New(kind, &h.g, p, h.st)
	h.ref = newDense(kind, &h.g, p)
	h.base, h.size = h.m.Base(), h.m.Size()
	return h
}

func (h *pair) check(what string) {
	h.t.Helper()
	if *h.st != h.ref.st {
		h.t.Fatalf("%s: stats diverge:\n lazy  %+v\n dense %+v", what, *h.st, h.ref.st)
	}
	reads, writes := h.m.DIMMAccesses()
	if fmt.Sprint(reads, writes) != fmt.Sprint(h.ref.reads, h.ref.writes) {
		h.t.Fatalf("%s: per-DIMM accesses %v/%v, dense %v/%v", what, reads, writes, h.ref.reads, h.ref.writes)
	}
	if busy := h.m.BusyUntil(); busy != slices.Max(h.ref.busy) {
		h.t.Fatalf("%s: BusyUntil %d, dense %v", what, busy, h.ref.busy)
	}
	if n := h.m.PendingBugs(); n != len(h.ref.bugsW)+len(h.ref.bugsR) {
		h.t.Fatalf("%s: %d pending bugs, dense %d", what, n, len(h.ref.bugsW)+len(h.ref.bugsR))
	}
	// One address per media page, its first byte: the page's unit index
	// on DIMM k is the DIMM-local offset's unit row interleaved with k.
	d := h.ref
	for k, pages := range d.written {
		for pg, w := range pages {
			off := uint64(pg) * d.page
			h.written(what, d.base+(off/d.unit*d.nd+uint64(k))*d.unit+off%d.unit, w)
		}
	}
}

// written checks Written(a). It marks itself a helper only on failure,
// because Helper is costly and this runs for every media page per op.
func (h *pair) written(what string, a uint64, want bool) {
	if a < h.base+h.size && h.m.Written(a) != want {
		h.t.Helper()
		h.t.Fatalf("%s: Written(%#x) = %v, dense %v", what, a, !want, want)
	}
}

func (h *pair) readLine(now, addr uint64, class Class) []byte {
	h.t.Helper()
	got, want := bytes.Repeat([]byte{0xa5}, h.g.LineSize), make([]byte, h.g.LineSize)
	d1, e1 := h.m.ReadLine(now, addr, class, got)
	d2, e2 := h.ref.readLine(now, addr, class, want)
	if d1 != d2 || e1 != e2 || !bytes.Equal(got, want) {
		h.t.Fatalf("ReadLine %#x: lazy (%d, %v, %x), dense (%d, %v, %x)", addr, d1, e1, got, d2, e2, want)
	}
	return got
}

func (h *pair) writeLine(now, addr uint64, class Class, data []byte) {
	h.t.Helper()
	if d1, d2 := h.m.WriteLine(now, addr, class, data), h.ref.writeLine(now, addr, class, data); d1 != d2 {
		h.t.Fatalf("WriteLine %#x completes at %d, dense %d", addr, d1, d2)
	}
}

func (h *pair) writeRaw(addr uint64, data []byte) {
	h.m.WriteRaw(addr, data)
	h.ref.writeRaw(addr, data)
}

func (h *pair) readRaw(addr uint64, n int) {
	h.t.Helper()
	got, want := bytes.Repeat([]byte{0xa5}, n), make([]byte, n)
	h.m.ReadRaw(addr, got)
	h.ref.readRaw(addr, want)
	if !bytes.Equal(got, want) {
		h.t.Fatalf("ReadRaw [%#x,+%d) differs from dense", addr, n)
	}
}

func (h *pair) flipBit(addr uint64, bit uint) {
	h.m.FlipBit(addr, bit)
	h.ref.touch(addr)
	h.ref.data[addr-h.base] ^= 1 << (bit % 8)
}

func (h *pair) lostWrite(a uint64) {
	h.m.InjectLostWrite(a)
	h.ref.bugsW[a] = bug{kind: lostWrite}
}

func (h *pair) misdirectedWrite(a, to uint64) {
	h.m.InjectMisdirectedWrite(a, to)
	h.ref.bugsW[a] = bug{kind: misdirectedWrite, target: to}
}

func (h *pair) misdirectedRead(a, from uint64) {
	h.m.InjectMisdirectedRead(a, from)
	h.ref.bugsR[a] = bug{kind: misdirectedRead, target: from}
}

// finish compares the whole pool: raw content, and every line's ECC
// verdict through a timed read.
func (h *pair) finish() {
	h.t.Helper()
	h.readRaw(h.base, int(h.size))
	for a := h.base; a < h.base+h.size; a += uint64(h.g.LineSize) {
		h.readLine(0, a, Redundancy)
		h.written("final sweep", a, *h.ref.mediaPage(a))
	}
	h.check("final sweep")
}

var diffConfigs = []struct {
	name                      string
	kind                      Kind
	pageSize, nvmDIMMs, dimms int
}{
	{"nvm-4dimm", NVMKind, 4096, 4, 4},
	{"nvm-3dimm", NVMKind, 4096, 3, 3},
	{"nvm-3dimm-page3072", NVMKind, 3072, 3, 3},
	{"dram-4dimm", DRAMKind, 4096, 4, 4},
	{"dram-3dimm", DRAMKind, 4096, 4, 3},
	{"dram-3dimm-page3072", DRAMKind, 3072, 3, 3},
}

// TestLazyMatchesDense drives random sequences of every media operation
// and injected bug against the lazy store and the dense reference, for
// both interleaves, at 4 and 3 DIMMs and a non-power-of-two page size.
func TestLazyMatchesDense(t *testing.T) {
	for _, c := range diffConfigs {
		t.Run(c.name, func(t *testing.T) {
			h := newPair(t, c.kind, c.pageSize, c.nvmDIMMs, c.dimms)
			rng := rand.New(rand.NewSource(int64(len(c.name))))
			ls, ps := uint64(h.g.LineSize), uint64(h.g.PageSize)
			lines := h.size / ls
			hot := make([]uint64, 48)
			for i := range hot {
				hot[i] = uint64(rng.Int63n(int64(lines)))
			}
			line := func() uint64 {
				if rng.Intn(2) == 0 {
					return h.base + hot[rng.Intn(len(hot))]*ls
				}
				return h.base + uint64(rng.Int63n(int64(lines)))*ls
			}
			// span returns a raw range that starts and ends mid-line: a
			// few bytes inside one line, or one to three pages long.
			span := func() (uint64, int) {
				if rng.Intn(4) == 0 {
					return line() + 1 + uint64(rng.Intn(int(ls)/2)), 1 + rng.Intn(int(ls)/2-1)
				}
				n := int(ps) + 1 + rng.Intn(2*int(ps))
				first := uint64(rng.Int63n(int64(lines - 3*ps/ls - 2)))
				a := h.base + first*ls + 1 + uint64(rng.Intn(int(ls)-2))
				if (a+uint64(n))%ls == 0 {
					n--
				}
				return a, n
			}
			class := func() Class { return Class(rng.Intn(2)) }
			payload := func(n int) []byte {
				b := make([]byte, n)
				rng.Read(b)
				return b
			}
			for i := 0; i < 4000; i++ {
				now := uint64(i) * 7
				switch op := rng.Intn(16); {
				case op < 4:
					h.readLine(now, line(), class())
				case op < 7:
					h.writeLine(now, line(), class(), payload(int(ls)))
				case op < 9:
					a, n := span()
					h.writeRaw(a, payload(n))
				case op < 11:
					a, n := span()
					h.readRaw(a, n)
				case op == 11:
					h.flipBit(line()+uint64(rng.Intn(int(ls))), uint(rng.Intn(8)))
				case op == 12:
					h.lostWrite(line())
				case op == 13:
					h.misdirectedWrite(line(), line())
				case op == 14:
					h.misdirectedRead(line(), line())
				default:
					a := line()
					_, w := h.ref.bugsW[a]
					_, r := h.ref.bugsR[a]
					if h.m.BugArmed(a) != (w || r) {
						t.Fatalf("BugArmed(%#x) = %v, dense %v", a, h.m.BugArmed(a), w || r)
					}
				}
				h.check(fmt.Sprintf("op %d", i))
			}
			h.finish()
		})
	}
}

// The named cases below pin how never-written media meets device ECC and
// the firmware bugs, against the dense reference as well.

func TestFlipBitOnUntouchedLineFailsECC(t *testing.T) {
	h := newPair(t, NVMKind, 4096, 4, 4)
	a := h.base + 4096*5 + 192
	h.flipBit(a+9, 2)
	if _, err := h.m.ReadLine(0, a, Data, make([]byte, 64)); err != ErrECC {
		t.Fatalf("ReadLine after FlipBit on a never-written line: err = %v, want ErrECC", err)
	}
	h.ref.readLine(0, a, Data, make([]byte, 64))
	h.check("flip")
	h.finish()
}

func TestLostWriteToUntouchedLineReadsZero(t *testing.T) {
	h := newPair(t, NVMKind, 4096, 4, 4)
	a := h.base + 4096*7
	h.lostWrite(a)
	h.writeLine(0, a, Data, pat(9))
	if got := h.readLine(0, a, Data); !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("lost write to a never-written line reads %x, want zeros", got)
	}
	if h.m.Written(a) {
		t.Fatal("lost write allocated its page")
	}
	h.check("lost write")
	h.finish()
}

func TestMisdirectedWriteIntoUntouchedTarget(t *testing.T) {
	h := newPair(t, NVMKind, 4096, 4, 4)
	x, y := h.base, h.base+4096*9+64
	h.writeLine(0, x, Data, pat(1))
	h.misdirectedWrite(x, y)
	h.writeLine(0, x, Data, pat(2))
	if got := h.readLine(0, x, Data); !bytes.Equal(got, pat(1)) {
		t.Errorf("intended line %x, want its old content", got)
	}
	if got := h.readLine(0, y, Data); !bytes.Equal(got, pat(2)) {
		t.Errorf("never-written target %x, want the misdirected data", got)
	}
	if !h.m.Written(y) {
		t.Error("misdirected write did not allocate the target's page")
	}
	h.check("misdirected write")
	h.finish()
}
