package oracle_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tvarak/internal/apps/fio"
	"tvarak/internal/geom"
	"tvarak/internal/harness"
	"tvarak/internal/nvm"
	"tvarak/internal/obs"
	"tvarak/internal/oracle"
	"tvarak/internal/param"
	"tvarak/internal/xsum"
)

// dense is the differential reference for the paged shadow: one flat byte
// array over the whole NVM pool, snapshotted from media at attach and
// updated at the intended address of every write the test issues. Its
// verdicts compare every line of the pool against media, with no notion
// of which pages either side holds; it shares no storage or page
// arithmetic with the oracle, only the exclusion set.
type dense struct {
	t    *testing.T
	sys  *harness.System
	o    *oracle.Oracle
	geo  *geom.Geometry
	base uint64
	ref  []byte

	// silent and eccReads are the reads the reference expects the oracle
	// to have recorded: delivered bytes diverging from intent without an
	// ECC error, and reads the device ECC flagged.
	silent, eccReads map[uint64]bool
}

// newDense builds a TVARAK system with a mapped fio region and an
// unmapped, page-checksummed file, attaches the oracle and snapshots the
// reference. Most of the pool is never written.
func newDense(t *testing.T) *dense {
	t.Helper()
	cfg := param.SmallTest(param.Tvarak)
	cfg.NVMBytes = 8 << 20
	sys, err := harness.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := fio.New(fio.Config{
		Pattern: fio.Rand, Write: true, Threads: 2,
		RegionBytes: 32 << 10, AccessBytes: 4 << 10,
		BlockBytes: 4096, ComputeCyc: 1, Seed: 5,
	})
	if err := w.Setup(sys); err != nil {
		t.Fatal(err)
	}
	f, err := sys.FS.Create("cold", 40<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FS.WriteAt(f, 100, bytes.Repeat([]byte{0x3c, 0x7e, 0x11}, 9000)); err != nil {
		t.Fatal(err)
	}
	h := &dense{
		t: t, sys: sys, geo: &sys.Eng.Geo,
		silent: map[uint64]bool{}, eccReads: map[uint64]bool{},
	}
	h.base = h.geo.NVMBase()
	h.ref = make([]byte, h.geo.NVMBytes)
	sys.Eng.NVM.ReadRaw(h.base, h.ref)
	h.o = oracle.Attach(sys.Eng, sys.FS)
	return h
}

// fileAddr returns the address of byte off of the named file's data page.
func (h *dense) fileAddr(name string, page, off uint64) uint64 {
	h.t.Helper()
	f, err := h.sys.FS.Open(name)
	if err != nil {
		h.t.Fatal(err)
	}
	return h.geo.DataIndexAddr(f.StartDI+page, off)
}

func (h *dense) line(la uint64) []byte { return h.ref[la-h.base : la-h.base+64] }

func (h *dense) writeLine(la uint64, class nvm.Class, data []byte) {
	h.sys.Eng.NVM.WriteLine(0, la, class, data)
	copy(h.line(la), data)
}

func (h *dense) writeRaw(addr uint64, data []byte) {
	h.sys.Eng.NVM.WriteRaw(addr, data)
	copy(h.ref[addr-h.base:], data)
}

// hiddenWrite changes media behind the oracle's back (paused), so only
// media holds the new bytes.
func (h *dense) hiddenWrite(addr uint64, data []byte) {
	h.o.Pause()
	h.sys.Eng.NVM.WriteRaw(addr, data)
	h.o.Resume()
}

func (h *dense) readLine(la uint64) {
	buf := make([]byte, 64)
	_, err := h.sys.Eng.NVM.ReadLine(0, la, nvm.Data, buf)
	switch {
	case err != nil:
		h.eccReads[la] = true
	case !bytes.Equal(buf, h.line(la)):
		h.silent[la] = true
	}
}

func (h *dense) checkRange(addr uint64, n int) {
	h.t.Helper()
	got := bytes.Repeat([]byte{0xa5}, n)
	h.o.ShadowRange(addr, got)
	if want := h.ref[addr-h.base : addr-h.base+uint64(n)]; !bytes.Equal(got, want) {
		h.t.Fatalf("ShadowRange [%#x,+%d) differs from the dense shadow", addr, n)
	}
}

func (h *dense) checkWant(la uint64) {
	h.t.Helper()
	got := bytes.Repeat([]byte{0xa5}, 64)
	h.o.Want(la, got)
	if !bytes.Equal(got, h.line(la)) {
		h.t.Fatalf("Want(%#x) = %x, dense %x", la, got, h.line(la))
	}
}

// media is the dense VerifyMedia: every line of every non-parity page.
func (h *dense) media(includeExcluded bool) []oracle.Divergence {
	var out []oracle.Divergence
	ps := uint64(h.geo.PageSize)
	buf := make([]byte, ps)
	for pa := h.base; pa < h.geo.NVMEnd(); pa += ps {
		if h.geo.IsParityPage(h.geo.PageOf(pa)) {
			continue
		}
		h.sys.Eng.NVM.ReadRaw(pa, buf)
		for la := pa; la < pa+ps; la += 64 {
			if (includeExcluded || !h.o.Excluded(la)) && !bytes.Equal(buf[la-pa:la-pa+64], h.line(la)) {
				out = append(out, oracle.Divergence{Addr: la, Kind: "media"})
			}
		}
	}
	return out
}

// pageCsums is the dense VerifyPageCsums.
func (h *dense) pageCsums() []oracle.Divergence {
	var out []oracle.Divergence
	ps := uint64(h.geo.PageSize)
	slot := make([]byte, xsum.Size)
	tableDI, _ := h.sys.FS.PageCsumTable()
	for _, f := range h.sys.FS.Files() {
		if f.Mapped() {
			continue
		}
		for p := uint64(0); p < f.Pages; p++ {
			di := f.StartDI + p
			pa := h.geo.DataIndexAddr(di, 0)
			h.sys.Eng.NVM.ReadRaw(h.geo.DataIndexAddr(tableDI, di*xsum.Size), slot)
			if xsum.Get(slot, 0) != xsum.Checksum(h.ref[pa-h.base:pa-h.base+ps]) {
				out = append(out, oracle.Divergence{Addr: pa, Kind: "page-csum"})
			}
		}
	}
	return out
}

func keys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// verdicts compares every whole-pool verdict and the recorded reads with
// the dense reference's and returns VerifyMediaAll's.
func (h *dense) verdicts(what string) []oracle.Divergence {
	h.t.Helper()
	all := h.o.VerifyMediaAll()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"VerifyMediaAll", all, h.media(true)},
		{"VerifyMedia", h.o.VerifyMedia(), h.media(false)},
		{"VerifyPageCsums", h.o.VerifyPageCsums(), h.pageCsums()},
		{"SilentReads", h.o.SilentReads(), keys(h.silent)},
		{"ECCReads", h.o.ECCReads(), keys(h.eccReads)},
	} {
		if g, w := fmt.Sprint(c.got), fmt.Sprint(c.want); g != w {
			h.t.Fatalf("%s: %s = %s, dense %s", what, c.name, g, w)
		}
	}
	return all
}

// TestPagedShadowMatchesDense drives random writes, hidden media writes,
// bit flips, firmware bugs, reads and exclusions against the oracle and
// the dense reference, comparing shadow reads after each operation and
// every verdict periodically.
func TestPagedShadowMatchesDense(t *testing.T) {
	h := newDense(t)
	rng := rand.New(rand.NewSource(17))
	ps := uint64(h.geo.PageSize)
	lines := uint64(h.geo.NVMBytes) / 64
	// A quarter of the line picks revisit a recently picked line, so reads
	// and writes meet earlier bugs and damage; a third of the rest land on
	// a small set of pages (the mapped region and the file among them),
	// and the others are spread over the pool, where nearly every page is
	// held by neither side.
	var hot []uint64
	for _, f := range h.sys.FS.Files() {
		for p := uint64(0); p < f.Pages; p += 3 {
			hot = append(hot, h.geo.DataIndexAddr(f.StartDI+p, 0))
		}
	}
	for i := 0; i < 8; i++ {
		hot = append(hot, h.base+uint64(rng.Int63n(int64(lines/64)))*ps)
	}
	recent := make([]uint64, 16)
	for i := range recent {
		recent[i] = hot[i%len(hot)]
	}
	line := func() uint64 {
		var la uint64
		switch r := rng.Intn(12); {
		case r < 3:
			return recent[rng.Intn(len(recent))]
		case r < 6:
			la = hot[rng.Intn(len(hot))] + uint64(rng.Intn(int(ps/64)))*64
		default:
			la = h.base + uint64(rng.Int63n(int64(lines)))*64
		}
		recent[rng.Intn(len(recent))] = la
		return la
	}
	// span returns a byte range that crosses at least one page boundary
	// half the time, and otherwise stays inside one line.
	span := func() (uint64, int) {
		a := line() + uint64(rng.Intn(64))
		if rng.Intn(2) == 0 {
			return a, 1 + rng.Intn(int(64-a%64))
		}
		a = a - a%ps + ps - uint64(1+rng.Intn(200))
		return a, int(ps-a%ps) + 1 + rng.Intn(int(ps)+300)
	}
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for i := 0; i < 3000; i++ {
		switch op := rng.Intn(20); {
		case op < 4:
			h.writeLine(line(), nvm.Class(rng.Intn(2)), payload(64))
		case op < 6:
			a, n := span()
			if a+uint64(n) < h.geo.NVMEnd() {
				h.writeRaw(a, payload(n))
			}
		case op == 6:
			h.hiddenWrite(line()+uint64(rng.Intn(60)), payload(4))
		case op == 7:
			h.sys.Eng.NVM.FlipBit(line()+uint64(rng.Intn(64)), uint(rng.Intn(8)))
		case op == 8:
			h.sys.Eng.NVM.InjectLostWrite(line())
		case op == 9:
			h.sys.Eng.NVM.InjectMisdirectedWrite(line(), line())
		case op == 10:
			h.sys.Eng.NVM.InjectMisdirectedRead(line(), line())
		case op < 13:
			h.readLine(line())
		case op == 13:
			if la := line(); h.o.Excluded(la) {
				h.o.Unexclude(la)
			} else {
				h.o.Exclude(la)
			}
		case op < 16:
			a, n := span()
			if a+uint64(n) < h.geo.NVMEnd() {
				h.checkRange(a, n)
			}
		case op < 19:
			h.checkWant(line())
		default:
			h.verdicts(fmt.Sprintf("op %d", i))
		}
	}
	if all := h.verdicts("final"); len(all) == 0 {
		t.Error("no media divergence after thousands of faults: the run checked nothing")
	}
	h.checkRange(h.base, h.geo.NVMBytes)
}

// untouched returns the first line of a non-parity page past both files
// that neither media nor the shadow holds.
func (h *dense) untouched(skip int) uint64 {
	h.t.Helper()
	ps := uint64(h.geo.PageSize)
	for pa := h.geo.NVMEnd() - ps; pa > h.base; pa -= ps {
		if h.geo.IsParityPage(h.geo.PageOf(pa)) || h.sys.Eng.NVM.Written(pa) {
			continue
		}
		if skip--; skip < 0 {
			return pa
		}
	}
	h.t.Fatal("no never-written page")
	return 0
}

func only(t *testing.T, what string, divs []oracle.Divergence, la uint64) {
	t.Helper()
	if len(divs) != 1 || divs[0] != (oracle.Divergence{Addr: la, Kind: "media"}) {
		t.Fatalf("%s = %v, want one media divergence at %#x", what, divs, la)
	}
}

// A lost write to a never-written page: the shadow now holds the page,
// media still does not, and the divergence is flagged.
func TestLostWriteToUnheldPage(t *testing.T) {
	h := newDense(t)
	la := h.untouched(0) + 128
	h.sys.Eng.NVM.InjectLostWrite(la)
	h.writeLine(la, nvm.Data, bytes.Repeat([]byte{7}, 64))
	if h.sys.Eng.NVM.Written(la) {
		t.Fatal("lost write allocated media")
	}
	only(t, "VerifyMedia", h.o.VerifyMedia(), la)
	h.verdicts("lost write")
}

// A misdirected write onto a never-written victim page: media now holds
// the victim's page, the shadow does not, and the victim is flagged.
func TestMisdirectedWriteOntoUnheldPage(t *testing.T) {
	h := newDense(t)
	la := h.fileAddr("cold", 0, 192)
	victim := h.untouched(0) + 64
	h.sys.Eng.NVM.InjectMisdirectedWrite(la, victim)
	h.o.Exclude(la)
	h.writeLine(la, nvm.Data, bytes.Repeat([]byte{0x99}, 64))
	only(t, "VerifyMedia", h.o.VerifyMedia(), victim)
	h.verdicts("misdirected write")
}

// A bit flip on a never-written line allocates media the shadow does not
// hold; VerifyMediaAll flags it even while the line is excluded.
func TestFlipBitOnUnheldLine(t *testing.T) {
	h := newDense(t)
	la := h.untouched(1) + 640
	h.sys.Eng.NVM.FlipBit(la+5, 1)
	h.o.Exclude(la)
	if divs := h.o.VerifyMedia(); len(divs) != 0 {
		t.Fatalf("VerifyMedia = %v, want the excluded line skipped", divs)
	}
	only(t, "VerifyMediaAll", h.o.VerifyMediaAll(), la)
	h.verdicts("flip")
}

// Reads of a never-written line are checked against zeros: a misdirected
// read delivering a written line's bytes there is silent, and so is one
// delivering zeros to a written line.
func TestMisdirectedReadsAndUnheldPages(t *testing.T) {
	h := newDense(t)
	held := h.fileAddr("fio", 0, 256)
	unheld := h.untouched(0) + 320
	h.readLine(unheld)
	h.sys.Eng.NVM.InjectMisdirectedRead(unheld, held)
	h.readLine(unheld)
	h.sys.Eng.NVM.InjectMisdirectedRead(held, unheld)
	h.readLine(held)
	want := []uint64{held, unheld}
	slices.Sort(want)
	if sr := h.o.SilentReads(); !slices.Equal(sr, want) {
		t.Fatalf("SilentReads = %#x, want %#x", sr, want)
	}
	h.verdicts("misdirected reads")
}

// A stale page-checksum slot for a file page neither side holds is
// flagged: the page is zeros, whatever the table says.
func TestPageCsumOfUnheldPage(t *testing.T) {
	h := newDense(t)
	f, err := h.sys.FS.Open("cold")
	if err != nil {
		t.Fatal(err)
	}
	p := f.Pages - 1
	pa := h.geo.DataIndexAddr(f.StartDI+p, 0)
	if h.sys.Eng.NVM.Written(pa) {
		t.Fatalf("last page of %q is written; pick a smaller prefix", f.Name)
	}
	tableDI, _ := h.sys.FS.PageCsumTable()
	h.hiddenWrite(h.geo.DataIndexAddr(tableDI, (f.StartDI+p)*xsum.Size), []byte{1, 2, 3, 4})
	if divs := h.o.VerifyPageCsums(); fmt.Sprint(divs) != fmt.Sprint([]oracle.Divergence{{Addr: pa, Kind: "page-csum"}}) {
		t.Fatalf("VerifyPageCsums = %v, want page-csum@%#x", divs, pa)
	}
	h.verdicts("stale page checksum")
}

// WriteRaw and ShadowRange spans crossing page boundaries, from a held
// page into unheld ones and back.
func TestSpansCrossPages(t *testing.T) {
	h := newDense(t)
	ps := uint64(h.geo.PageSize)
	held := h.fileAddr("cold", 0, 0)
	far := h.untouched(2)
	h.writeRaw(held+ps-10, bytes.Repeat([]byte{1, 2, 3}, 20))
	h.writeRaw(far-7, bytes.Repeat([]byte{4}, int(2*ps)+20))
	for _, r := range []struct {
		a uint64
		n int
	}{
		{held + ps - 30, 90},
		{far - 100, int(3 * ps)},
		{far + ps - 1, 2},
		{far + 2*ps, int(ps)},
	} {
		h.checkRange(r.a, r.n)
	}
	h.verdicts("spans")
}

// A recovery's repair write is checked against the shadow even where the
// shadow does not hold the page (it must restore zeros there).
func TestRepairCheckOnUnheldPage(t *testing.T) {
	h := newDense(t)
	good, bad := h.untouched(0), h.untouched(1)+64
	for _, la := range []uint64{good, bad} {
		h.o.Exclude(la)
	}
	h.writeLine(good, nvm.Data, make([]byte, 64))
	h.o.Trace(obs.Event{Kind: obs.EvRecovery, Addr: good})
	h.writeLine(bad, nvm.Data, bytes.Repeat([]byte{1}, 64))
	h.o.Trace(obs.Event{Kind: obs.EvRecovery, Addr: bad})
	if br := h.o.BadRepairs(); len(br) != 1 || br[0] != bad {
		t.Fatalf("BadRepairs = %#x, want [%#x]", br, bad)
	}
}
