// Package nvm models the simulated machine's memory devices: NVM DIMMs
// (page-interleaved, with injectable firmware bugs and device-level ECC)
// and DRAM DIMMs (line-interleaved). Devices are backed by real bytes so
// that checksums, parity, corruption and recovery are computed over real
// content rather than emulated with flags. The bytes are allocated a page
// at a time on first write; media never written reads as zeros.
//
// Faithful to §II-A of the paper, device-level ECC is read and written as
// an atom with its data by the firmware during each media access, so it
// detects media corruption (bit flips) but can never detect lost-write or
// misdirected-read/write firmware bugs: a lost write loses the ECC update
// too, and a misdirected access moves data and ECC together.
package nvm

import (
	"errors"
	"fmt"
	"math/bits"

	"tvarak/internal/geom"
	"tvarak/internal/param"
	"tvarak/internal/stats"
	"tvarak/internal/xsum"
)

// Class tags an access for the NVM data-vs-redundancy split in Fig. 8.
type Class int

const (
	// Data marks demand application-data accesses.
	Data Class = iota
	// Redundancy marks accesses performed only to maintain or verify
	// redundancy: checksum lines, parity lines, and old-data reads on the
	// writeback path.
	Redundancy
)

// ErrECC is returned when the device-level ECC detects media corruption.
var ErrECC = errors.New("nvm: device ECC mismatch (media corruption)")

// Kind distinguishes the two memory technologies.
type Kind int

const (
	// NVMKind interleaves pages across DIMMs (required by the parity
	// geometry, Fig. 3).
	NVMKind Kind = iota
	// DRAMKind interleaves cache lines across DIMMs.
	DRAMKind
)

type bugKind int

const (
	lostWrite bugKind = iota
	misdirectedWrite
	misdirectedRead
)

type bug struct {
	kind   bugKind
	target uint64 // where a misdirected access actually lands / reads from
}

// slabPages is how many media pages one slab allocation holds: enough
// that a cell's media is a few large pointer-free objects, few enough that
// a cell touching a handful of pages allocates little.
const slabPages = 64

// A slab backs slabPages media pages with their device ECC words. Each
// stored ECC word is the line's ECC XOR the all-zero line's ECC, so a
// freshly allocated (zeroed) slab holds zero lines whose ECC verifies.
type slab struct {
	data []byte
	ecc  []uint32
}

type dimm struct {
	// pages maps each DIMM-local media page to its 1-based slot in the
	// pool's slabs; 0 marks a page never written, which reads as zeros
	// with a verifying ECC.
	pages   []uint32
	busyCyc uint64 // accumulated transfer occupancy (bandwidth bound)
	reads   uint64
	writes  uint64
}

// Memory is one memory pool (all NVM DIMMs or all DRAM DIMMs). Media is
// allocated lazily, a page at a time on first write, so a pool costs only
// its page tables until the simulation touches it.
type Memory struct {
	kind     Kind
	p        param.MemParams
	base     uint64
	size     uint64
	dimms    []*dimm
	lineSize int
	st       *stats.Stats

	// Precomputed interleave arithmetic for locate(), which runs on every
	// media access: unit is the interleave granule (page for NVM, line for
	// DRAM) and nd the DIMM count; the shift/mask forms apply when the
	// respective value is a power of two. Lines are a power of two
	// (param.Validate), so line arithmetic is always shift/mask.
	unit      uint64
	unitShift uint
	unitPow2  bool
	nd        uint64
	dimmShift uint
	dimmMask  uint64
	dimmPow2  bool
	lineShift uint

	// Media pages are geometry pages of DIMM-local space: page, with its
	// shift form when a power of two, and lpp lines per page.
	page      uint64
	pageShift uint
	pagePow2  bool
	lpp       uint64

	slabs   []slab
	used    uint32 // media pages allocated so far (the last slot handed out)
	zeroECC uint32

	// One-shot firmware bugs armed by tests and fault-injection tools,
	// keyed by intended line address. NVM only. Bugs model firmware
	// faults on the demand data path, so they fire only on Data-class
	// accesses: redundancy-maintenance reads/writes issued by the
	// controller would otherwise consume a bug armed for the
	// application's own access to the same line.
	bugsW map[uint64]bug
	bugsR map[uint64]bug

	// Observers see every access at the intended address, before bug
	// redirection — i.e. what the issuer meant to persist or read — so a
	// shadow model built from them diverges from media exactly where a
	// firmware bug or media corruption struck. Nil when disabled.
	obsW WriteObserver
	obsR ReadObserver
}

// WriteObserver receives every media write with its intended address and
// payload, before any injected firmware bug drops or redirects it. timed
// is false for WriteRaw (setup/recovery) writes; class is Data for those.
type WriteObserver func(addr uint64, data []byte, timed bool, class Class)

// ReadObserver receives every timed media read after delivery: buf holds
// the bytes actually returned to the issuer (possibly redirected by a
// misdirected-read bug), addr the intended line, and eccErr whether the
// device ECC flagged the access.
type ReadObserver func(addr uint64, buf []byte, class Class, eccErr bool)

// SetWriteObserver installs (or, with nil, removes) the write observer.
func (m *Memory) SetWriteObserver(o WriteObserver) { m.obsW = o }

// SetReadObserver installs (or, with nil, removes) the read observer.
func (m *Memory) SetReadObserver(o ReadObserver) { m.obsR = o }

// New builds a memory pool. For NVMKind the pool spans
// [geo.NVMBase(), geo.NVMEnd()); for DRAMKind it spans [0, geo.DRAMBytes).
// Only the per-DIMM page tables are allocated; media pages come on first
// write.
func New(kind Kind, geo *geom.Geometry, p param.MemParams, st *stats.Stats) *Memory {
	m := &Memory{
		kind:      kind,
		p:         p,
		lineSize:  geo.LineSize,
		lineShift: uint(bits.TrailingZeros64(uint64(geo.LineSize))),
		page:      uint64(geo.PageSize),
		lpp:       uint64(geo.LinesPerPage()),
		st:        st,
		zeroECC:   xsum.Checksum(make([]byte, geo.LineSize)),
		bugsW:     make(map[uint64]bug),
		bugsR:     make(map[uint64]bug),
	}
	if kind == NVMKind {
		m.base = geo.NVMBase()
		m.size = uint64(geo.NVMBytes)
		m.unit = m.page
	} else {
		m.base = 0
		m.size = uint64(geo.DRAMBytes)
		m.unit = uint64(geo.LineSize)
	}
	m.unitPow2, m.unitShift = pow2(m.unit)
	m.pagePow2, m.pageShift = pow2(m.page)
	m.nd = uint64(p.DIMMs)
	if m.dimmPow2, m.dimmShift = pow2(m.nd); m.dimmPow2 {
		m.dimmMask = m.nd - 1
	}
	per := m.size / m.nd
	pages := (per + m.page - 1) / m.page
	m.dimms = make([]*dimm, p.DIMMs)
	for i := range m.dimms {
		m.dimms[i] = &dimm{pages: make([]uint32, pages)}
	}
	return m
}

func pow2(v uint64) (bool, uint) {
	return v&(v-1) == 0, uint(bits.TrailingZeros64(v))
}

// Contains reports whether addr belongs to this pool.
func (m *Memory) Contains(addr uint64) bool {
	return addr >= m.base && addr < m.base+m.size
}

// locate maps an address to its DIMM, the media page there and the byte
// offset within that page, plus rest, the bytes from addr to the end of
// its interleave unit (which never crosses a media page). The interleave
// granule (page for NVM, line for DRAM) is precomputed as unit;
// shift/mask fast paths cover the power-of-two cases.
func (m *Memory) locate(addr uint64) (d *dimm, pg, in, rest uint64) {
	rel := addr - m.base
	var idx, inUnit uint64
	if m.unitPow2 {
		idx, inUnit = rel>>m.unitShift, rel&(m.unit-1)
	} else {
		idx, inUnit = rel/m.unit, rel%m.unit
	}
	var di, row uint64
	if m.dimmPow2 {
		di, row = idx&m.dimmMask, idx>>m.dimmShift
	} else {
		di, row = idx%m.nd, idx/m.nd
	}
	off := row*m.unit + inUnit
	if m.pagePow2 {
		pg, in = off>>m.pageShift, off&(m.page-1)
	} else {
		pg, in = off/m.page, off%m.page
	}
	return m.dimms[di], pg, in, m.unit - inUnit
}

// slot returns the stored bytes and ECC words of the media page in slot s.
func (m *Memory) slot(s uint32) ([]byte, []uint32) {
	s--
	sl := &m.slabs[s/slabPages]
	k := uint64(s % slabPages)
	return sl.data[k*m.page : (k+1)*m.page], sl.ecc[k*m.lpp : (k+1)*m.lpp]
}

// touch returns DIMM d's media page pg, allocating it (as zeros with
// verifying ECC) on first use.
func (m *Memory) touch(d *dimm, pg uint64) ([]byte, []uint32) {
	s := d.pages[pg]
	if s == 0 {
		if m.used%slabPages == 0 {
			m.slabs = append(m.slabs, slab{
				data: make([]byte, slabPages*m.page),
				ecc:  make([]uint32, slabPages*m.lpp),
			})
		}
		m.used++
		s = m.used
		d.pages[pg] = s
	}
	return m.slot(s)
}

// Written reports whether the media page holding addr has been allocated:
// written, bit-flipped, or struck by a misdirected write. Media for which
// it reports false reads as zeros. Untimed and side-effect free, for
// checkers that visit only the media a run has touched.
func (m *Memory) Written(addr uint64) bool {
	d, pg, _, _ := m.locate(addr)
	return d.pages[pg] != 0
}

func (m *Memory) checkLine(addr uint64) uint64 {
	if addr&uint64(m.lineSize-1) != 0 {
		panic(fmt.Sprintf("nvm: unaligned line address %#x", addr))
	}
	if !m.Contains(addr) {
		panic(fmt.Sprintf("nvm: address %#x outside pool [%#x,%#x)", addr, m.base, m.base+m.size))
	}
	return addr
}

// ReadLine performs a timed media read of the 64 B line at addr into buf,
// accounting stats and DIMM occupancy. It returns the completion cycle.
// A pending misdirected-read bug silently returns another line's content;
// device ECC cannot catch that (the wrong line's ECC matches the wrong
// line's data), but genuine media corruption returns ErrECC.
func (m *Memory) ReadLine(now uint64, addr uint64, class Class, buf []byte) (uint64, error) {
	m.checkLine(addr)
	src := addr
	// Bugs are armed only inside fault-injection runs; the len check keeps
	// the normal path free of a map lookup per access.
	if len(m.bugsR) != 0 {
		if b, ok := m.bugsR[addr]; ok && b.kind == misdirectedRead && class == Data {
			delete(m.bugsR, addr)
			src = b.target
		}
	}
	d, pg, in, _ := m.locate(src)
	m.accRead(d, class)
	if s := d.pages[pg]; s == 0 {
		// Never written: zeros, whose ECC verifies by construction.
		clear(buf)
	} else {
		data, ecc := m.slot(s)
		copy(buf, data[in:in+uint64(m.lineSize)])
		if ecc[in>>m.lineShift]^m.zeroECC != xsum.Checksum(buf) {
			if m.st != nil {
				m.st.ECCErrors++
			}
			if m.obsR != nil {
				m.obsR(addr, buf, class, true)
			}
			return now + m.p.ReadCyc, ErrECC
		}
	}
	if m.obsR != nil {
		m.obsR(addr, buf, class, false)
	}
	return now + m.p.ReadCyc, nil
}

func (m *Memory) accRead(d *dimm, class Class) {
	d.busyCyc += m.p.ReadOccupancyCyc
	d.reads++
	if m.st == nil {
		return
	}
	if m.kind == NVMKind {
		m.st.AddNVM(false, class == Redundancy, m.p.ReadEnergyPJ)
	} else {
		m.st.AddDRAM(false, m.p.ReadEnergyPJ)
	}
}

// WriteLine performs a timed media write of data to the line at addr.
// A pending lost-write bug acknowledges without touching media; a pending
// misdirected-write bug writes data (and its ECC, atomically) to the wrong
// line. The completion cycle is returned.
func (m *Memory) WriteLine(now uint64, addr uint64, class Class, data []byte) uint64 {
	m.checkLine(addr)
	if m.obsW != nil {
		m.obsW(addr, data, true, class)
	}
	dst := addr
	if len(m.bugsW) != 0 {
		if b, ok := m.bugsW[addr]; ok && class == Data {
			delete(m.bugsW, addr)
			switch b.kind {
			case lostWrite:
				// Acknowledge without updating media. Occupancy and stats
				// still accrue: the request was issued and "serviced".
				d, _, _, _ := m.locate(addr)
				m.accWrite(d, class)
				return now + m.p.WriteCyc
			case misdirectedWrite:
				dst = b.target
			}
		}
	}
	d, pg, in, _ := m.locate(dst)
	m.accWrite(d, class)
	page, ecc := m.touch(d, pg)
	copy(page[in:in+uint64(m.lineSize)], data)
	ecc[in>>m.lineShift] = xsum.Checksum(data) ^ m.zeroECC
	return now + m.p.WriteCyc
}

func (m *Memory) accWrite(d *dimm, class Class) {
	d.busyCyc += m.p.WriteOccupancyCyc
	d.writes++
	if m.st == nil {
		return
	}
	if m.kind == NVMKind {
		m.st.AddNVM(true, class == Redundancy, m.p.WriteEnergyPJ)
	} else {
		m.st.AddDRAM(true, m.p.WriteEnergyPJ)
	}
}

// ReadRaw copies current media content without timing, stats, bug or ECC
// effects. Setup, verification and recovery-checking code uses it.
func (m *Memory) ReadRaw(addr uint64, buf []byte) {
	for n := uint64(0); n < uint64(len(buf)); {
		d, pg, in, rest := m.locate(addr + n)
		dst := buf[n:min(n+rest, uint64(len(buf)))]
		if s := d.pages[pg]; s == 0 {
			clear(dst)
		} else {
			data, _ := m.slot(s)
			copy(dst, data[in:])
		}
		n += uint64(len(dst))
	}
}

// WriteRaw writes media content directly (with consistent ECC), without
// timing, stats or bugs. Used for setup and by recovery to repair media.
func (m *Memory) WriteRaw(addr uint64, data []byte) {
	if m.obsW != nil {
		m.obsW(addr, data, false, Data)
	}
	ls := uint64(m.lineSize)
	for n := uint64(0); n < uint64(len(data)); {
		d, pg, in, rest := m.locate(addr + n)
		src := data[n:min(n+rest, uint64(len(data)))]
		page, ecc := m.touch(d, pg)
		copy(page[in:], src)
		for lo := in &^ (ls - 1); lo < in+uint64(len(src)); lo += ls {
			ecc[lo>>m.lineShift] = xsum.Checksum(page[lo:lo+ls]) ^ m.zeroECC
		}
		n += uint64(len(src))
	}
}

// InjectLostWrite arms a one-shot lost-write firmware bug: the next
// WriteLine to lineAddr is acknowledged but never reaches media (Fig. 1).
func (m *Memory) InjectLostWrite(lineAddr uint64) {
	m.bugsW[m.checkLine(lineAddr)] = bug{kind: lostWrite}
}

// InjectMisdirectedWrite arms a one-shot misdirected-write bug: the next
// WriteLine intended for intended lands on actual instead, corrupting it
// (Fig. 2).
func (m *Memory) InjectMisdirectedWrite(intended, actual uint64) {
	m.checkLine(actual)
	m.bugsW[m.checkLine(intended)] = bug{kind: misdirectedWrite, target: actual}
}

// InjectMisdirectedRead arms a one-shot misdirected-read bug: the next
// ReadLine of intended returns the content of actual.
func (m *Memory) InjectMisdirectedRead(intended, actual uint64) {
	m.checkLine(actual)
	m.bugsR[m.checkLine(intended)] = bug{kind: misdirectedRead, target: actual}
}

// FlipBit corrupts one media bit without updating ECC, modelling media
// corruption that device ECC does detect.
func (m *Memory) FlipBit(addr uint64, bit uint) {
	d, pg, in, _ := m.locate(addr)
	page, _ := m.touch(d, pg)
	page[in] ^= 1 << (bit % 8)
}

// PendingBugs reports how many injected bugs have not fired yet.
func (m *Memory) PendingBugs() int { return len(m.bugsW) + len(m.bugsR) }

// BugArmed reports whether an injected bug is still armed at lineAddr.
// The fault-injection campaign uses it to tell fired injections (media
// now diverges from intent) from ones the workload never triggered.
func (m *Memory) BugArmed(lineAddr uint64) bool {
	_, w := m.bugsW[lineAddr]
	_, r := m.bugsR[lineAddr]
	return w || r
}

// CancelBugs disarms any still-pending injected bugs at lineAddr and
// reports how many were removed. Campaigns cancel unfired injections at
// round boundaries so their accounting of media divergence stays exact.
func (m *Memory) CancelBugs(lineAddr uint64) int {
	n := 0
	if _, ok := m.bugsW[lineAddr]; ok {
		delete(m.bugsW, lineAddr)
		n++
	}
	if _, ok := m.bugsR[lineAddr]; ok {
		delete(m.bugsR, lineAddr)
		n++
	}
	return n
}

// ResetTiming clears DIMM queueing state and per-DIMM counters so a new
// measured region starts with idle devices.
func (m *Memory) ResetTiming() {
	for _, d := range m.dimms {
		d.busyCyc = 0
		d.reads = 0
		d.writes = 0
	}
}

// BusyUntil returns the busiest DIMM's accumulated transfer occupancy — a
// lower bound on the run's duration imposed by per-DIMM bandwidth. The
// engine folds it into the fixed-work runtime so bandwidth-bound workloads
// (stream) are limited by DIMM occupancy as in the paper. Individual
// accesses see fixed service latency (queueing delay is not modeled
// per-request; the throughput bound captures saturation — see DESIGN.md).
func (m *Memory) BusyUntil() uint64 {
	var t uint64
	for _, d := range m.dimms {
		t = max(t, d.busyCyc)
	}
	return t
}

// DIMMAccesses returns per-DIMM (reads, writes) counters, used by tests to
// check interleaving and by the harness for reporting.
func (m *Memory) DIMMAccesses() (reads, writes []uint64) {
	for _, d := range m.dimms {
		reads = append(reads, d.reads)
		writes = append(writes, d.writes)
	}
	return reads, writes
}

// Base returns the pool's first physical address.
func (m *Memory) Base() uint64 { return m.base }

// Size returns the pool's capacity in bytes.
func (m *Memory) Size() uint64 { return m.size }
