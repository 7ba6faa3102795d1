// Package sim is the execution-driven simulation engine: workloads run as
// Go code issuing loads, stores and compute cycles against simulated cores,
// and the engine walks each access through private L1/L2 caches, the shared
// inclusive banked LLC (MESI directory, LRU, way-partitioning) and the
// memory devices, accounting the runtime, energy and access-count metrics
// the paper reports.
//
// Scheduling follows zsim's bound-weave idea: each core simulates
// independently for a fixed phase (10k cycles by default) and cores
// synchronize at phase boundaries, in core-ID order, which makes runs
// deterministic.
//
// The redundancy controller (TVARAK, package internal/core) plugs in via
// the RedundancyController interface: the engine calls OnFill for every
// NVM→LLC data fill, OnDirtyInstall when a clean LLC line first receives
// dirty data, and OnWriteback for every LLC→NVM data writeback.
package sim

import (
	"context"
	"fmt"
	"math/bits"

	"tvarak/internal/cache"
	"tvarak/internal/geom"
	"tvarak/internal/nvm"
	"tvarak/internal/obs"
	"tvarak/internal/param"
	"tvarak/internal/stats"
)

// RedundancyController is implemented by the TVARAK controller
// (internal/core). A nil controller means no redundancy hardware
// (Baseline and the software-only designs).
type RedundancyController interface {
	// OnFill verifies the 64 B line read from NVM at addr. The fill was
	// issued at cycle issue and the data arrived at cycle complete; the
	// controller's checksum access proceeds in parallel with the data
	// read (the address is known at issue time — Fig. 5 of the paper), so
	// OnFill returns only the extra latency beyond complete before the
	// verified line is handed to the bank controller. On a checksum
	// mismatch the controller recovers the line from parity in place
	// (mutating data) before returning.
	OnFill(issue, complete uint64, addr uint64, data []byte) uint64
	// OnDirtyInstall runs when a clean LLC line first receives dirty data;
	// oldClean is the line's content before the merge (equal to NVM's
	// persisted copy). TVARAK stashes it in the data-diff partition.
	OnDirtyInstall(now uint64, addr uint64, oldClean []byte)
	// OnWriteback updates redundancy for an LLC→NVM writeback of newData.
	// It is called before the engine writes the data line to NVM, so
	// NVM still holds the old content. oldClean is non-nil only when the
	// line was clean in the LLC until this very eviction merged upper-
	// level dirty data into it (in which case no diff was ever stashed).
	OnWriteback(now uint64, addr uint64, oldClean, newData []byte)
	// Drain flushes dirty redundancy state (cached checksum and parity
	// lines) to NVM at the end of the fixed-work run.
	Drain(now uint64)
}

// Engine owns the simulated machine.
type Engine struct {
	Cfg   *param.Config
	Geo   geom.Geometry
	NVM   *nvm.Memory
	DRAM  *nvm.Memory
	St    *stats.Stats
	Banks []*cache.Cache
	Cores []*Core
	Red   RedundancyController

	// Tracer, when non-nil, receives structured events (fills, writebacks,
	// LLC evictions here; controller events from internal/core). The nil
	// default keeps every hook site to one predictable branch.
	Tracer obs.Tracer
	// Sampler, when non-nil, snapshots statistics deltas at phase
	// boundaries into a per-run time series. Attach via AttachSampler.
	Sampler *obs.Sampler
	// Probe, when non-nil, is invoked at every bound-weave phase boundary
	// with the engine's cumulative clock and completed accesses. It is
	// wall-clock-domain live telemetry (internal/live): strictly read-only,
	// never consulted by the simulation, and the nil default costs one
	// branch per phase — nothing per access.
	Probe func(cycles, accesses uint64)

	dataWays int
	lineBuf  []byte
	// evictBuf holds the pre-merge clean content of an LLC victim for the
	// duration of one evictLLC call (OnWriteback consumes it synchronously),
	// avoiding a per-eviction allocation.
	evictBuf []byte
	// Precomputed line/bank indexing for BankIndex, which runs on every LLC
	// access: shift when the line size is a power of two, mask when the
	// bank count is (the full-scale machine has 12 banks, so the modulo
	// fallback stays).
	lineShift uint
	linePow2  bool
	nbanks    uint64
	bankMask  uint64
	bankPow2  bool

	// Cancellation and containment state (see Run). ctx is observed only
	// at bound-weave phase boundaries; cancelled tells yielded workers to
	// unwind; runErr poisons the engine once a run was cancelled or a
	// workload panicked, so later Run calls return immediately.
	ctx       context.Context
	cancelled bool
	runErr    error
}

// WorkloadPanicError is the structured error a contained workload panic
// becomes: the engine recovers the panic on the worker goroutine, unwinds
// the remaining workers at the next phase boundary, drains, and records
// this as the run error (Err).
type WorkloadPanicError struct {
	// Core is the ID of the core whose worker panicked.
	Core int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at the panic.
	Stack []byte
}

func (e *WorkloadPanicError) Error() string {
	return fmt.Sprintf("sim: workload on core %d panicked: %v", e.Core, e.Value)
}

// New builds the machine described by cfg.
func New(cfg *param.Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo, err := geom.New(cfg.LineSize, cfg.PageSize, cfg.DRAMBytes, cfg.NVMBytes, cfg.NVM.DIMMs)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Cfg:      cfg,
		Geo:      geo,
		St:       &stats.Stats{},
		dataWays: cfg.DataWays(),
		lineBuf:  make([]byte, cfg.LineSize),
		evictBuf: make([]byte, cfg.LineSize),
	}
	if ls := uint64(cfg.LineSize); ls&(ls-1) == 0 {
		e.linePow2 = true
		e.lineShift = uint(bits.TrailingZeros64(ls))
	}
	e.nbanks = uint64(cfg.LLCBanks)
	if e.nbanks&(e.nbanks-1) == 0 {
		e.bankPow2 = true
		e.bankMask = e.nbanks - 1
	}
	e.NVM = nvm.New(nvm.NVMKind, &e.Geo, cfg.NVM, e.St)
	e.DRAM = nvm.New(nvm.DRAMKind, &e.Geo, cfg.DRAM, e.St)
	e.Banks = make([]*cache.Cache, cfg.LLCBanks)
	for i := range e.Banks {
		e.Banks[i] = cache.New(cfg.LLCBank.Sets(cfg.LineSize), cfg.LLCBank.Ways, cfg.LineSize, uint64(cfg.LLCBanks))
	}
	e.Cores = make([]*Core, cfg.Cores)
	for i := range e.Cores {
		e.Cores[i] = &Core{
			ID:  i,
			eng: e,
			l1:  cache.New(cfg.L1.Sets(cfg.LineSize), cfg.L1.Ways, cfg.LineSize, 1),
			l2:  cache.New(cfg.L2.Sets(cfg.LineSize), cfg.L2.Ways, cfg.LineSize, 1),
		}
	}
	return e, nil
}

// SetRedundancy attaches the hardware redundancy controller.
func (e *Engine) SetRedundancy(r RedundancyController) { e.Red = r }

// SetContext installs a cancellation context. The engine checks it at
// every bound-weave phase boundary: once cancelled, the remaining workers
// unwind at the barrier (no store is in flight there), the run drains all
// dirty state so media stays consistent, and Err reports the cause. A nil
// context (the default) never cancels.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// Err returns the sticky run error: non-nil after a run was cancelled via
// the context or a workload panicked (WorkloadPanicError). A poisoned
// engine ignores further Run calls — its simulated state is a consistent
// drained snapshot of an incomplete run, useful for inspection only.
func (e *Engine) Err() error { return e.runErr }

// AttachSampler attaches (or, with nil, detaches) an epoch sampler,
// rebasing it on the current statistics so it measures only the region
// that follows. Attach after ResetMeasurement to sample the fixed-work
// region alone.
func (e *Engine) AttachSampler(s *obs.Sampler) {
	if s != nil {
		s.Rebase(*e.St)
	}
	e.Sampler = s
}

// Emit forwards one event to the attached tracer. It is the hook-point
// helper for the engine and the redundancy controller; with no tracer
// attached it costs a single branch.
func (e *Engine) Emit(kind obs.EventKind, cycle, addr, aux uint64) {
	if e.Tracer == nil {
		return
	}
	e.Tracer.Trace(obs.Event{Kind: kind, Cycle: cycle, Addr: addr, Aux: aux})
}

// DataWays returns the LLC ways available to application data.
func (e *Engine) DataWays() int { return e.dataWays }

// Bank returns the LLC bank that line address la maps to.
func (e *Engine) Bank(la uint64) *cache.Cache {
	return e.Banks[e.BankIndex(la)]
}

// BankIndex returns the index of the LLC bank that la maps to; the TVARAK
// controller co-located with that bank handles la's redundancy.
func (e *Engine) BankIndex(la uint64) int {
	var idx uint64
	if e.linePow2 {
		idx = la >> e.lineShift
	} else {
		idx = la / uint64(e.Cfg.LineSize)
	}
	if e.bankPow2 {
		return int(idx & e.bankMask)
	}
	return int(idx % e.nbanks)
}

// mem returns the device backing addr.
func (e *Engine) mem(addr uint64) *nvm.Memory {
	if e.Geo.IsNVM(addr) {
		return e.NVM
	}
	return e.DRAM
}

// ownerBit is the directory bit for core id.
func ownerBit(id int) uint64 { return 1 << uint(id) }

// ---------------------------------------------------------------------------
// Access path
// ---------------------------------------------------------------------------

// access ensures la is present in c's L1 with the required permission and
// returns the L1 line. It charges load latency fully; stores retire through
// the store buffer and charge only L1 latency (their fills still consume
// DIMM bandwidth and energy).
func (e *Engine) access(c *Core, la uint64, write bool) *cache.Line {
	c.maybeYield()
	lat := e.Cfg.L1.LatencyCyc
	l1 := c.l1.Lookup(la, 0, c.l1.Ways())
	switch {
	case l1 != nil && (!write || l1.State != cache.Shared):
		e.St.AddCache(stats.L1, true, e.Cfg.L1.HitEnergyPJ)
	case l1 != nil: // store to a Shared line: upgrade via the directory
		e.St.AddCache(stats.L1, true, e.Cfg.L1.HitEnergyPJ)
		lat += e.upgrade(c, la)
		if l2 := c.l2.Lookup(la, 0, c.l2.Ways()); l2 != nil {
			l2.State = cache.Exclusive
		}
		l1.State = cache.Exclusive
	default:
		e.St.AddCache(stats.L1, false, e.Cfg.L1.MissEnergyPJ)
		l1 = e.fillL1(c, la, write, &lat)
	}
	if write {
		l1.State = cache.Modified
	}
	c.l1.Touch(l1)
	if write {
		c.Clock += e.Cfg.L1.LatencyCyc
		e.St.StoreIssueCyc += e.Cfg.L1.LatencyCyc
		e.St.Stores++
	} else {
		c.Clock += lat
		e.St.LoadStallCyc += lat
		e.St.Loads++
	}
	return l1
}

// fillL1 brings la into c's L1 from L2 (filling L2 from the LLC if needed).
func (e *Engine) fillL1(c *Core, la uint64, write bool, lat *uint64) *cache.Line {
	*lat += e.Cfg.L2.LatencyCyc
	l2 := c.l2.Lookup(la, 0, c.l2.Ways())
	switch {
	case l2 != nil && (!write || l2.State != cache.Shared):
		e.St.AddCache(stats.L2, true, e.Cfg.L2.HitEnergyPJ)
	case l2 != nil:
		e.St.AddCache(stats.L2, true, e.Cfg.L2.HitEnergyPJ)
		*lat += e.upgrade(c, la)
		l2.State = cache.Exclusive
	default:
		e.St.AddCache(stats.L2, false, e.Cfg.L2.MissEnergyPJ)
		l2 = e.fillL2(c, la, write, lat)
	}
	c.l2.Touch(l2)
	v := c.l1.Victim(la, 0, c.l1.Ways())
	if v.State != cache.Invalid {
		e.evictL1(c, v)
	}
	c.l1.Install(v, la, l2.Data, l2.State)
	return v
}

// evictL1 drops an L1 line, merging dirty data into the (inclusive) L2 copy.
func (e *Engine) evictL1(c *Core, v *cache.Line) {
	if v.Dirty() {
		l2 := c.l2.Lookup(v.Addr, 0, c.l2.Ways())
		if l2 == nil {
			panic(fmt.Sprintf("sim: L1/L2 inclusion violated for %#x", v.Addr))
		}
		copy(l2.Data, v.Data)
		l2.State = cache.Modified
		e.St.AddCache(stats.L2, true, e.Cfg.L2.HitEnergyPJ)
	}
	c.l1.Invalidate(v)
}

// fillL2 brings la into c's L2 from the LLC (filling the LLC from memory if
// needed) and returns the L2 line with an appropriate MESI grant.
func (e *Engine) fillL2(c *Core, la uint64, write bool, lat *uint64) *cache.Line {
	*lat += e.Cfg.LLCBank.LatencyCyc
	b := e.Bank(la)
	ll := b.Lookup(la, 0, e.dataWays)
	if ll != nil {
		e.St.AddCache(stats.LLC, true, e.Cfg.LLCBank.HitEnergyPJ)
		*lat += e.resolveSharers(c, ll, write)
	} else {
		e.St.AddCache(stats.LLC, false, e.Cfg.LLCBank.MissEnergyPJ)
		ll = e.fillLLC(c, la, lat)
	}
	b.Touch(ll)
	grant := cache.Shared
	if write || ll.Owners&^ownerBit(c.ID) == 0 {
		grant = cache.Exclusive
	}
	ll.Owners |= ownerBit(c.ID)
	v := c.l2.Victim(la, 0, c.l2.Ways())
	if v.State != cache.Invalid {
		e.evictL2(c, v)
	}
	c.l2.Install(v, la, ll.Data, grant)
	return v
}

// resolveSharers handles an LLC hit on a line other cores hold: it pulls
// newer dirty data down into the LLC (stashing a diff if the LLC copy was
// clean), downgrades sharers on reads and invalidates them on writes.
// It returns the added coherence latency.
func (e *Engine) resolveSharers(c *Core, ll *cache.Line, write bool) uint64 {
	others := ll.Owners &^ ownerBit(c.ID)
	if others == 0 {
		return 0
	}
	// One snoop round resolves all sharers regardless of their count: the
	// directory broadcasts in parallel and the slowest response bounds the
	// added latency (see DESIGN.md). Energy and L2 accesses still accrue
	// per owner below.
	extra := e.Cfg.LLCBank.LatencyCyc
	for rem := others; rem != 0; { // visit owner cores in ascending ID order
		d := e.Cores[bits.TrailingZeros64(rem)]
		rem &^= ownerBit(d.ID)
		e.St.AddCache(stats.L2, true, e.Cfg.L2.HitEnergyPJ)
		newest := e.newestPrivate(d, ll.Addr)
		if newest != nil {
			e.mergeIntoLLC(c, ll, newest)
		}
		if write {
			e.invalidatePrivate(d, ll.Addr)
			ll.Owners &^= ownerBit(d.ID)
		} else {
			e.downgradePrivate(d, ll.Addr)
		}
	}
	return extra
}

// newestPrivate returns the newest dirty private copy of la held by core d,
// or nil if d's copies are clean.
func (e *Engine) newestPrivate(d *Core, la uint64) []byte {
	var newest []byte
	if l2 := d.l2.Lookup(la, 0, d.l2.Ways()); l2 != nil && l2.Dirty() {
		newest = l2.Data
		l2.State = cache.Shared
	}
	if l1 := d.l1.Lookup(la, 0, d.l1.Ways()); l1 != nil && l1.Dirty() {
		newest = l1.Data
		l1.State = cache.Shared
	}
	return newest
}

// mergeIntoLLC folds newer dirty bytes into the LLC line, invoking the
// dirty-install hook if the LLC copy was clean (so TVARAK can stash the
// old content as a diff).
func (e *Engine) mergeIntoLLC(c *Core, ll *cache.Line, newest []byte) {
	if ll.State != cache.Modified && e.Red != nil && e.Geo.IsNVM(ll.Addr) {
		e.Red.OnDirtyInstall(c.Clock, ll.Addr, ll.Data)
	}
	copy(ll.Data, newest)
	ll.State = cache.Modified
}

func (e *Engine) invalidatePrivate(d *Core, la uint64) {
	if l1 := d.l1.Lookup(la, 0, d.l1.Ways()); l1 != nil {
		d.l1.Invalidate(l1)
	}
	if l2 := d.l2.Lookup(la, 0, d.l2.Ways()); l2 != nil {
		d.l2.Invalidate(l2)
	}
	e.St.UpperInvalidations++
}

func (e *Engine) downgradePrivate(d *Core, la uint64) {
	if l1 := d.l1.Lookup(la, 0, d.l1.Ways()); l1 != nil {
		l1.State = cache.Shared
	}
	if l2 := d.l2.Lookup(la, 0, d.l2.Ways()); l2 != nil {
		l2.State = cache.Shared
	}
}

// upgrade acquires exclusive ownership of la for core c via the LLC
// directory, invalidating other sharers. Returns the added latency.
func (e *Engine) upgrade(c *Core, la uint64) uint64 {
	b := e.Bank(la)
	ll := b.Lookup(la, 0, e.dataWays)
	if ll == nil {
		panic(fmt.Sprintf("sim: LLC inclusion violated for %#x", la))
	}
	e.St.AddCache(stats.LLC, true, e.Cfg.LLCBank.HitEnergyPJ)
	for rem := ll.Owners &^ ownerBit(c.ID); rem != 0; {
		d := e.Cores[bits.TrailingZeros64(rem)]
		rem &^= ownerBit(d.ID)
		if newest := e.newestPrivate(d, la); newest != nil {
			e.mergeIntoLLC(c, ll, newest)
		}
		e.invalidatePrivate(d, la)
		ll.Owners &^= ownerBit(d.ID)
	}
	return e.Cfg.LLCBank.LatencyCyc
}

// fillLLC reads la from memory into the LLC data partition, running TVARAK
// verification on NVM fills, and returns the installed line.
func (e *Engine) fillLLC(c *Core, la uint64, lat *uint64) *cache.Line {
	issue := c.Clock + *lat
	buf := e.lineBuf
	complete, _ := e.mem(la).ReadLine(issue, la, nvm.Data, buf) // ECC errors are counted by the device
	*lat += complete - issue
	if e.Geo.IsNVM(la) {
		e.St.Fills++
		var extra uint64
		if e.Red != nil {
			extra = e.Red.OnFill(issue, complete, la, buf)
			e.St.VerifyExtraCyc += extra
			*lat += extra
		}
		e.Emit(obs.EvFill, complete+extra, la, extra)
	}
	b := e.Bank(la)
	v := b.Victim(la, 0, e.dataWays)
	if v.State != cache.Invalid {
		e.evictLLC(c.Clock, v)
	}
	b.Install(v, la, buf, cache.Shared) // Shared at LLC means clean w.r.t. memory
	return v
}

// evictL2 drops an L2 line: back-invalidates the L1 copy (merging dirty
// data), then merges dirty content into the inclusive LLC copy, firing the
// dirty-install hook on a clean→dirty transition.
func (e *Engine) evictL2(c *Core, v *cache.Line) {
	if l1 := c.l1.Lookup(v.Addr, 0, c.l1.Ways()); l1 != nil {
		if l1.Dirty() {
			copy(v.Data, l1.Data)
			v.State = cache.Modified
		}
		c.l1.Invalidate(l1)
		e.St.UpperInvalidations++
	}
	b := e.Bank(v.Addr)
	ll := b.Lookup(v.Addr, 0, e.dataWays)
	if ll == nil {
		panic(fmt.Sprintf("sim: L2/LLC inclusion violated for %#x", v.Addr))
	}
	if v.Dirty() {
		e.St.AddCache(stats.LLC, true, e.Cfg.LLCBank.HitEnergyPJ)
		e.mergeIntoLLC(c, ll, v.Data)
	}
	ll.Owners &^= ownerBit(c.ID)
	c.l2.Invalidate(v)
}

// evictLLC evicts an LLC line: back-invalidates every upper copy (merging
// the newest dirty data), then writes dirty content back to memory through
// the redundancy controller.
func (e *Engine) evictLLC(now uint64, v *cache.Line) {
	var oldClean []byte
	wasClean := v.State != cache.Modified
	for rem := v.Owners; rem != 0; {
		d := e.Cores[bits.TrailingZeros64(rem)]
		rem &^= ownerBit(d.ID)
		if newest := e.newestPrivate(d, v.Addr); newest != nil {
			if wasClean && oldClean == nil {
				// evictBuf is consumed before this function returns:
				// writebackLine hands it to OnWriteback synchronously.
				copy(e.evictBuf, v.Data)
				oldClean = e.evictBuf
			}
			copy(v.Data, newest)
			v.State = cache.Modified
		}
		e.invalidatePrivate(d, v.Addr)
		e.St.AddCache(stats.L2, true, e.Cfg.L2.HitEnergyPJ)
	}
	if e.Geo.IsNVM(v.Addr) {
		var dirty uint64
		if v.Dirty() {
			dirty = 1
		}
		e.Emit(obs.EvLLCEvict, now, v.Addr, dirty)
	}
	if v.Dirty() {
		e.writebackLine(now, v.Addr, oldClean, v.Data)
	}
	e.Bank(v.Addr).Invalidate(v)
}

// writebackLine writes one dirty data line to memory, updating redundancy
// first on NVM writebacks. oldClean, when non-nil, is the persisted content
// the line had before it went dirty (supplied only when no diff was ever
// stashed for it).
func (e *Engine) writebackLine(now uint64, addr uint64, oldClean, data []byte) {
	if e.Geo.IsNVM(addr) {
		e.St.Writebacks++
		e.Emit(obs.EvWriteback, now, addr, 0)
		if e.Red != nil {
			e.Red.OnWriteback(now, addr, oldClean, data)
		}
		e.NVM.WriteLine(now, addr, nvm.Data, data)
		return
	}
	e.DRAM.WriteLine(now, addr, nvm.Data, data)
}
