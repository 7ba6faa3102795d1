// Package cache implements the set-associative caches of the simulated
// hierarchy: per-core L1-D and L2, the shared inclusive banked LLC, and
// TVARAK's small on-controller redundancy cache.
//
// A cache here is purely mechanical: lookup, LRU victim selection within a
// way range (which is how LLC way-partitioning for redundancy information
// and data diffs is expressed), and line storage including real content
// bytes and coherence/directory state. All policy — fill/eviction paths,
// MESI transitions, inclusive back-invalidation, partition rules — lives in
// the simulation engine and the TVARAK controller, which manipulate caches
// through this API.
package cache

import (
	"fmt"
	"math/bits"
)

// State is the coherence state of a line. The hierarchy runs a MESI-style
// protocol: the LLC directory grants Exclusive on sole fills, upper caches
// upgrade E→M silently on stores, and S→M upgrades invalidate other
// sharers.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Line is one cache line: tag, content, coherence state and, in the LLC,
// the directory of upper-level owners.
type Line struct {
	Addr  uint64 // line-aligned physical address; valid when State != Invalid
	State State
	Data  []byte
	// Owners is the LLC directory: bit i is set if core i's private caches
	// hold the line. On LLC redundancy-partition lines, which no core
	// caches, the TVARAK controller keeps its sharer mask here instead:
	// bit i is set if bank i's on-controller cache holds the line.
	Owners uint64
	lru    uint64
}

// Dirty reports whether the line holds content newer than the level below.
func (l *Line) Dirty() bool { return l.State == Modified }

// Cache is one set-associative array.
type Cache struct {
	sets     [][]Line
	lineSize int
	stride   uint64 // line-address stride between consecutive sets (LLC bank interleave)
	tick     uint64 // LRU clock: each Touch stamps the line with the next value

	// Set indexing runs 1-3 times per simulated access, so the two-divide
	// index computation is folded into one divisor (floor(floor(a/l)/s) ==
	// floor(a/(l·s))) and a mask (sets is a power of two), with a pure
	// shift when the combined divisor is itself a power of two (every
	// private cache, and any LLC with a power-of-two bank count).
	setDiv   uint64 // lineSize*stride: address bytes per set increment
	setMask  uint64 // len(sets)-1
	setShift uint   // log2(setDiv), valid when divPow2
	divPow2  bool
}

// New builds a cache with the given geometry. stride expresses bank
// interleaving: an LLC bank in a 12-bank system indexes with stride 12
// because consecutive line addresses map to consecutive banks.
func New(sets, ways, lineSize int, stride uint64) *Cache {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: invalid geometry sets=%d ways=%d (sets must be a power of two)", sets, ways))
	}
	if lineSize <= 0 || stride == 0 {
		panic(fmt.Sprintf("cache: invalid geometry lineSize=%d stride=%d", lineSize, stride))
	}
	c := &Cache{lineSize: lineSize, stride: stride}
	c.setDiv = uint64(lineSize) * stride
	c.setMask = uint64(sets - 1)
	if c.setDiv&(c.setDiv-1) == 0 {
		c.divPow2 = true
		c.setShift = uint(bits.TrailingZeros64(c.setDiv))
	}
	c.sets = make([][]Line, sets)
	backing := make([]Line, sets*ways)
	for i := range c.sets {
		c.sets[i] = backing[i*ways : (i+1)*ways]
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.sets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return len(c.sets[0]) }

// SetIndex returns the set that addr maps to.
func (c *Cache) SetIndex(addr uint64) int {
	if c.divPow2 {
		return int(addr >> c.setShift & c.setMask)
	}
	return int(addr / c.setDiv & c.setMask)
}

// Lookup returns the line holding addr if present in ways [wayLo, wayHi),
// or nil. It does not update LRU state; callers that consume the access
// call Touch.
func (c *Cache) Lookup(addr uint64, wayLo, wayHi int) *Line {
	set := c.sets[c.SetIndex(addr)]
	for i := wayLo; i < wayHi; i++ {
		if set[i].State != Invalid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Touch marks the line most-recently-used.
func (c *Cache) Touch(l *Line) {
	c.tick++
	l.lru = c.tick
}

// Victim returns the line to evict to make room for addr within ways
// [wayLo, wayHi): an Invalid way if available, otherwise the LRU line.
func (c *Cache) Victim(addr uint64, wayLo, wayHi int) *Line {
	set := c.sets[c.SetIndex(addr)]
	var victim *Line
	for i := wayLo; i < wayHi; i++ {
		l := &set[i]
		if l.State == Invalid {
			return l
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	if victim == nil {
		panic("cache: empty way range")
	}
	return victim
}

// Install places addr with content data into the (previously chosen) victim
// line, which must already have been evicted by the caller. The line's
// content buffer is (re)allocated to the cache's line size.
func (c *Cache) Install(l *Line, addr uint64, data []byte, st State) {
	if len(data) != c.lineSize {
		panic(fmt.Sprintf("cache: install of %d bytes into %d-byte line", len(data), c.lineSize))
	}
	if l.Data == nil {
		l.Data = make([]byte, c.lineSize)
	}
	copy(l.Data, data)
	l.Addr = addr
	l.State = st
	l.Owners = 0
	c.Touch(l)
}

// Invalidate clears the line.
func (c *Cache) Invalidate(l *Line) {
	l.State = Invalid
	l.Owners = 0
}

// ForEach visits every valid line in ways [wayLo, wayHi) of every set.
// The engine uses it to drain dirty lines at end of run and the scrubber
// to enumerate cached redundancy.
func (c *Cache) ForEach(wayLo, wayHi int, fn func(*Line)) {
	for _, set := range c.sets {
		for i := wayLo; i < wayHi; i++ {
			if set[i].State != Invalid {
				fn(&set[i])
			}
		}
	}
}

// CountValid returns how many valid lines sit in ways [wayLo, wayHi).
func (c *Cache) CountValid(wayLo, wayHi int) int {
	n := 0
	c.ForEach(wayLo, wayHi, func(*Line) { n++ })
	return n
}
