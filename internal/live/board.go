package live

import (
	"sync"
	"sync/atomic"
	"time"
)

// CellState is a cell's lifecycle state as shown on /runs.
type CellState string

const (
	StateQueued  CellState = "queued"
	StateRunning CellState = "running"
	StateFailed  CellState = "failed"
	StateDone    CellState = "done"
)

// boardSlot is one cell's live state. Progress (cycles/accesses) is updated
// lock-free from the engine probe at phase boundaries; everything else
// changes only on lifecycle transitions under the board mutex. A hung
// cell's abandoned goroutine may keep probing its slot after the watchdog
// fires — the atomics make that harmless.
type boardSlot struct {
	cycles   atomic.Uint64
	accesses atomic.Uint64

	mu       sync.Mutex
	label    string
	state    CellState
	attempts int
	err      string
	hung     bool
	restored bool
	start    time.Time
	end      time.Time
}

// CellEntry is one cell's row in a board snapshot (the /runs JSON schema).
type CellEntry struct {
	Index          int       `json:"index"`
	Label          string    `json:"label,omitempty"`
	State          CellState `json:"state"`
	Attempts       int       `json:"attempts,omitempty"`
	ElapsedMS      int64     `json:"elapsedMS,omitempty"`
	Cycles         uint64    `json:"cycles,omitempty"`
	Accesses       uint64    `json:"accesses,omitempty"`
	AccessesPerSec float64   `json:"accessesPerSec,omitempty"`
	FromJournal    bool      `json:"fromJournal,omitempty"`
	Hung           bool      `json:"hung,omitempty"`
	Err            string    `json:"err,omitempty"`
}

// BoardSnapshot is the /runs JSON document.
type BoardSnapshot struct {
	Experiment string      `json:"experiment"`
	Total      int         `json:"total"`
	Done       int         `json:"done"`
	Failed     int         `json:"failed"`
	Cells      []CellEntry `json:"cells"`
}

// Board tracks per-cell run state for /runs and the interactive progress
// renderer. Begin resets it for each experiment; the harness drives the
// lifecycle transitions and the engine probe streams progress into the
// slots.
type Board struct {
	mu         sync.Mutex
	experiment string
	total      int
	done       int
	failed     int
	slots      atomic.Pointer[[]*boardSlot]

	// Notify, when set, is invoked under the board lock on every terminal
	// cell transition (done, restored, failed) with the cell's entry and
	// the updated done/total counts — the single source of truth for
	// interactive progress output, so stderr and /runs can never disagree.
	Notify func(e CellEntry, done, total int)
}

// NewBoard builds an empty board.
func NewBoard() *Board { return &Board{} }

// Begin resets the board for a new experiment of n cells.
func (b *Board) Begin(experiment string, n int) {
	b.mu.Lock()
	b.reset(experiment, n)
	b.mu.Unlock()
}

// Join begins the board for experiment unless it already tracks it with n
// cells: the lease loops of one fleet worker process share a board, and
// whichever reaches a job first begins it for all of them.
func (b *Board) Join(experiment string, n int) {
	b.mu.Lock()
	if b.experiment != experiment || b.total != n || b.slots.Load() == nil {
		b.reset(experiment, n)
	}
	b.mu.Unlock()
}

// reset installs fresh slots. Caller holds b.mu.
func (b *Board) reset(experiment string, n int) {
	slots := make([]*boardSlot, n)
	for i := range slots {
		slots[i] = &boardSlot{state: StateQueued}
	}
	b.experiment = experiment
	b.total = n
	b.done = 0
	b.failed = 0
	b.slots.Store(&slots)
}

func (b *Board) slot(i int) *boardSlot {
	p := b.slots.Load()
	if p == nil || i < 0 || i >= len(*p) {
		return nil
	}
	return (*p)[i]
}

// CellRunning marks cell i as executing under the given label.
func (b *Board) CellRunning(i int, label string) {
	s := b.slot(i)
	if s == nil {
		return
	}
	s.mu.Lock()
	s.label = label
	s.state = StateRunning
	s.attempts++
	if s.start.IsZero() {
		s.start = time.Now()
	}
	s.mu.Unlock()
}

// CellProgress streams cumulative engine progress into cell i's slot.
// Lock-free: called from the engine thread at phase boundaries.
func (b *Board) CellProgress(i int, cycles, accesses uint64) {
	s := b.slot(i)
	if s == nil {
		return
	}
	s.cycles.Store(cycles)
	s.accesses.Store(accesses)
}

// CellDone marks cell i successfully completed with its final totals.
func (b *Board) CellDone(i int, cycles, accesses uint64) {
	b.finish(i, StateDone, "", false, false, cycles, accesses)
}

// CellRestored marks cell i as restored from the journal (it never ran in
// this process, so its totals come from the recorded result and its
// elapsed time is ~0).
func (b *Board) CellRestored(i int, label string, cycles, accesses uint64) {
	s := b.slot(i)
	if s == nil {
		return
	}
	s.mu.Lock()
	s.label = label
	s.restored = true
	if s.start.IsZero() {
		s.start = time.Now()
	}
	s.mu.Unlock()
	b.finish(i, StateDone, "", false, true, cycles, accesses)
}

// CellFailed marks cell i terminally failed.
func (b *Board) CellFailed(i int, label, errMsg string, hung bool) {
	s := b.slot(i)
	if s == nil {
		return
	}
	s.mu.Lock()
	if label != "" {
		s.label = label
	}
	s.mu.Unlock()
	b.finish(i, StateFailed, errMsg, hung, false, s.cycles.Load(), s.accesses.Load())
}

func (b *Board) finish(i int, st CellState, errMsg string, hung, restored bool, cycles, accesses uint64) {
	s := b.slot(i)
	if s == nil {
		return
	}
	b.mu.Lock()
	s.mu.Lock()
	// A slot can reach finish at most once per Begin: the harness calls
	// exactly one terminal transition per cell. Guard anyway so a stray
	// late call can't skew the counts.
	if s.state == StateDone || s.state == StateFailed {
		s.mu.Unlock()
		b.mu.Unlock()
		return
	}
	s.state = st
	s.err = errMsg
	s.hung = hung
	s.restored = s.restored || restored
	if s.start.IsZero() {
		s.start = time.Now()
	}
	s.end = time.Now()
	s.cycles.Store(cycles)
	s.accesses.Store(accesses)
	b.done++
	if st == StateFailed {
		b.failed++
	}
	e := entryOf(i, s, s.end)
	done, total := b.done, b.total
	notify := b.Notify
	s.mu.Unlock()
	if notify != nil {
		notify(e, done, total)
	}
	b.mu.Unlock()
}

// entryOf renders a slot as a CellEntry. Caller holds s.mu.
func entryOf(i int, s *boardSlot, now time.Time) CellEntry {
	e := CellEntry{
		Index:       i,
		Label:       s.label,
		State:       s.state,
		Attempts:    s.attempts,
		Cycles:      s.cycles.Load(),
		Accesses:    s.accesses.Load(),
		FromJournal: s.restored,
		Hung:        s.hung,
		Err:         s.err,
	}
	if !s.start.IsZero() {
		end := now
		if !s.end.IsZero() {
			end = s.end
		}
		el := end.Sub(s.start)
		e.ElapsedMS = el.Milliseconds()
		if sec := el.Seconds(); sec > 0 && !s.restored {
			e.AccessesPerSec = float64(e.Accesses) / sec
		}
	}
	return e
}

// Snapshot renders the whole board as the /runs JSON document.
func (b *Board) Snapshot() BoardSnapshot {
	b.mu.Lock()
	snap := BoardSnapshot{
		Experiment: b.experiment,
		Total:      b.total,
		Done:       b.done,
		Failed:     b.failed,
	}
	p := b.slots.Load()
	b.mu.Unlock()
	if p == nil {
		snap.Cells = []CellEntry{}
		return snap
	}
	now := time.Now()
	snap.Cells = make([]CellEntry, 0, len(*p))
	for i, s := range *p {
		s.mu.Lock()
		snap.Cells = append(snap.Cells, entryOf(i, s, now))
		s.mu.Unlock()
	}
	return snap
}
