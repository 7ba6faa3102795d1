package harness_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/param"
	"tvarak/internal/sim"
)

// toyCells builds n independent cells over toyWorkload with distinct names
// and store counts, alternating designs so the pool sees heterogeneous work.
func toyCells(n int) []harness.Cell {
	designs := param.Designs()
	cells := make([]harness.Cell, n)
	for i := range cells {
		i := i
		d := designs[i%len(designs)]
		cells[i] = harness.Cell{
			Config: param.SmallTest(d),
			Make: func() harness.Workload {
				return &toyWorkload{name: fmt.Sprintf("toy%02d", i), stores: 50 + 25*i}
			},
		}
	}
	return cells
}

func TestRunnerPreservesCellOrder(t *testing.T) {
	cells := toyCells(8)
	cells[3].Variant = "v3"
	cells[5].Rename = func(w string) string { return w + "/renamed" }
	rs, err := harness.Runner{Workers: 4}.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(cells) {
		t.Fatalf("got %d results, want %d", len(rs), len(cells))
	}
	for i, r := range rs {
		want := fmt.Sprintf("toy%02d", i)
		if i == 5 {
			want += "/renamed"
		}
		if r.Workload != want {
			t.Errorf("result %d workload = %q, want %q", i, r.Workload, want)
		}
		if r.Design != cells[i].Config.Design {
			t.Errorf("result %d design = %v, want %v", i, r.Design, cells[i].Config.Design)
		}
		if (i == 3) != (r.Variant == "v3") {
			t.Errorf("result %d variant = %q", i, r.Variant)
		}
		if r.Stats.Cycles == 0 {
			t.Errorf("result %d has zero runtime", i)
		}
	}
}

func TestRunnerParallelMatchesSequential(t *testing.T) {
	seqTab, err := harness.Runner{Workers: 1}.RunTable("determinism", toyCells(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		parTab, err := harness.Runner{Workers: workers}.RunTable("determinism", toyCells(10))
		if err != nil {
			t.Fatal(err)
		}
		if seqTab.String() != parTab.String() {
			t.Errorf("Workers=%d table differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s",
				workers, seqTab, parTab)
		}
	}
}

// failingWorkload errors during Setup, exercising the runner's error path.
type failingWorkload struct{ name string }

func (w *failingWorkload) Name() string { return w.name }
func (w *failingWorkload) Setup(*harness.System) error {
	return fmt.Errorf("injected failure in %s", w.name)
}
func (w *failingWorkload) Workers(*harness.System) []func(*sim.Core) { return nil }

func TestRunnerReportsFirstErrorInCellOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cells := toyCells(8)
		for _, bad := range []int{2, 6} {
			bad := bad
			cells[bad].Make = func() harness.Workload {
				return &failingWorkload{name: fmt.Sprintf("bad%d", bad)}
			}
		}
		_, err := harness.Runner{Workers: workers}.Run(cells)
		if err == nil {
			t.Fatalf("Workers=%d: expected an error", workers)
		}
		if want := "bad2"; !strings.Contains(err.Error(), want) {
			t.Errorf("Workers=%d: error = %v, want the cell-order-first failure (%s)", workers, err, want)
		}
	}
}

// gatedFailingWorkload fails after a shared barrier releases, so a test can
// force several failures to be in flight simultaneously.
type gatedFailingWorkload struct {
	name string
	gate *sync.WaitGroup
}

func (w *gatedFailingWorkload) Name() string { return w.name }
func (w *gatedFailingWorkload) Setup(*harness.System) error {
	w.gate.Done()
	w.gate.Wait()
	return fmt.Errorf("injected failure in %s", w.name)
}
func (w *gatedFailingWorkload) Workers(*harness.System) []func(*sim.Core) { return nil }

func TestRunnerAggregatesAllFailuresEarliestFirst(t *testing.T) {
	// Both bad cells block at a barrier until the other has started, so
	// both failures are guaranteed to be in flight together — the runner
	// must report BOTH (errors.Join), with the earliest cell index first,
	// not just whichever happened to lose the race.
	var gate sync.WaitGroup
	gate.Add(2)
	cells := toyCells(8)
	for _, bad := range []int{2, 6} {
		bad := bad
		cells[bad].Make = func() harness.Workload {
			return &gatedFailingWorkload{name: fmt.Sprintf("bad%d", bad), gate: &gate}
		}
	}
	_, err := harness.Runner{Workers: 4}.Run(cells)
	if err == nil {
		t.Fatal("expected an error")
	}
	msg := err.Error()
	i2, i6 := strings.Index(msg, "bad2"), strings.Index(msg, "bad6")
	if i2 < 0 || i6 < 0 {
		t.Fatalf("error should aggregate both failures, got: %v", err)
	}
	if i2 > i6 {
		t.Errorf("earliest cell's failure should come first, got: %v", err)
	}
}

func TestRunManifestReportsNotAttemptedCells(t *testing.T) {
	cells := toyCells(8)
	cells[2].Make = func() harness.Workload { return &failingWorkload{name: "bad2"} }
	payloads, man, err := harness.Runner{Workers: 1}.RunPlan(harness.NewSweepPlan("", cells))
	if err == nil {
		t.Fatal("expected an error")
	}
	if man.Completed != 2 || len(man.Failures) != 1 || man.Failures[0].Index != 2 {
		t.Fatalf("manifest = %+v, want 2 completed and cell 2 failed", man)
	}
	// Sequential: after cell 2 fails, cells 3..7 are never attempted — and
	// every one of them must be accounted for, not silently dropped.
	want := []int{3, 4, 5, 6, 7}
	if len(man.NotAttempted) != len(want) {
		t.Fatalf("NotAttempted = %v, want %v", man.NotAttempted, want)
	}
	for i, idx := range want {
		if man.NotAttempted[i] != idx {
			t.Fatalf("NotAttempted = %v, want %v", man.NotAttempted, want)
		}
	}
	for i, data := range payloads {
		if (data != nil) != (i < 2) {
			t.Errorf("result %d presence = %v, want results only for cells 0-1", i, data != nil)
		}
	}
}

func TestRunnerProgressSerializedAndComplete(t *testing.T) {
	var (
		mu    sync.Mutex
		calls []int
		total = -1
	)
	// Interactive progress renders from the live board's Notify, which
	// the runner drives once per finished cell.
	lt := live.NewTelemetry()
	lt.Board.Notify = func(e live.CellEntry, done, n int) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, done)
		total = n
		if e.State != live.StateDone || e.Cycles == 0 || e.Label == "" {
			t.Errorf("progress called with an empty entry: %+v", e)
		}
	}
	rn := harness.Runner{Workers: 4, Live: lt}
	if _, err := rn.Run(toyCells(6)); err != nil {
		t.Fatal(err)
	}
	if total != 6 || len(calls) != 6 {
		t.Fatalf("progress calls = %d (total %d), want 6", len(calls), total)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Errorf("progress done sequence %v not monotonically counted", calls)
			break
		}
	}
}

func TestRunnerEmptyAndDefaults(t *testing.T) {
	rs, err := harness.Runner{}.Run(nil)
	if err != nil || rs != nil {
		t.Errorf("empty run = %v, %v", rs, err)
	}
	tab, err := harness.Runner{}.RunTable("t", nil)
	if err != nil || len(tab.Results) != 0 {
		t.Errorf("empty table = %v, %v", tab, err)
	}
}
