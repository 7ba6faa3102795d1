package experiments_test

import (
	"testing"

	"tvarak/internal/experiments"
	"tvarak/internal/param"
)

func TestRegistryCoversEveryFigure(t *testing.T) {
	want := []string{
		"fig8-redis", "fig8-kv", "fig8-nstore", "fig8-fio", "fig8-stream",
		"fig9", "fig10a", "fig10b", "sec4g", "sec4h-dimms", "sec4h-tech",
		"ext-vilamb", "ext-async", "ext-async-mini",
	}
	got := experiments.Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("experiment %d = %q, want %q", i, got[i].ID, id)
		}
		if got[i].Paper == "" || got[i].Run == nil {
			t.Errorf("experiment %q incomplete", id)
		}
	}
}

func TestLookup(t *testing.T) {
	e, err := experiments.Lookup("fig9")
	if err != nil || e.ID != "fig9" {
		t.Errorf("Lookup(fig9) = %v, %v", e.ID, err)
	}
	if _, err := experiments.Lookup("fig99"); err == nil {
		t.Error("Lookup of unknown id succeeded")
	}
}

func TestStreamExperimentSmoke(t *testing.T) {
	// Run the cheapest real experiment end to end at a tiny scale and
	// check table shape: 4 kernels x 4 designs = 16 rows, baselines at 0%.
	e, err := experiments.Lookup("fig8-stream")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(experiments.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Results) != 16 {
		t.Fatalf("fig8-stream rows = %d, want 16", len(tab.Results))
	}
	for _, r := range tab.Results {
		if r.Stats.Cycles == 0 {
			t.Errorf("%s/%s: zero runtime", r.Workload, r.Label())
		}
		if r.Design == param.Baseline && tab.Overhead(r) != 0 {
			t.Errorf("%s baseline overhead nonzero", r.Workload)
		}
		if r.Design != param.Baseline && tab.Overhead(r) <= 0 {
			t.Errorf("%s/%s: overhead %.3f not positive", r.Workload, r.Label(), tab.Overhead(r))
		}
	}
}

func TestSec4HTechSmoke(t *testing.T) {
	e, err := experiments.Lookup("sec4h-tech")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(experiments.Options{
		Scale:   0.05,
		Designs: []param.Design{param.Baseline, param.Tvarak},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Results) != 4 {
		t.Fatalf("rows = %d, want 4 (2 techs x 2 designs)", len(tab.Results))
	}
	// Battery-backed DRAM must be faster than Optane-like NVM for the
	// same design and workload.
	var optane, dram uint64
	for _, r := range tab.Results {
		if r.Design != param.Baseline {
			continue
		}
		if r.Variant == "optane-like" {
			optane = r.Stats.Cycles
		} else {
			dram = r.Stats.Cycles
		}
	}
	if dram == 0 || optane == 0 || dram >= optane {
		t.Errorf("battery-backed DRAM baseline (%d) not faster than Optane-like (%d)", dram, optane)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	// The determinism gate: the same experiment at -parallel 1 and
	// -parallel 8 must produce identical Result rows and byte-identical
	// rendered tables, regardless of completion order.
	e, err := experiments.Lookup("fig8-stream")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := e.Run(experiments.Options{Scale: 0.05, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.Run(experiments.Options{Scale: 0.05, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("row counts differ: %d sequential vs %d parallel", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		s, p := seq.Results[i], par.Results[i]
		if s.Workload != p.Workload || s.Design != p.Design || s.Variant != p.Variant || s.Stats != p.Stats {
			t.Errorf("row %d differs:\n  sequential %s/%s %+v\n  parallel   %s/%s %+v",
				i, s.Workload, s.Label(), s.Stats, p.Workload, p.Label(), p.Stats)
		}
	}
	if seq.String() != par.String() {
		t.Errorf("rendered tables differ:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}

func TestExtVilambDoesNotMutateDesignsSlice(t *testing.T) {
	// Regression: ext-vilamb used to append param.Vilamb directly onto
	// Options.Designs, scribbling over the caller's spare capacity.
	backing := []param.Design{param.Baseline, param.Tvarak, param.TxBPageCsums, param.TxBObjectCsums}
	padded := backing[:2:4] // spare capacity invites in-place append
	e, err := experiments.Lookup("ext-vilamb")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(experiments.Options{Scale: 0.02, Parallel: 4, Designs: padded})
	if err != nil {
		t.Fatal(err)
	}
	if want := []param.Design{param.Baseline, param.Tvarak, param.TxBPageCsums, param.TxBObjectCsums}; !slicesEqual(backing, want) {
		t.Errorf("caller's Designs backing array mutated: %v, want %v", backing, want)
	}
	// 2 workloads x (2 requested designs + Vilamb) = 6 rows.
	if len(tab.Results) != 6 {
		t.Errorf("rows = %d, want 6", len(tab.Results))
	}
	for i, r := range tab.Results {
		wantVilamb := i%3 == 2
		if (r.Design == param.Vilamb) != wantVilamb {
			t.Errorf("row %d design = %v (Vilamb must be appended last per workload)", i, r.Design)
		}
	}
}

func slicesEqual(a, b []param.Design) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCellsEnumeration(t *testing.T) {
	// Cells exposes the declarative cell list without running anything;
	// counts follow the paper's grids.
	want := map[string]int{
		"fig8-stream": 16, // 4 kernels x 4 designs
		"fig9":        25, // 5 workloads x (baseline + 4 ablation points)
		"fig10a":      30, // 5 workloads x (baseline + 5 way counts)
		"sec4g":       15, // 5 workloads x (baseline + 2 variants)
		"sec4h-dimms": 8,  // 2 DIMM counts x 4 designs
		"ext-vilamb":  10, // 2 workloads x (4 designs + Vilamb)
	}
	for id, n := range want {
		e, err := experiments.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(e.Cells(experiments.Options{})); got != n {
			t.Errorf("%s: %d cells, want %d", id, got, n)
		}
	}
}

func TestDesignsFilterRespected(t *testing.T) {
	e, _ := experiments.Lookup("fig8-stream")
	tab, err := e.Run(experiments.Options{
		Scale:   0.05,
		Designs: []param.Design{param.Baseline},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Results {
		if r.Design != param.Baseline {
			t.Errorf("filtered run produced design %v", r.Design)
		}
	}
}
