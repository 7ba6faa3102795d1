package soak

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tvarak/internal/fault"
	"tvarak/internal/param"
)

// TestSamplerSeededReplay is the sampler's determinism contract: the unit
// stream is a pure function of (master seed, index), so the same seed
// yields an identical stream across runs, across enumeration orders, and
// across any -parallel setting (parallelism changes execution, never
// sampling).
func TestSamplerSeededReplay(t *testing.T) {
	const master, n = 20260808, 256

	stream := func() []Unit {
		out := make([]Unit, n)
		for i := range out {
			out[i] = UnitAt(master, i)
		}
		return out
	}
	first := stream()

	t.Run("same seed, same stream", func(t *testing.T) {
		if again := stream(); !reflect.DeepEqual(first, again) {
			t.Fatal("re-enumerating the same seed changed the stream")
		}
	})

	t.Run("enumeration order is irrelevant", func(t *testing.T) {
		perm := rand.New(rand.NewSource(1)).Perm(n)
		got := make([]Unit, n)
		for _, i := range perm {
			got[i] = UnitAt(master, i)
		}
		if !reflect.DeepEqual(first, got) {
			t.Fatal("out-of-order enumeration changed the stream")
		}
	})

	t.Run("concurrent enumeration is identical", func(t *testing.T) {
		for _, workers := range []int{2, 8} {
			got := make([]Unit, n)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < n; i += workers {
						got[i] = UnitAt(master, i)
					}
				}(w)
			}
			wg.Wait()
			if !reflect.DeepEqual(first, got) {
				t.Fatalf("stream differs when sampled by %d goroutines", workers)
			}
		}
	})

	t.Run("global rand state is not an input", func(t *testing.T) {
		rand.Int() // perturb the process-global source
		got := make([]Unit, n)
		for i := n - 1; i >= 0; i-- {
			rand.Int()
			got[i] = UnitAt(master, i)
		}
		if !reflect.DeepEqual(first, got) {
			t.Fatal("sampler reads process-global randomness")
		}
	})

	t.Run("different seeds diverge", func(t *testing.T) {
		same := 0
		for i := 0; i < n; i++ {
			if UnitAt(master+1, i).UnitParams == first[i].UnitParams {
				same++
			}
		}
		if same > n/10 {
			t.Fatalf("seeds %d and %d collide on %d/%d units", master, master+1, same, n)
		}
	})
}

// TestSamplerCoverage checks the stream actually exercises the space: all
// apps and all five designs appear, TVARAK is the most-sampled design (it
// carries the hard detect-and-recover obligations), and every derived
// parameter stays inside its valid range.
func TestSamplerCoverage(t *testing.T) {
	const master, n = 7, 512
	apps := map[string]int{}
	designs := map[param.Design]int{}
	for i := 0; i < n; i++ {
		u := UnitAt(master, i)
		apps[u.App]++
		designs[u.Design]++
		if u.Index != i {
			t.Fatalf("unit %d carries index %d", i, u.Index)
		}
		if u.N < 6 || u.N > 13 {
			t.Fatalf("unit %d: injection count %d outside [6,13]", i, u.N)
		}
		if u.Seed < 0 {
			t.Fatalf("unit %d: negative unit seed %d", i, u.Seed)
		}
	}
	for _, name := range fault.AppNames() {
		if apps[name] == 0 {
			t.Errorf("app %s never sampled in %d units", name, n)
		}
	}
	all := []param.Design{param.Baseline, param.Tvarak, param.TxBObjectCsums, param.TxBPageCsums, param.Vilamb}
	for _, d := range all {
		if designs[d] == 0 {
			t.Errorf("design %s never sampled in %d units", d, n)
		}
		if d != param.Tvarak && designs[d] >= designs[param.Tvarak] {
			t.Errorf("design %s sampled %d times, >= Tvarak's %d — Tvarak should dominate",
				d, designs[d], designs[param.Tvarak])
		}
	}
}

// TestSamplerFingerprintIdentity: fingerprints must be unique per (seed,
// index) — they key the soak journal, so a collision would resurrect the
// wrong unit's report on resume.
func TestSamplerFingerprintIdentity(t *testing.T) {
	seen := map[string]bool{}
	for _, master := range []int64{1, 2} {
		for i := 0; i < 64; i++ {
			fp := UnitAt(master, i).Fingerprint(master)
			if seen[fp] {
				t.Fatalf("duplicate fingerprint %q", fp)
			}
			seen[fp] = true
		}
	}
}

// pinnedUnit is one unit's identity as recorded in the pinned streams.
type pinnedUnit struct {
	app, design string
	n           int
	seed        int64
	async       string // AsyncConfig label; "" for a default (non-async) unit
}

// pinnedStreams are the first 32 units of master seeds 1 and 11, recorded
// when the sampler still drew a value in slot 2. Retiring that axis must
// leave every other draw, and so every unit, where it was.
var pinnedStreams = map[int64][]pinnedUnit{
	1: {
		{"stream", "TxB-Page-Csums", 10, 2423635116497955583, ""},
		{"nstore", "Vilamb", 13, 2432878851122035999, "ep1048576/line"},
		{"nstore", "Vilamb", 7, 2847744331731461699, "ep1048576/range+inc"},
		{"ctree", "TxB-Page-Csums", 6, 2597787489067902732, ""},
		{"redis", "TxB-Page-Csums", 12, 3744818161543735422, ""},
		{"ctree", "Tvarak", 10, 303379912930664021, ""},
		{"rbtree", "Baseline", 13, 7554851243436123521, ""},
		{"redis", "Tvarak", 12, 1398595563112645180, ""},
		{"stream", "TxB-Object-Csums", 9, 3215436103105095486, ""},
		{"fio", "Tvarak", 7, 4622625806794897891, ""},
		{"redis", "Baseline", 6, 4711712513814664006, ""},
		{"redis", "TxB-Page-Csums", 8, 5744913700563634073, ""},
		{"stream", "Baseline", 11, 5469988796922878078, ""},
		{"rbtree", "Baseline", 9, 5026165150387769782, ""},
		{"redis", "Tvarak", 10, 3687262629678139460, ""},
		{"btree", "Tvarak", 11, 4369324724518109885, ""},
		{"fio", "Tvarak", 12, 6659661943539776064, ""},
		{"rbtree", "Vilamb", 8, 492601259590600606, "ep1048576/line+bat"},
		{"fio", "Tvarak", 8, 599286283165833300, ""},
		{"stream", "Tvarak", 8, 8140768674232443057, ""},
		{"fio", "Vilamb", 12, 4863145710784816196, "ep227000/range"},
		{"redis", "Tvarak", 11, 2263269461294324442, ""},
		{"btree", "TxB-Page-Csums", 9, 1197988407314515402, ""},
		{"redis", "Tvarak", 7, 3551233972117733757, ""},
		{"nstore", "Baseline", 6, 45348211858735719, ""},
		{"stream", "Vilamb", 12, 1572772949438432510, "ep227000/page"},
		{"nstore", "TxB-Page-Csums", 11, 1342363956896202154, ""},
		{"fio", "Tvarak", 11, 8998552978192726984, ""},
		{"redis", "Tvarak", 8, 2972683729295460332, ""},
		{"btree", "Tvarak", 8, 3357258175826061381, ""},
		{"rbtree", "Baseline", 7, 7929934331311890752, ""},
		{"nstore", "Tvarak", 11, 9157881578455276350, ""},
	},
	11: {
		{"fio", "Tvarak", 8, 5919704107755587238, ""},
		{"rbtree", "Tvarak", 7, 6891254632673151733, ""},
		{"btree", "Vilamb", 9, 8646270181839437298, "ep2270/page+inc"},
		{"nstore", "Tvarak", 7, 4708185744744231270, ""},
		{"ctree", "Tvarak", 6, 2351358309084817618, ""},
		{"btree", "TxB-Object-Csums", 6, 981473350120831020, ""},
		{"ctree", "Tvarak", 7, 7091415685382471766, ""},
		{"stream", "TxB-Object-Csums", 10, 7310946843929571577, ""},
		{"nstore", "Vilamb", 6, 1260806989515821510, "ep1048576/line"},
		{"btree", "Vilamb", 6, 4097903513095851111, "ep2270/range"},
		{"btree", "Baseline", 12, 3310007281963659919, ""},
		{"btree", "TxB-Object-Csums", 12, 2960806038795810399, ""},
		{"rbtree", "Vilamb", 13, 823880030481948767, "ep227000/range"},
		{"redis", "TxB-Page-Csums", 10, 3147765265389786737, ""},
		{"nstore", "TxB-Object-Csums", 11, 5107283602615850765, ""},
		{"nstore", "Vilamb", 6, 2407505999943896255, "ep2270/range"},
		{"stream", "Vilamb", 9, 5230002344620900466, "ep2270/page"},
		{"nstore", "TxB-Object-Csums", 10, 1871097676765480690, ""},
		{"btree", "Vilamb", 10, 2282235603672324035, "ep1048576/line"},
		{"stream", "TxB-Page-Csums", 8, 3242848384156450952, ""},
		{"stream", "Tvarak", 13, 997053391699988664, ""},
		{"rbtree", "Vilamb", 10, 8726242188365324825, "ep22700/page+inc"},
		{"redis", "TxB-Page-Csums", 7, 8378960472628866711, ""},
		{"btree", "Baseline", 13, 3078990393412141105, ""},
		{"redis", "Tvarak", 6, 856005997082618451, ""},
		{"nstore", "TxB-Object-Csums", 8, 2674436879754419940, ""},
		{"fio", "Baseline", 6, 1863129641510180089, ""},
		{"btree", "Tvarak", 9, 1655996487198999676, ""},
		{"stream", "Baseline", 10, 1993437010061948327, ""},
		{"nstore", "Baseline", 8, 9021593272911052518, ""},
		{"btree", "Tvarak", 13, 2752357954605173235, ""},
		{"stream", "Baseline", 7, 1386326980646158203, ""},
	},
}

// TestSamplerStreamPinned is the stream's compatibility contract: the
// default stream's units never move, so soak ledgers and canons stay
// comparable across sampler changes.
func TestSamplerStreamPinned(t *testing.T) {
	for master, want := range pinnedStreams {
		for i, w := range want {
			u := UnitAt(master, i)
			var label string
			if a := u.AsyncCfg(); !a.IsZero() {
				label = a.Label()
			}
			got := pinnedUnit{u.App, u.Design.String(), u.N, u.Seed, label}
			if got != w {
				t.Errorf("seed %d unit %d = %+v, want %+v", master, i, got, w)
			}
		}
	}
}

// TestSamplerArgsRoundTrip pins the chaos worker's argv protocol: options
// encoded by the supervisor parse back to the same options in the child.
func TestSamplerArgsRoundTrip(t *testing.T) {
	async := param.AsyncConfig{EpochCyc: 4096, DirtyGran: param.GranRange, Incremental: true}
	for _, opts := range []SamplerOptions{
		{},
		{Designs: param.AllDesigns()},
		{Designs: []param.Design{param.Vilamb}, Async: &async},
	} {
		d, a := EncodeSamplerArgs(opts)
		got, err := ParseSamplerArgs(d, a)
		if err != nil {
			t.Fatalf("ParseSamplerArgs(%q, %q): %v", d, a, err)
		}
		if !reflect.DeepEqual(got, opts) {
			t.Errorf("round trip of %+v gave %+v", opts, got)
		}
	}
}
