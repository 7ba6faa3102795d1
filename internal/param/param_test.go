package param

import "testing"

func TestDefaultMatchesTableIII(t *testing.T) {
	c := Default(Tvarak)
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"cores", c.Cores, 12},
		{"clock GHz", c.ClockGHz, 2.27},
		{"L1 size", c.L1.SizeBytes, 32 << 10},
		{"L1 ways", c.L1.Ways, 8},
		{"L1 latency", c.L1.LatencyCyc, uint64(4)},
		{"L2 size", c.L2.SizeBytes, 256 << 10},
		{"L2 latency", c.L2.LatencyCyc, uint64(7)},
		{"LLC bank size", c.LLCBank.SizeBytes, 2 << 20},
		{"LLC banks", c.LLCBanks, 12},
		{"LLC ways", c.LLCBank.Ways, 16},
		{"LLC latency", c.LLCBank.LatencyCyc, uint64(27)},
		{"LLC hit pJ", c.LLCBank.HitEnergyPJ, 240.0},
		{"LLC miss pJ", c.LLCBank.MissEnergyPJ, 500.0},
		{"DRAM DIMMs", c.DRAM.DIMMs, 6},
		{"NVM DIMMs", c.NVM.DIMMs, 4},
		{"NVM read pJ", c.NVM.ReadEnergyPJ, 1600.0},
		{"NVM write pJ", c.NVM.WriteEnergyPJ, 9000.0},
		{"on-ctrl cache", c.Tvarak.OnCtrlCacheBytes, 4 << 10},
		{"on-ctrl latency", c.Tvarak.OnCtrlLatencyCyc, uint64(1)},
		{"match latency", c.Tvarak.MatchLatencyCyc, uint64(2)},
		{"compute latency", c.Tvarak.ComputeLatencyCyc, uint64(1)},
		{"redundancy ways", c.Tvarak.RedundancyWays, 2},
		{"diff ways", c.Tvarak.DiffWays, 1},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %v, want %v", ch.name, ch.got, ch.want)
		}
	}
	// 60 ns and 150 ns at 2.27 GHz.
	if c.NVM.ReadCyc != 136 || c.NVM.WriteCyc != 341 {
		t.Errorf("NVM latency = %d/%d cycles, want 136/341", c.NVM.ReadCyc, c.NVM.WriteCyc)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestLLCTotals24MB(t *testing.T) {
	c := Default(Baseline)
	if got := c.LLCBank.SizeBytes * c.LLCBanks; got != 24<<20 {
		t.Errorf("LLC total = %d, want 24 MiB", got)
	}
	// On-controller cache is ~0.2% of a bank.
	ratio := float64(c.Tvarak.OnCtrlCacheBytes) / float64(c.LLCBank.SizeBytes)
	if ratio < 0.0015 || ratio > 0.0025 {
		t.Errorf("on-controller cache ratio = %v, want ~0.002", ratio)
	}
}

func TestDesignStrings(t *testing.T) {
	want := map[Design]string{
		Baseline:       "Baseline",
		Tvarak:         "Tvarak",
		TxBObjectCsums: "TxB-Object-Csums",
		TxBPageCsums:   "TxB-Page-Csums",
	}
	if len(Designs()) != 4 {
		t.Fatalf("Designs() has %d entries", len(Designs()))
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), s)
		}
	}
}

func TestParseDesigns(t *testing.T) {
	cases := []struct {
		in   string
		want []Design
		bad  bool
	}{
		{in: "", want: nil},
		{in: "baseline,tvarak", want: []Design{Baseline, Tvarak}},
		{in: "baseline, tvarak", want: []Design{Baseline, Tvarak}},
		{in: " Vilamb ", want: []Design{Vilamb}},
		{in: "txb-object,txb-page", want: []Design{TxBObjectCsums, TxBPageCsums}},
		{in: "TxB-Object-Csums,txb-page-csums", want: []Design{TxBObjectCsums, TxBPageCsums}},
		{in: "TVARAK", want: []Design{Tvarak}},
		{in: "nova", bad: true},
		{in: "baseline,,tvarak", bad: true},
	}
	for _, tc := range cases {
		got, err := ParseDesigns(tc.in)
		if tc.bad != (err != nil) {
			t.Errorf("ParseDesigns(%q) err = %v, want error: %v", tc.in, err, tc.bad)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseDesigns(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseDesigns(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
	// Every design's own name parses back to it.
	for _, d := range AllDesigns() {
		if got, err := ParseDesigns(d.String()); err != nil || len(got) != 1 || got[0] != d {
			t.Errorf("ParseDesigns(%q) = %v, %v", d.String(), got, err)
		}
	}
}

func TestAsyncFlagsConfig(t *testing.T) {
	cases := []struct {
		in   AsyncFlags
		want AsyncConfig
		bad  bool
	}{
		{in: AsyncFlags{}, want: AsyncConfig{}},
		{in: AsyncFlags{Epoch: 4096, DirtyGran: "range", Incremental: true},
			want: AsyncConfig{EpochCyc: 4096, DirtyGran: GranRange, Incremental: true}},
		{in: AsyncFlags{Epoch: 4096, DirtyGran: "page", Battery: true, Incremental: true},
			want: AsyncConfig{EpochCyc: 4096, DirtyGran: GranLine, Battery: true, Incremental: true}},
		{in: AsyncFlags{DirtyGran: "word"}, bad: true},
	}
	for _, tc := range cases {
		got, err := tc.in.Config()
		if tc.bad != (err != nil) || got != tc.want {
			t.Errorf("%+v.Config() = %+v, %v; want %+v (error: %v)", tc.in, got, err, tc.want, tc.bad)
		}
	}
}

func TestDataWays(t *testing.T) {
	c := Default(Tvarak)
	if got := c.DataWays(); got != 13 {
		t.Errorf("Tvarak data ways = %d, want 13 (16 - 2 redundancy - 1 diff)", got)
	}
	c.Tvarak.Features.DataDiffs = false
	if got := c.DataWays(); got != 14 {
		t.Errorf("no-diff data ways = %d, want 14", got)
	}
	c.Tvarak.Features.RedundancyCaching = false
	if got := c.DataWays(); got != 16 {
		t.Errorf("naive data ways = %d, want 16", got)
	}
	b := Default(Baseline)
	if got := b.DataWays(); got != 16 {
		t.Errorf("baseline data ways = %d, want 16", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mk := func(mut func(*Config)) *Config {
		c := Default(Tvarak)
		mut(c)
		return c
	}
	cases := []struct {
		name string
		cfg  *Config
	}{
		{"zero cores", mk(func(c *Config) { c.Cores = 0 })},
		{"too many cores", mk(func(c *Config) { c.Cores = 65 })},
		{"non-pow2 line", mk(func(c *Config) { c.LineSize = 48 })},
		{"page not multiple of line", mk(func(c *Config) { c.PageSize = 4000 })},
		{"one NVM DIMM", mk(func(c *Config) { c.NVM.DIMMs = 1 })},
		{"unaligned NVM", mk(func(c *Config) { c.NVMBytes += 4096 })},
		{"unaligned DRAM", mk(func(c *Config) { c.DRAMBytes++ })},
		{"no banks", mk(func(c *Config) { c.LLCBanks = 0 })},
		{"bad L1 geometry", mk(func(c *Config) { c.L1.SizeBytes = 1000 })},
		{"all ways reserved", mk(func(c *Config) { c.Tvarak.RedundancyWays = 15 })},
		{"unaligned on-ctrl", mk(func(c *Config) { c.Tvarak.OnCtrlCacheBytes = 100 })},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
		}
	}
}

func TestReproScaleValid(t *testing.T) {
	for _, d := range Designs() {
		if err := ReproScale(d).Validate(); err != nil {
			t.Errorf("ReproScale(%v) invalid: %v", d, err)
		}
		if err := SmallTest(d).Validate(); err != nil {
			t.Errorf("SmallTest(%v) invalid: %v", d, err)
		}
	}
	// The scaled machine keeps a sane hierarchy: sum of private L2s fits
	// under the shared LLC.
	c := ReproScale(Baseline)
	if c.L2.SizeBytes*c.Cores >= c.LLCBank.SizeBytes*c.LLCBanks {
		t.Error("ReproScale: private L2 capacity exceeds inclusive LLC")
	}
}

func TestNVMTechPresets(t *testing.T) {
	opt := OptaneLike(8)
	if opt.Mem.DIMMs != 8 || opt.Name != "optane-like" {
		t.Error("OptaneLike preset wrong")
	}
	bb := BatteryBackedDRAM(4)
	if bb.Mem.ReadCyc != bb.Mem.WriteCyc {
		t.Error("battery-backed DRAM should have symmetric latency")
	}
	if bb.Mem.ReadCyc >= opt.Mem.ReadCyc {
		t.Error("battery-backed DRAM should be faster than Optane-like NVM")
	}
}
