package param

import "flag"

// AsyncFlags is the -epoch/-dirty-gran/-battery/-incremental option group
// that selects an async (Vilamb-family) configuration, as raw flag values.
type AsyncFlags struct {
	Epoch       uint64
	DirtyGran   string
	Battery     bool
	Incremental bool
}

// RegisterAsyncFlags registers the async option group on fs. The returned
// values are filled in when fs is parsed.
func RegisterAsyncFlags(fs *flag.FlagSet) *AsyncFlags {
	a := &AsyncFlags{}
	fs.Uint64Var(&a.Epoch, "epoch", 0, "async (vilamb-family) epoch interval in cycles (0 = the design default); ignored by non-vilamb designs")
	fs.StringVar(&a.DirtyGran, "dirty-gran", "", "async dirty-tracking granularity: page, line or range (default page)")
	fs.BoolVar(&a.Battery, "battery", false, "async battery-backed-DRAM preset: line-granular staged intent checksums, zero vulnerability window")
	fs.BoolVar(&a.Incremental, "incremental", false, "spread each async epoch's reconciliation across sub-slices instead of one batched pass")
	return a
}

// Config builds the AsyncConfig the values select, rejecting an unknown
// granularity name.
func (a AsyncFlags) Config() (AsyncConfig, error) {
	g, err := ParseDirtyGran(a.DirtyGran)
	if err != nil {
		return AsyncConfig{}, err
	}
	c := AsyncConfig{EpochCyc: a.Epoch, DirtyGran: g, Incremental: a.Incremental}
	if a.Battery {
		c = BatteryPreset(a.Epoch)
		c.Incremental = a.Incremental
	}
	return c, nil
}
