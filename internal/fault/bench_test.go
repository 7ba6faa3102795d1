package fault

import (
	"context"
	"slices"
	"testing"

	"tvarak/internal/param"
)

// BenchmarkCampaignUnit runs one fixed oracle-judged unit end to end: the
// nstore/TVARAK unit of campaign seed 1 at N=112 (16 injections). Each
// iteration builds the machine, sets up the workload, attaches the oracle,
// injects, sweeps and runs the end-of-unit verification, so B/op carries
// what the oracle shadow and the media allocate per unit.
func BenchmarkCampaignUnit(b *testing.B) {
	ai := int64(slices.Index(AppNames(), "nstore"))
	p := UnitParams{App: "nstore", Design: param.Tvarak, Seed: 1 + ai*0x4f1bbcdcbfa53e0b, N: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunSingleUnit(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failure != "" || rep.Fired == 0 {
			b.Fatalf("unit %s: fired %d, failure %q", p.Key(), rep.Fired, rep.Failure)
		}
	}
}
