package fleet

import (
	"fmt"
	"strings"

	"tvarak/internal/experiments"
	"tvarak/internal/fault"
	"tvarak/internal/harness"
	"tvarak/internal/param"
)

// BuildPlan derives the harness.Plan a JobSpec declares: a
// harness.SweepPlan or a fault.CampaignPlan. The serving CLI (tvarak-sim
// -fleet, tvarak-fault -campaign -fleet) and every worker call it, each on
// their own binary — any skew in the experiments registry, option
// handling, or unit enumeration between the two builds
// surfaces as a scope or fingerprint mismatch, never as a silently-wrong
// merged table.
func BuildPlan(spec JobSpec) (harness.Plan, error) {
	async, err := param.AsyncFlags{Epoch: spec.EpochCyc, DirtyGran: spec.DirtyGran,
		Battery: spec.Battery, Incremental: spec.Incremental}.Config()
	if err != nil {
		return nil, fmt.Errorf("fleet: job spec: %w", err)
	}
	designs, err := param.ParseDesigns(strings.Join(spec.Designs, ","))
	if err != nil {
		return nil, fmt.Errorf("fleet: job spec: %w", err)
	}
	switch spec.Kind {
	case "sweep":
		exp, err := experiments.Lookup(spec.Experiment)
		if err != nil {
			return nil, err
		}
		p := exp.Plan(experiments.Options{
			Scale:       spec.Scale,
			FullScale:   spec.FullScale,
			Designs:     designs,
			SampleEvery: spec.SampleEvery,
			Async:       async,
		})
		if p.Units() == 0 {
			return nil, fmt.Errorf("fleet: experiment %q enumerates no cells", spec.Experiment)
		}
		return p, nil
	case "campaign":
		opt := fault.Options{Seed: spec.Seed, N: spec.N, Apps: spec.Apps,
			Designs: designs, Async: async}
		return fault.NewCampaignPlan(opt)
	default:
		return nil, fmt.Errorf("fleet: unknown job kind %q (want sweep or campaign)", spec.Kind)
	}
}
