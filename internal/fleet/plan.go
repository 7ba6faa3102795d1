package fleet

import (
	"encoding/json"
	"fmt"
	"strings"

	"tvarak/internal/experiments"
	"tvarak/internal/fault"
	"tvarak/internal/harness"
	"tvarak/internal/param"
)

// BuildPlan derives the harness.Plan a JobSpec declares: a
// harness.SweepPlan or a fault.CampaignPlan. Both the gateway CLI and the
// worker call it, each on their own binary — any skew in the experiments
// registry, option handling, or unit enumeration between the two builds
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
		o := experiments.Options{
			Scale:       spec.Scale,
			FullScale:   spec.FullScale,
			Designs:     designs,
			SampleEvery: spec.SampleEvery,
			Async:       async,
		}
		cells := exp.Cells(o)
		if len(cells) == 0 {
			return nil, fmt.Errorf("fleet: experiment %q enumerates no cells", spec.Experiment)
		}
		for i := range cells {
			cells[i].SampleEvery = spec.SampleEvery
		}
		p := harness.NewSweepPlan(o.Scope(spec.Experiment), cells)
		p.Title = exp.Title
		return p, nil
	case "campaign":
		opt := fault.Options{Seed: spec.Seed, N: spec.N, Apps: spec.Apps,
			Designs: designs, Async: async}
		return fault.NewCampaignPlan(opt)
	default:
		return nil, fmt.Errorf("fleet: unknown job kind %q (want sweep or campaign)", spec.Kind)
	}
}

// FailureManifest is the manifest of a drained job: payloads are the
// completed units, failures the units whose redelivery was exhausted.
// Without keepGoing any failure is an error; so is a unit with neither,
// which a drained gateway never produces.
func FailureManifest(p harness.Plan, payloads []json.RawMessage, failures map[int]string, keepGoing bool) (*harness.Manifest, error) {
	man := &harness.Manifest{Total: p.Units()}
	for i, data := range payloads {
		if data != nil {
			man.Completed++
			continue
		}
		msg, failed := failures[i]
		if !failed {
			return nil, fmt.Errorf("fleet: unit %d (%s) has neither result nor failure", i, p.Label(i))
		}
		if !keepGoing {
			return nil, fmt.Errorf("fleet: unit %d (%s) failed: %s", i, p.Label(i), msg)
		}
		man.Failures = append(man.Failures, harness.CellFailure{Index: i, Label: p.Label(i), Err: msg})
	}
	return man, nil
}
