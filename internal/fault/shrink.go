package fault

import (
	"context"
	"sort"

	"tvarak/internal/param"
)

// shrinkUnit minimizes a failing unit's injection schedule by delta
// debugging over flat spec indices, re-running the unit per attempt.
// Rounds and their OpsSeeds are preserved, so the minimal schedule
// replays against the exact same workload segments (async units re-run
// under the identical async configuration). A cancelled ctx stops the
// search at the next re-run, keeping the smallest failing schedule found
// so far. Returns that spec list and how many unit re-runs actually ran
// (capped at budget).
func shrinkUnit(ctx context.Context, app appSpec, design param.Design, plan Plan, budget int, async param.AsyncConfig) ([]Spec, int) {
	keep, runs := ddmin(plan.Injections(), budget, func(k map[int]bool) (bool, bool) {
		if ctx != nil && ctx.Err() != nil {
			return false, false
		}
		u := runUnit(ctx, app, design, plan.withSpecs(k), async)
		if u == nil { // cancelled mid-run
			return false, false
		}
		return u.Failure != "", true
	})
	return flatSpecs(plan.withSpecs(keep)), runs
}

// ddmin is the search core: starting from all of [0, total), repeatedly
// try removing chunks of indices (halving the chunk size when a pass
// removes nothing) and keep any removal after which fails still holds.
// fails(all indices) is assumed true; the result is 1-minimal when the
// budget allows (removing any single kept index makes the failure
// vanish), otherwise the best reduction found within budget calls. A
// trial that reports ran=false (the re-run was cancelled) ends the search
// at once and is not counted.
func ddmin(total, budget int, fails func(keep map[int]bool) (failed, ran bool)) (map[int]bool, int) {
	keep := make(map[int]bool, total)
	for i := 0; i < total; i++ {
		keep[i] = true
	}
	runs := 0
	for chunk := (total + 1) / 2; chunk >= 1 && runs < budget; {
		removed := false
		idxs := sortedIdxs(keep)
		for lo := 0; lo < len(idxs) && runs < budget; lo += chunk {
			hi := min(lo+chunk, len(idxs))
			trial := make(map[int]bool, len(keep)-(hi-lo))
			for k := range keep {
				trial[k] = true
			}
			for _, k := range idxs[lo:hi] {
				delete(trial, k)
			}
			failed, ran := fails(trial)
			if !ran {
				return keep, runs
			}
			runs++
			if failed {
				keep = trial
				removed = true
				break // re-scan with the smaller kept set
			}
		}
		if !removed {
			if chunk == 1 {
				break
			}
			chunk = (chunk + 1) / 2
		}
	}
	return keep, runs
}

func sortedIdxs(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func flatSpecs(p Plan) []Spec {
	var out []Spec
	for _, r := range p.Rounds {
		out = append(out, r.Specs...)
	}
	return out
}
