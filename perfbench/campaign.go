package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"tvarak/internal/fault"
	"tvarak/internal/harness"
	"tvarak/internal/param"
)

// campaignN is the campaign's default size: injections per design, split
// across the seven apps.
const campaignN = 112

// unitDeadline bounds one campaign unit's wall time; a unit takes well
// under a second, so a unit past this is hung (some corrupted redis
// chains are chased forever) and counts as failed.
const unitDeadline = 10 * time.Second

var campaignDesigns = []param.Design{param.Baseline, param.Tvarak, param.Vilamb}

// campaignTotals is the fold of one campaign's unit reports.
type campaignTotals struct {
	fired, silent, undetected, unrecovered, crashPoints int
	detected, recovered, windowCyc, windowLines         uint64
}

func (a *campaignTotals) add(b *campaignTotals) {
	a.fired += b.fired
	a.silent += b.silent
	a.undetected += b.undetected
	a.unrecovered += b.unrecovered
	a.crashPoints += b.crashPoints
	a.detected += b.detected
	a.recovered += b.recovered
	a.windowCyc += b.windowCyc
	a.windowLines += b.windowLines
}

// campaign runs one oracle-judged fault campaign at seed, two units at a
// time, each unit under its own deadline. Shrinking stays off: its re-runs
// take no context, so a deadline could not stop them. A unit fails when
// the oracle's verdict fails, when it errs, or when it overruns deadline.
// apps restricts the campaign (nil: all seven).
func campaign(seed int64, deadline time.Duration, apps []string, tr *tracer, passID int) (*pass, error) {
	opt := fault.Options{Seed: seed, N: campaignN, Designs: campaignDesigns, Apps: apps}
	units, err := fault.CampaignUnits(opt)
	if err != nil {
		return nil, err
	}
	reports := make([]*fault.UnitReport, len(units))
	p := &pass{workers: 2, cells: make([]cellRec, len(units)), campaign: &campaignTotals{}}
	p.timed(func() {
		_ = harness.Runner{Workers: p.workers}.ForEach(len(units), func(i int) error {
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			var u *fault.UnitReport
			var err error
			wall := tr.phase("unit", passID, i, func() { u, err = fault.RunSingleUnit(ctx, units[i].Params) })
			rec := cellRec{label: units[i].Label, wall: wall}
			switch {
			case u == nil && errors.Is(err, context.DeadlineExceeded), wall > deadline:
				rec.timeout = true
				rec.fail = fmt.Sprintf("no verdict within the %v deadline", deadline)
			case u == nil:
				rec.fail = fmt.Sprintf("error: %v", err)
			case u.Failure != "":
				rec.fail = u.Failure
			}
			if u != nil && !rec.timeout {
				reports[i] = u
				rec.digest = digest(u)
			}
			p.cells[i] = rec
			return nil // a failed unit is recorded, and never stops the others
		})
	})
	// Units that never reported leave nil slots, which AssembleReport
	// counts as interrupted and reports as an error; the records above
	// already count them as failed.
	rep, _ := fault.AssembleReport(opt, units, reports)
	t := p.campaign
	t.fired, t.silent, t.undetected = rep.Fired, rep.SilentCorruptions, rep.Undetected
	t.unrecovered, t.crashPoints = rep.Unrecovered, rep.CrashPoints
	for _, u := range reports {
		if u != nil {
			t.detected += u.Detections
			t.recovered += u.Recoveries
			t.windowCyc += u.WindowCyc
			t.windowLines += u.WindowLines
		}
	}
	p.notes = append(p.notes, fmt.Sprintf(
		"campaign seed=%d units=%d failed=%d fired=%d silent=%d undetected=%d unrecovered=%d crash_points=%d digest=%s",
		seed, len(units), p.failed(), rep.Fired, rep.SilentCorruptions, rep.Undetected,
		rep.Unrecovered, rep.CrashPoints, digest(reports)))
	for _, c := range p.cells {
		if c.fail != "" {
			p.notes = append(p.notes, fmt.Sprintf("  failed unit %s: %s", c.label, c.fail))
		}
	}
	return p, nil
}

// campaignSetup times the set-up of one campaign's machines: a fresh
// harness.NewSystem per unit, on the configuration every unit builds.
// Each unit builds and sets up its machine inside fault.RunSingleUnit,
// out of the benchmark's reach, so this is the campaign's set-up cost
// the benchmark can time from outside. Each build starts from a collected
// heap, so that the garbage of the build before it does not weigh on it.
func campaignSetup() (time.Duration, error) {
	var total time.Duration
	for range fault.AppNames() {
		for _, d := range campaignDesigns {
			runtime.GC()
			start := time.Now()
			if _, err := harness.NewSystem(param.SmallTest(d)); err != nil {
				return 0, err
			}
			total += time.Since(start)
		}
	}
	return total, nil
}
