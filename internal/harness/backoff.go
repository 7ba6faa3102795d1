package harness

import "time"

// BackoffPolicy is the shared retry-pause schedule: exponential growth from
// Base, capped at Max, with seeded downward jitter so a herd of retriers
// (the fleet gateway's redelivery loop, a fleet worker's request retries)
// never synchronizes into thundering retries. Delay is a pure function of
// (policy, attempt), so tests can pin the exact schedule; the jitter only
// ever shortens a delay, so Max is a hard bound.
//
// The zero value means "no pause": Delay returns 0 for every attempt.
type BackoffPolicy struct {
	// Base is the delay before the first retry (attempt 1). Zero disables
	// backoff entirely.
	Base time.Duration
	// Max caps every delay. Zero selects 32*Base — deep enough that a
	// handful of redeliveries spreads out, bounded enough that a lease
	// is never parked for minutes by accident.
	Max time.Duration
	// Jitter is the fraction of each delay that is randomized away
	// (0.25 = each delay lands uniformly in [0.75d, d]). Values outside
	// [0, 1] are clamped. Zero keeps the schedule exact.
	Jitter float64
	// Seed selects the deterministic jitter sequence, so a seeded run's
	// wall-clock schedule is reproducible. The jitter never affects
	// simulated results — backoff is wall-clock-only.
	Seed uint64
}

// Delay returns the pause before retry attempt a (first retry = 1).
// Attempts below 1 and a zero Base return 0.
func (p BackoffPolicy) Delay(a int) time.Duration {
	if a < 1 || p.Base <= 0 {
		return 0
	}
	max := p.Max
	if max <= 0 {
		max = 32 * p.Base
	}
	d := p.Base
	// Shift with an overflow guard: once past the cap (or the shift
	// range), the cap is the answer.
	for i := 1; i < a; i++ {
		if d >= max || d > (1<<62)/2 {
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	j := p.Jitter
	if j < 0 {
		j = 0
	} else if j > 1 {
		j = 1
	}
	if j > 0 && d > 0 {
		// splitmix64 over (seed, attempt): deterministic per-attempt
		// fraction in [0, 1) shaving off up to Jitter of the delay.
		u := splitmix64(p.Seed ^ (uint64(a) * 0x9e3779b97f4a7c15))
		frac := float64(u>>11) / (1 << 53)
		d = time.Duration(float64(d) * (1 - j*frac))
	}
	return d
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed hash
// used only to derive jitter fractions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
