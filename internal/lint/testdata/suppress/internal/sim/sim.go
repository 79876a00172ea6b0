// Package sim exercises directive validation: a malformed
// rarlint:allow is a finding of the "lint" pseudo-check, suppresses
// nothing, and cannot itself be suppressed — a waiver can never
// silently rot.
package sim

import "time"

// A well-formed directive on the flagged line suppresses the finding.
func suppressed() time.Time {
	return time.Now() //rarlint:allow determinism corpus host-side example
}

// A well-formed directive on the line directly above also reaches it.
func lineAbove() time.Time {
	//rarlint:allow determinism corpus host-side example
	return time.Now()
}

// A typo in the check name: the directive is flagged and the finding
// survives.
func typo() time.Time {
	//lintwant lint
	//rarlint:allow determinsm typo never suppresses
	return time.Now() //lintwant determinism
}

// A directive without a reason is rejected and suppresses nothing.
func reasonless() time.Time {
	//lintwant lint
	//rarlint:allow determinism
	return time.Now() //lintwant determinism
}

// A directive without even a check name.
func nameless() time.Time {
	//lintwant lint
	//rarlint:allow
	return time.Now() //lintwant determinism
}

// A valid directive two lines above the finding does not reach it:
// suppression is same-line or line-above only — and an allow that
// suppresses nothing is itself reported as stale.
func farAway() time.Time {
	//lintwant lint
	//rarlint:allow determinism valid reason but too far from the call

	return time.Now() //lintwant determinism
}

// An allow trailing a statement governs its own line only: the call on
// the next line is still reported. Only an allow standing alone on its
// line reaches the line below.
func trailing() (time.Time, time.Time) {
	a := time.Now() //rarlint:allow determinism corpus host-side example
	b := time.Now() //lintwant determinism
	return a, b
}

// The retired waiver verbs — the fast-forward's quiescent and nscaled,
// and pure, survives, unit and hot — are each an unknown directive, so
// a waiver carried over from an older branch fails instead of
// lingering.
type core struct {
	//lintwant lint
	ready uint64 //rarlint:quiescent x
	//lintwant lint
	skipped uint64 //rarlint:nscaled x
	//lintwant lint
	resume uint64 //rarlint:survives consumed at exit
	//lintwant lint
	cycle uint64 //rarlint:unit cycles
}

// lintwant lint
//
//rarlint:pure
func (c *core) pending() uint64 { return c.ready + c.skipped + c.resume + c.cycle }

// lintwant lint
//
//rarlint:hot
func (c *core) tick() { c.cycle++ }
