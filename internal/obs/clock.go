package obs

import "time"

// This file is the one sanctioned wall-time origin of the module's
// deterministic packages: internal/analysis/detclock bans time.Now and
// friends everywhere else (outside cmd/ and examples/), and lists this
// package as the allowed source. The sanction is sound because every read
// flows into instruments — histograms, spans, EWMA hints — and never into
// engine state; the non-perturbation tests pin that property.

// Ticks is a reading of the process's monotonic clock, in nanoseconds since
// an arbitrary process-local epoch. Ticks are comparable and subtractable
// within one process; they carry no calendar meaning and must never be
// persisted into engine state or snapshots.
type Ticks int64

// Sub returns the duration elapsed from u to t.
func (t Ticks) Sub(u Ticks) time.Duration { return time.Duration(t - u) }

// epoch anchors the process-local monotonic scale. time.Since on a fixed base
// uses the monotonic reading embedded in the base Time, so Ticks are immune
// to wall-clock steps (NTP, manual adjustment).
var epoch = time.Now()

// Now reads the process's monotonic clock.
func Now() Ticks { return Ticks(time.Since(epoch)) }

// Since returns the time elapsed since a reading of Now.
func Since(t Ticks) time.Duration { return Now().Sub(t) }
