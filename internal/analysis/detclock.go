package analysis

import (
	"go/ast"
	"sort"
)

// DetClockExclude lists the module-relative package prefixes detclock does
// NOT police. Everything else in the module — the engine, the protocol
// layers, and the serving subsystem — is a deterministic package: a
// wall-clock read or a draw from the global math/rand source there either
// breaks golden/batched==sequential equivalence outright or (networked
// MPC) silently desynchronizes the two parties. The binaries and examples
// are interactive front ends, where timing output is the point.
var DetClockExclude = []string{"cmd", "examples"}

// DetClockSanctioned lists the module-relative package prefixes that ARE
// policed but are permitted to read the wall clock: the observability
// layer, whose whole job is converting wall-time readings into instruments
// (histograms, spans, EWMA hints) that the engine never reads back. Unlike
// DetClockExclude, a sanctioned package keeps the global math/rand ban —
// obs mints trace IDs from its own splitmix64 sequence, not from hidden
// RNG state.
var DetClockSanctioned = []string{"internal/obs"}

// timeForbidden are the wall-clock entry points of package time. Pure
// conversions and constants (time.Duration, time.Unix, ParseDuration) stay
// legal; anything observing or waiting on the real clock does not.
var timeForbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"After":     true,
	"AfterFunc": true,
}

// randConstructors are the math/rand{,/v2} package-level functions that
// build an explicit, seedable source rather than drawing from the hidden
// global one. They are detclock-legal (rngdraw separately polices where
// their results may live).
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// DetClock forbids wall-clock reads (time.Now and friends) and global
// math/rand draws in deterministic packages. Both are state the engine
// cannot snapshot, replay, or reproduce across parties.
var DetClock = &Analyzer{
	Name: "detclock",
	Doc: "forbid time.Now/time.Since/global math/rand in deterministic packages; " +
		"wall-clock and unseeded randomness break golden, snapshot and cross-party equivalence",
	Run: runDetClock,
}

func runDetClock(pass *Pass) error {
	if !inModule(pass.Pkg.Path()) || underAny(pass.Pkg.Path(), DetClockExclude) {
		return nil
	}
	// Sanctioned packages (the obs layer) may read the clock — they are the
	// legal wall-time origin the rest of the module borrows through
	// obs.Now/obs.Since — but still may not draw from global math/rand.
	sanctioned := underAny(pass.Pkg.Path(), DetClockSanctioned)
	// info.Uses covers both calls (time.Now()) and value references
	// (f := time.Now), so the ban cannot be laundered through a variable.
	type finding struct {
		id  *ast.Ident
		msg string
	}
	var found []finding
	for id, obj := range pass.TypesInfo.Uses { //lint:allow maporder findings are sorted by position below before reporting
		fn := pkgFunc(obj)
		if fn == nil {
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			if timeForbidden[fn.Name()] && !sanctioned {
				found = append(found, finding{id, "wall-clock read time." + fn.Name() +
					" in deterministic package " + pass.Pkg.Path() +
					" (inject a logical clock or move timing to cmd/)"})
			}
		case "math/rand", "math/rand/v2":
			if !randConstructors[fn.Name()] {
				found = append(found, finding{id, "global " + fn.Pkg().Path() +
					"." + fn.Name() + " draw in deterministic package " + pass.Pkg.Path() +
					" (thread an explicit seeded source instead)"})
			}
		}
	}
	// Map iteration above is unordered; sort before reporting so the
	// analyzer obeys the very invariant it checks.
	sort.Slice(found, func(i, j int) bool { return found[i].id.Pos() < found[j].id.Pos() })
	for _, f := range found {
		pass.Reportf(f.id.Pos(), "%s", f.msg)
	}
	return nil
}
