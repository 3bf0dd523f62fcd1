package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

var ctx = context.Background()

// small keeps experiment tests fast; the shapes already emerge at this
// horizon.
var small = Params{Steps: 250, Seed: 2022}

func TestWithDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.Steps != 400 || p.Seed != 2022 {
		t.Errorf("defaults = %+v", p)
	}
	q := Params{Steps: 7, Seed: 3}.WithDefaults()
	if q.Steps != 7 || q.Seed != 3 {
		t.Errorf("explicit params overridden: %+v", q)
	}
}

func TestTable2Shapes(t *testing.T) {
	rows, err := Table2(ctx, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10 (5 candidates x 2 datasets)", len(rows))
	}
	byKey := map[string]Table2Row{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.Candidate] = r
	}
	for _, ds := range []string{"TPC-ds", "CPDB"} {
		timer, ant := byKey[ds+"/DP-Timer"], byKey[ds+"/DP-ANT"]
		otm, ep, nm := byKey[ds+"/OTM"], byKey[ds+"/EP"], byKey[ds+"/NM"]
		// Accuracy ordering: DP protocols far better than OTM; EP/NM exact.
		if timer.AvgL1 >= otm.AvgL1 || ant.AvgL1 >= otm.AvgL1 {
			t.Errorf("%s: DP errors (%v, %v) not below OTM %v", ds, timer.AvgL1, ant.AvgL1, otm.AvgL1)
		}
		if nm.AvgL1 != 0 {
			t.Errorf("%s: NM error %v", ds, nm.AvgL1)
		}
		// OTM relative error ~ 1.
		if otm.RelErr < 0.5 {
			t.Errorf("%s: OTM rel err %v, want near 1", ds, otm.RelErr)
		}
		// Efficiency ordering: NM slowest by far, then EP, then DP.
		if nm.QETSecs < 10*timer.QETSecs {
			t.Errorf("%s: NM QET %v not >> DP %v", ds, nm.QETSecs, timer.QETSecs)
		}
		if ep.QETSecs < 2*timer.QETSecs {
			t.Errorf("%s: EP QET %v not above DP %v", ds, ep.QETSecs, timer.QETSecs)
		}
		// View size: EP's padded view dwarfs the DP views.
		if ep.ViewMB < 3*timer.ViewMB {
			t.Errorf("%s: EP view %v MB vs DP %v MB", ds, ep.ViewMB, timer.ViewMB)
		}
		// DP improvement columns are derived consistently.
		if timer.ImpOverNM < 1 {
			t.Errorf("%s: DP-Timer improvement over NM = %v < 1", ds, timer.ImpOverNM)
		}
	}
}

func TestFormatTable2(t *testing.T) {
	rows, err := Table2(ctx, small)
	if err != nil {
		t.Fatal(err)
	}
	s := FormatTable2(rows)
	for _, want := range []string{"DP-Timer", "DP-ANT", "OTM", "EP", "NM", "TPC-ds", "CPDB"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

func TestFigure4Positions(t *testing.T) {
	figs, err := Figure4(ctx, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("got %d figures", len(figs))
	}
	for _, fig := range figs {
		pts := map[string]Point{}
		for _, p := range fig.Points {
			pts[p.Series] = p
		}
		// EP upper-left (low error, high QET), OTM lower-right, DP bottom-middle.
		if !(pts["EP"].X <= pts["DP-Timer"].X && pts["EP"].Y >= pts["DP-Timer"].Y) {
			t.Errorf("%s: EP not upper-left of DP-Timer: EP=%+v timer=%+v", fig.ID, pts["EP"], pts["DP-Timer"])
		}
		if !(pts["OTM"].X >= pts["DP-Timer"].X) {
			t.Errorf("%s: OTM not right of DP-Timer", fig.ID)
		}
		if !(pts["NM"].Y >= pts["EP"].Y) {
			t.Errorf("%s: NM not above EP", fig.ID)
		}
	}
}

func TestFigure5Trends(t *testing.T) {
	figs, err := Figure5(ctx, Params{Steps: 300, Seed: 2022})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("got %d figures, want 4 panels", len(figs))
	}
	for _, fig := range figs {
		if !strings.Contains(fig.ID, "accuracy") {
			continue
		}
		// Observation 3: sDPTimer's error decreases as epsilon grows. Compare
		// the smallest-epsilon point against the largest.
		timer := fig.Series("DP-Timer")
		if len(timer) < 2 {
			t.Fatalf("%s: missing timer series", fig.ID)
		}
		first, last := timer[0], timer[len(timer)-1]
		if last.Y >= first.Y {
			t.Errorf("%s: timer error did not decrease with epsilon (%v@%v -> %v@%v)",
				fig.ID, first.Y, first.X, last.Y, last.X)
		}
	}
	for _, fig := range figs {
		if !strings.Contains(fig.ID, "efficiency") {
			continue
		}
		// Observation 4: QET decreases as epsilon increases, for both.
		for _, series := range fig.SeriesNames() {
			pts := fig.Series(series)
			first, last := pts[0], pts[len(pts)-1]
			if last.Y > first.Y*1.5 {
				t.Errorf("%s/%s: QET grew with epsilon (%v -> %v)", fig.ID, series, first.Y, last.Y)
			}
		}
	}
}

func TestFigure6SparseBurstBias(t *testing.T) {
	figs, err := Figure6(ctx, Params{Steps: 500, Seed: 2022})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("got %d figures", len(figs))
	}
	for _, fig := range figs {
		if !strings.Contains(fig.ID, "accuracy") {
			continue
		}
		timer, ant := fig.Series("DP-Timer"), fig.Series("DP-ANT")
		// Observation 5 direction checks, with slack: on sparse (x=0) the
		// timer should not be much worse than ANT; on burst (x=2) ANT should
		// not be much worse than the timer.
		if timer[0].Y > 2.0*ant[0].Y+10 {
			t.Errorf("%s sparse: timer %v far above ant %v", fig.ID, timer[0].Y, ant[0].Y)
		}
		if ant[2].Y > 2.0*timer[2].Y+10 {
			t.Errorf("%s burst: ant %v far above timer %v", fig.ID, ant[2].Y, timer[2].Y)
		}
	}
}

func TestFigure8Shapes(t *testing.T) {
	figs, err := Figure8(ctx, Params{Steps: 250, Seed: 2022})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("got %d figures", len(figs))
	}
	var acc, shr Figure
	for _, f := range figs {
		switch f.ID {
		case "fig8-accuracy":
			acc = f
		case "fig8-shrink":
			shr = f
		}
	}
	// Observation 7: error at the smallest omega (heavy truncation) exceeds
	// the error at a mid-range omega.
	timer := acc.Series("DP-Timer")
	if timer[0].Y <= timer[2].Y {
		t.Errorf("accuracy: omega=%v err %v not above omega=%v err %v (truncation loss missing)",
			timer[0].X, timer[0].Y, timer[2].X, timer[2].Y)
	}
	// Observation 8: Shrink time grows with omega.
	s := shr.Series("DP-Timer")
	if s[len(s)-1].Y <= s[0].Y {
		t.Errorf("shrink time did not grow with omega: %v -> %v", s[0].Y, s[len(s)-1].Y)
	}
}

func TestFigure9Scaling(t *testing.T) {
	figs, err := Figure9(ctx, Params{Steps: 200, Seed: 2022})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("got %d figures", len(figs))
	}
	for _, fig := range figs {
		if !strings.Contains(fig.ID, "mpc") {
			continue
		}
		for _, series := range fig.SeriesNames() {
			pts := fig.Series(series)
			if pts[len(pts)-1].Y <= pts[0].Y {
				t.Errorf("%s/%s: total MPC time did not grow with scale", fig.ID, series)
			}
		}
	}
}

func TestFigureHelpers(t *testing.T) {
	f := Figure{ID: "x", Points: []Point{
		{Series: "b", X: 2, Y: 1}, {Series: "a", X: 1, Y: 1}, {Series: "b", X: 1, Y: 3},
	}}
	names := f.SeriesNames()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Errorf("series names %v", names)
	}
	bs := f.Series("b")
	if len(bs) != 2 || bs[0].X != 1 {
		t.Errorf("series not X-sorted: %v", bs)
	}
	if FormatFigure(f) == "" {
		t.Error("empty format")
	}
}

func TestRegistryAndNames(t *testing.T) {
	names := Names()
	want := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table2"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q want %q", i, names[i], want[i])
		}
	}
	var buf bytes.Buffer
	if err := Registry["table2"](ctx, Params{Steps: 120, Seed: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DP-Timer") {
		t.Error("runner output missing content")
	}
}

func TestFmtImp(t *testing.T) {
	cases := map[float64]string{
		2.5:  "2.5x",
		150:  "150x",
		1e16: "inf",
	}
	for in, want := range cases {
		if got := fmtImp(in); got != want {
			t.Errorf("fmtImp(%v) = %q want %q", in, got, want)
		}
	}
}

// TestRunAllTiny exercises every registered experiment end to end at a tiny
// horizon — primarily a wiring test for the CLI surface.
func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run")
	}
	var buf bytes.Buffer
	if err := RunAll(ctx, Params{Steps: 60, Seed: 4}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, section := range Names() {
		if !strings.Contains(out, "==== "+section+" ====") {
			t.Errorf("RunAll output missing section %q", section)
		}
	}
	if !strings.Contains(out, "fig7") || !strings.Contains(out, "DP-ANT") {
		t.Error("RunAll output incomplete")
	}
}

func TestFigure7Panels(t *testing.T) {
	figs, err := Figure7(ctx, Params{Steps: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 { // 2 datasets x 3 privacy levels
		t.Fatalf("got %d panels, want 6", len(figs))
	}
	for _, fig := range figs {
		if got := len(fig.Points); got != 2*len(TSweep) {
			t.Errorf("%s: %d points, want %d", fig.ID, got, 2*len(TSweep))
		}
	}
}
