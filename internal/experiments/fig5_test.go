package experiments

import (
	"testing"
	"time"

	"paccel/internal/evsim"
)

// fig5Gaps is Figure 5's pacing schedule: a closed loop with shrinking
// idle gaps between round trips, ending back to back at saturation.
var fig5Gaps = []time.Duration{1800, 1300, 800, 600, 500, 400, 300, 250, 200, 150, 100, 50, 20, 0}

// fig5Rates returns one curve of Figure 5 as achieved round trips per
// second, one point per gap: the solid line with a collection after
// every receive, the dashed one with only occasional collections.
func fig5Rates(gcEvery bool, n int) []float64 {
	cm := evsim.PaperCosts()
	cm.GCEveryReceive = gcEvery
	rates := make([]float64, 0, len(fig5Gaps))
	for _, gap := range fig5Gaps {
		res := evsim.RoundTrips(evsim.RTConfig{Model: cm, N: n, Gap: gap * time.Microsecond})
		rates = append(rates, res.Achieved)
	}
	return rates
}

// TestFig5 checks the shape of both curves: as the gap shrinks the
// achieved rate never falls.
func TestFig5(t *testing.T) {
	for _, gcEvery := range []bool{true, false} {
		rates := fig5Rates(gcEvery, 400)
		if len(rates) < 5 {
			t.Fatal("too few points")
		}
		for i := 1; i < len(rates); i++ {
			if rates[i] < rates[i-1]-1 {
				t.Fatalf("gcEvery=%v: rate regressed: %.0f", gcEvery, rates)
			}
		}
	}
}

// TestFig5CSV checks the rows of both curves against each other: one
// per gap, equal while the loop is paced slowly, and a dashed line that
// runs well past the solid line's saturation point.
func TestFig5CSV(t *testing.T) {
	solid, dashed := fig5Rates(true, 200), fig5Rates(false, 200)
	if len(solid)+len(dashed) < 20 || len(solid) != len(dashed) {
		t.Fatalf("rows: %d solid, %d dashed", len(solid), len(dashed))
	}
	for i := range solid {
		if solid[i] <= 0 || dashed[i] < solid[i]-1 {
			t.Fatalf("gap %v: solid %.0f rt/s, dashed %.0f rt/s", fig5Gaps[i]*time.Microsecond, solid[i], dashed[i])
		}
	}
	// The slowest pacing leaves time for every collection: the curves agree.
	if d := dashed[0] - solid[0]; d > 1 || d < -1 {
		t.Fatalf("curves differ at the slowest pace: %.0f vs %.0f rt/s", solid[0], dashed[0])
	}
	last := len(solid) - 1
	if dashed[last] < 2*solid[last] {
		t.Fatalf("back to back: dashed %.0f rt/s, want at least twice solid %.0f", dashed[last], solid[last])
	}
}
