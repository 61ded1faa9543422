package core

import (
	"math"
	"math/rand"
	"testing"

	"quicksel/internal/geom"
)

// referenceEstimate is the early-exit kernel the branchless one replaced:
// Σ_j (w_j/|G_j|)·BoxSet.CornersIntersectionVolume in subpopulation order.
func referenceEstimate(c *compiledModel, qlo, qhi []float64) float64 {
	var est float64
	for j, wv := range c.wOverV {
		est += wv * c.boxes.CornersIntersectionVolume(j, qlo, qhi)
	}
	return est
}

// randomCorner draws a coordinate in [0,1], landing exactly on the unit
// cube's boundary a fifth of the time.
func randomCorner(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return rng.Float64()
	}
}

// randomQuerySide draws one query interval: ordinary, zero-width, inverted
// (clipped to zero width), outside the cube (clipped empty), reaching past
// it, or carrying a signed zero or a NaN.
func randomQuerySide(rng *rand.Rand) (lo, hi float64) {
	a, b := rng.Float64(), rng.Float64()
	if a > b {
		a, b = b, a
	}
	switch rng.Intn(12) {
	case 0:
		return a, a // zero width
	case 1:
		return b, a // inverted
	case 2:
		return 1 + a, 1 + b // beyond the cube: clips to [1,1]
	case 3:
		return -1 - b, -a // below the cube: clips to an empty side
	case 4:
		return -a, 1 + b // covers the whole side
	case 5:
		return math.Copysign(0, -1), b
	case 6:
		return a, math.Copysign(0, -1)
	case 7:
		return math.NaN(), b
	case 8:
		return a, math.NaN()
	default:
		return a, b
	}
}

// Property: the branchless kernel reproduces the early-exit kernel bit for
// bit, both raw and through View.Estimate's clip and clamp, for every
// dimensionality 1..12, boundary-touching subpopulations, degenerate and
// out-of-cube query sides, and negative weights.
func TestBranchlessKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(12)
		m := 1 + rng.Intn(60)
		subpops := make([]geom.Box, 0, m)
		weights := make([]float64, 0, m)
		for len(subpops) < m {
			lo := make([]float64, d)
			hi := make([]float64, d)
			for k := range lo {
				lo[k], hi[k] = randomCorner(rng), randomCorner(rng)
				if lo[k] > hi[k] {
					lo[k], hi[k] = hi[k], lo[k]
				}
			}
			b := geom.NewBox(lo, hi)
			if b.Volume() == 0 {
				continue
			}
			w := rng.NormFloat64() // about half negative
			if rng.Intn(8) == 0 {
				w = 0 // pruned by compile
			}
			subpops = append(subpops, b)
			weights = append(weights, w)
		}
		c := compile(subpops, weights)
		view := &View{compiled: c, unit: geom.Unit(d)}
		for q := 0; q < 40; q++ {
			lo := make([]float64, d)
			hi := make([]float64, d)
			for k := range lo {
				lo[k], hi[k] = randomQuerySide(rng)
			}
			box := geom.NewBox(lo, hi)
			qlo, qhi := make([]float64, d), make([]float64, d)
			box.ClipInto(geom.Unit(d), qlo, qhi)

			var want float64
			if c != nil {
				want = referenceEstimate(c, qlo, qhi)
				got := c.estimate(append([]float64(nil), qlo...), append([]float64(nil), qhi...))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d query %d (d=%d): kernel = %v (%#x), reference = %v (%#x)",
						trial, q, d, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			want = math.Max(0, math.Min(1, want))
			got, err := view.Estimate(box)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d query %d (d=%d): View.Estimate = %v, reference = %v", trial, q, d, got, want)
			}
		}
	}
}

// A trained model's estimates, through Model.Estimate and its published
// view alike, equal the reference kernel over its compiled mixture.
func TestTrainedViewMatchesReference(t *testing.T) {
	m := mustModel(t, Config{Dim: 8, Seed: 21})
	observeWorkload(t, m, 22, 60)
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	v := m.View()
	if v == nil || v.compiled == nil {
		t.Fatal("trained model published no compiled view")
	}
	rng := rand.New(rand.NewSource(23))
	qlo, qhi := make([]float64, 8), make([]float64, 8)
	for q := 0; q < 200; q++ {
		lo := make([]float64, 8)
		hi := make([]float64, 8)
		for k := range lo {
			lo[k], hi[k] = randomQuerySide(rng)
		}
		box := geom.NewBox(lo, hi)
		box.ClipInto(m.unit, qlo, qhi)
		want := math.Max(0, math.Min(1, referenceEstimate(v.compiled, qlo, qhi)))
		got, err := m.Estimate(box)
		if err != nil {
			t.Fatal(err)
		}
		viewGot, err := v.Estimate(box)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(viewGot) != math.Float64bits(want) {
			t.Fatalf("query %d: Model.Estimate = %v, View.Estimate = %v, reference = %v", q, got, viewGot, want)
		}
	}
}

// The read view outlives the training run that published it: Observe
// unpublishes (the model must refit) and the next Train publishes a new
// view, while the old one keeps answering from the old weights.
func TestViewLifecycle(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 31})
	if m.View() != nil {
		t.Fatal("untrained model published a view")
	}
	observeWorkload(t, m, 32, 10)
	if m.View() != nil {
		t.Fatal("model with pending observations published a view")
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	old := m.View()
	box := geom.NewBox([]float64{0.1, 0.2}, []float64{0.6, 0.9})
	before, err := old.Estimate(box)
	if err != nil {
		t.Fatal(err)
	}
	observeWorkload(t, m, 33, 10)
	if m.View() != nil {
		t.Fatal("Observe left the stale view published")
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	if m.View() == old {
		t.Fatal("Train did not publish a new view")
	}
	after, err := old.Estimate(box)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after) != math.Float64bits(before) {
		t.Fatalf("old view changed its answer across a retrain: %v -> %v", before, after)
	}
	if _, err := old.Estimate(geom.Unit(3)); err == nil {
		t.Fatal("view accepted a box of the wrong dimension")
	}
}
