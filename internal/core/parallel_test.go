package core

import (
	"math/rand"
	"testing"

	"quicksel/internal/geom"
)

// observeWorkload feeds the same deterministic stream of (box, selectivity)
// pairs into a model.
func observeWorkload(t *testing.T, m *Model, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dim := m.Dim()
	for q := 0; q < n; q++ {
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for d := 0; d < dim; d++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		if err := m.Observe(geom.NewBox(lo, hi), rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: training with any worker count produces bit-identical assembled
// matrices, weights, and estimates to the sequential (Workers=1) path. This
// is what keeps PR 1's snapshots reproducible on machines with different
// core counts.
func TestParallelTrainingBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, dim := range []int{1, 2, 4} {
			seq := mustModel(t, Config{Dim: dim, Seed: seed, Workers: 1})
			observeWorkload(t, seq, seed*100, 25)
			if err := seq.Train(); err != nil {
				t.Fatalf("seed=%d dim=%d: sequential train: %v", seed, dim, err)
			}

			for _, workers := range []int{2, 3, 8} {
				parl := mustModel(t, Config{Dim: dim, Seed: seed, Workers: workers})
				observeWorkload(t, parl, seed*100, 25)
				if err := parl.Train(); err != nil {
					t.Fatalf("seed=%d dim=%d workers=%d: train: %v", seed, dim, workers, err)
				}

				// Assembled QP data must match bit-for-bit.
				qs, as, ss := seq.assemble()
				qp, ap, sp := parl.assemble()
				for i, v := range qs.Data {
					if qp.Data[i] != v {
						t.Fatalf("seed=%d dim=%d workers=%d: Q[%d] = %v, want %v", seed, dim, workers, i, qp.Data[i], v)
					}
				}
				for i, v := range as.Data {
					if ap.Data[i] != v {
						t.Fatalf("seed=%d dim=%d workers=%d: A[%d] = %v, want %v", seed, dim, workers, i, ap.Data[i], v)
					}
				}
				for i, v := range ss {
					if sp[i] != v {
						t.Fatalf("seed=%d dim=%d workers=%d: s[%d] = %v, want %v", seed, dim, workers, i, sp[i], v)
					}
				}

				// Trained weights and subpopulations must match bit-for-bit.
				ws, wp := seq.Weights(), parl.Weights()
				if len(ws) != len(wp) {
					t.Fatalf("seed=%d dim=%d workers=%d: %d vs %d weights", seed, dim, workers, len(wp), len(ws))
				}
				for i := range ws {
					if ws[i] != wp[i] {
						t.Fatalf("seed=%d dim=%d workers=%d: weight %d = %v, want %v", seed, dim, workers, i, wp[i], ws[i])
					}
				}
				ss2, sp2 := seq.Subpopulations(), parl.Subpopulations()
				for i := range ss2 {
					if !ss2[i].Equal(sp2[i]) {
						t.Fatalf("seed=%d dim=%d workers=%d: subpop %d differs", seed, dim, workers, i)
					}
				}

				// And so must estimates on fresh query boxes.
				qrng := rand.New(rand.NewSource(seed * 777))
				for q := 0; q < 20; q++ {
					lo := make([]float64, dim)
					hi := make([]float64, dim)
					for d := 0; d < dim; d++ {
						a, b := qrng.Float64(), qrng.Float64()
						if a > b {
							a, b = b, a
						}
						lo[d], hi[d] = a, b
					}
					box := geom.NewBox(lo, hi)
					es, err := seq.Estimate(box)
					if err != nil {
						t.Fatal(err)
					}
					ep, err := parl.Estimate(box)
					if err != nil {
						t.Fatal(err)
					}
					if es != ep {
						t.Fatalf("seed=%d dim=%d workers=%d: estimate %v, want %v", seed, dim, workers, ep, es)
					}
				}
			}
		}
	}
}

// Workers is a runtime knob, but it must survive the snapshot round-trip:
// the serving daemon retrains on snapshot clones, and a clone that forgets
// the operator's parallelism cap would saturate the machine.
func TestSnapshotPreservesWorkers(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 1, Workers: 3})
	r, err := Restore(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.Workers != 3 {
		t.Errorf("restored Workers = %d, want 3", r.cfg.Workers)
	}
}

// The compiled estimate path must be allocation-free after training.
func TestEstimateAllocationFree(t *testing.T) {
	m := mustModel(t, Config{Dim: 3, Seed: 11})
	observeWorkload(t, m, 42, 20)
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	box := geom.NewBox([]float64{0.1, 0.2, 0.3}, []float64{0.6, 0.7, 0.8})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Estimate(box); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Estimate allocates %v objects per call, want 0", allocs)
	}
}

// Pruned compilation: zero weights contribute nothing and the pruned fast
// path agrees with a direct evaluation of the mixture formula.
func TestCompiledModelMatchesDirectEvaluation(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 13})
	observeWorkload(t, m, 99, 15)
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	// Zero out some weights and recompile to exercise pruning.
	for i := 0; i < len(m.weights); i += 3 {
		m.weights[i] = 0
	}
	m.publish()

	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 50; q++ {
		lo := []float64{rng.Float64() * 0.5, rng.Float64() * 0.5}
		hi := []float64{lo[0] + rng.Float64()*0.5, lo[1] + rng.Float64()*0.5}
		box := geom.NewBox(lo, hi)
		got, err := m.Estimate(box)
		if err != nil {
			t.Fatal(err)
		}
		b := box.Clip(m.unit)
		var want float64
		for j, g := range m.subpops {
			w := m.weights[j]
			if w == 0 {
				continue
			}
			want += w / g.Volume() * b.IntersectionVolume(g)
		}
		if want < 0 {
			want = 0
		}
		if want > 1 {
			want = 1
		}
		if got != want {
			t.Fatalf("query %d: compiled estimate = %v, direct = %v", q, got, want)
		}
	}
}
