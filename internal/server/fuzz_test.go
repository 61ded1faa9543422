package server

import (
	"math"
	"strings"
	"testing"
	"time"

	"quicksel"
)

// FuzzRegistryObserve feeds a registry estimator — its method picked by the
// fuzz input, so both QuickSel's lock-free read view and the other methods'
// locked estimate path are exercised — a sequence of observations:
// newline-separated WHERE clauses, alternating between two selectivities,
// one ObserveBatch each. Property: a batch either fails and leaves the
// backlog unchanged, or is accepted, after which Train succeeds and every
// probe estimate, single or batched, is in [0, 1] (so finite). An accepted
// record that fails training would wedge the estimator: its batch is
// requeued forever.
func FuzzRegistryObserve(f *testing.F) {
	f.Add("age >= 30\nsalary < 100000", 0.4, 0.2, uint8(0))
	f.Add("age BETWEEN 25 AND 55 AND salary >= 100000", math.NaN(), 0.5, uint8(1))
	f.Add("age < 40\nage >= 70 OR salary >= 250000", math.Inf(1), math.Inf(-1), uint8(2))
	f.Add("salary >= 250000\nage >= 18", math.Copysign(0, -1), 1.0, uint8(3))
	f.Add("age = 30\nNOT (age < 50)", math.Nextafter(1, 2), 0.0, uint8(4))
	f.Add("age >>= ;; DROP\n\x00\xff\n", 0.1, 0.9, uint8(5))
	f.Add("salary < 1e308 AND age > -1e308", 5e-324, 1.0, uint8(0))
	methods := quicksel.Methods()
	f.Fuzz(func(t *testing.T, wheres string, sel0, sel1 float64, pick uint8) {
		method := methods[int(pick)%len(methods)]
		reg, err := NewRegistry(Config{TrainInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		if err := reg.Create("people", walSchema(t), quicksel.WithMethod(method)); err != nil {
			t.Fatal(err)
		}
		backlog := func() int { return reg.List()[0].Backlog }
		clauses := strings.Split(wheres, "\n")
		if len(clauses) > 8 {
			clauses = clauses[:8]
		}
		for i, where := range clauses {
			sel := sel0
			if i%2 == 1 {
				sel = sel1
			}
			before := backlog()
			if _, _, err := reg.ObserveBatch("people", []Observation{{Where: where, Sel: sel}}); err != nil {
				if after := backlog(); after != before {
					t.Fatalf("rejected %q (sel %v) moved the backlog %d -> %d: %v", where, sel, before, after, err)
				}
				continue
			}
			if err := reg.Train("people"); err != nil {
				t.Fatalf("%s: accepted %q (sel %v), then Train failed: %v", method, where, sel, err)
			}
			for _, p := range walProbes() {
				est, err := reg.Estimate("people", p)
				if err != nil || !(est >= 0 && est <= 1) {
					t.Fatalf("%s: after %q (sel %v): Estimate(%q) = %v, %v", method, where, sel, p, est, err)
				}
			}
			ests, err := reg.EstimateBatch("people", walProbes())
			if err != nil {
				t.Fatalf("%s: after %q (sel %v): EstimateBatch: %v", method, where, sel, err)
			}
			for i, est := range ests {
				if !(est >= 0 && est <= 1) {
					t.Fatalf("%s: after %q (sel %v): batch estimate %d = %v", method, where, sel, i, est)
				}
			}
		}
	})
}
