package server

import (
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzRegistryObserve feeds the default-method registry a sequence of
// observations — newline-separated WHERE clauses, alternating between two
// selectivities — one ObserveBatch each. Property: a batch either fails
// and leaves the backlog unchanged, or is accepted, after which Train
// succeeds and every probe estimate is in [0, 1] (so finite). An accepted
// record that fails training would wedge the estimator: its batch is
// requeued forever.
func FuzzRegistryObserve(f *testing.F) {
	f.Add("age >= 30\nsalary < 100000", 0.4, 0.2)
	f.Add("age BETWEEN 25 AND 55 AND salary >= 100000", math.NaN(), 0.5)
	f.Add("age < 40\nage >= 70 OR salary >= 250000", math.Inf(1), math.Inf(-1))
	f.Add("salary >= 250000\nage >= 18", math.Copysign(0, -1), 1.0)
	f.Add("age = 30\nNOT (age < 50)", math.Nextafter(1, 2), 0.0)
	f.Add("age >>= ;; DROP\n\x00\xff\n", 0.1, 0.9)
	f.Add("salary < 1e308 AND age > -1e308", 5e-324, 1.0)
	f.Fuzz(func(t *testing.T, wheres string, sel0, sel1 float64) {
		reg, err := NewRegistry(Config{TrainInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		if err := reg.Create("people", walSchema(t)); err != nil {
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
				t.Fatalf("accepted %q (sel %v), then Train failed: %v", where, sel, err)
			}
			for _, p := range walProbes() {
				est, err := reg.Estimate("people", p)
				if err != nil || !(est >= 0 && est <= 1) {
					t.Fatalf("after %q (sel %v): Estimate(%q) = %v, %v", where, sel, p, est, err)
				}
			}
		}
	})
}
