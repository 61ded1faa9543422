package quicksel

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"quicksel/internal/estimator"
)

// readCalls are the three public read entry points the lock-free path
// serves, each returning the estimates it produced.
func readCalls(e *Estimator) map[string]func() ([]float64, error) {
	one := func(sel float64, err error) ([]float64, error) { return []float64{sel}, err }
	return map[string]func() ([]float64, error){
		"Estimate":      func() ([]float64, error) { return one(e.Estimate(Range(0, 10, 60))) },
		"EstimateWhere": func() ([]float64, error) { return one(e.EstimateWhere("x >= 25 AND y < 75")) },
		"EstimateBatch": func() ([]float64, error) {
			return e.EstimateBatch([]*Predicate{Range(0, 10, 60), Or(Range(1, 0, 20), Range(1, 80, 100))})
		},
	}
}

func observeGrid(t *testing.T, e *Estimator, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lo := float64(i * 7 % 80)
		if err := e.Observe(And(Range(0, lo, lo+20), Range(1, 100-lo-20, 100-lo)), 0.1+float64(i%5)/10); err != nil {
			t.Fatal(err)
		}
	}
}

// A trained QuickSel estimator answers estimates without the estimator
// lock; with a fit pending the same calls take the lock and fit lazily.
func TestEstimateTakesNoLibraryLock(t *testing.T) {
	e, err := New(testSchema(t), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	observeGrid(t, e, 12)
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	for name, call := range readCalls(e) {
		e.mu.Lock()
		done := make(chan error, 1)
		go func() {
			_, err := call()
			done <- err
		}()
		select {
		case err := <-done:
			e.mu.Unlock()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(time.Second):
			e.mu.Unlock()
			<-done
			t.Fatalf("%s blocked on the estimator lock of a trained model", name)
		}
	}

	for name, call := range readCalls(e) {
		observeGrid(t, e, 1)
		type result struct {
			sels []float64
			err  error
		}
		e.mu.Lock()
		done := make(chan result, 1)
		go func() {
			sels, err := call()
			done <- result{sels, err}
		}()
		select {
		case <-done:
			e.mu.Unlock()
			t.Fatalf("%s answered a model with a fit pending without the lock", name)
		case <-time.After(20 * time.Millisecond):
		}
		e.mu.Unlock()
		got := <-done
		if got.err != nil {
			t.Fatalf("%s: %v", name, got.err)
		}
		e.mu.Lock()
		pending := estimator.FitPending(e.backend)
		e.mu.Unlock()
		if pending {
			t.Fatalf("%s did not fit the pending observations", name)
		}
		// The lazily fitted answer is the one the published view now serves.
		again, err := call()
		if err != nil {
			t.Fatal(err)
		}
		for i := range again {
			if math.Float64bits(again[i]) != math.Float64bits(got.sels[i]) {
				t.Fatalf("%s[%d]: lazy fit answered %v, view answers %v", name, i, got.sels[i], again[i])
			}
		}
	}
}

// Estimates run lock-free while another goroutine observes and trains the
// same estimator; run under -race. Every answer must be a selectivity.
func TestEstimatesDuringObserveAndTrain(t *testing.T) {
	e, err := New(testSchema(t), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	observeGrid(t, e, 8)
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calls := readCalls(e)
			for {
				for name, call := range calls {
					select {
					case <-stop:
						return
					default:
					}
					sels, err := call()
					if err != nil {
						errs <- fmt.Errorf("%s: %v", name, err)
						return
					}
					for _, s := range sels {
						if !(s >= 0 && s <= 1) {
							errs <- fmt.Errorf("%s = %v, want a finite value in [0,1]", name, s)
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		observeGrid(t, e, 1)
		if i%3 == 0 {
			if err := e.Train(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
