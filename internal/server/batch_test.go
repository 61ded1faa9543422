package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func estimateBatch(t *testing.T, base, name string, wheres []string) []float64 {
	t.Helper()
	body, err := json.Marshal(map[string]any{"wheres": wheres})
	if err != nil {
		t.Fatal(err)
	}
	status, respBody := doJSON(t, "POST", base+"/v1/"+name+"/estimate/batch", string(body))
	mustStatus(t, http.StatusOK, status, respBody)
	var resp struct {
		Selectivities []float64 `json:"selectivities"`
	}
	if err := json.Unmarshal(respBody, &resp); err != nil {
		t.Fatalf("decode batch response %s: %v", respBody, err)
	}
	return resp.Selectivities
}

// The batch endpoint must agree with the single-estimate endpoint, clause
// for clause, and preserve input order.
func TestEstimateBatchMatchesSingle(t *testing.T) {
	srv, ts := newTestServer(t, Config{TrainInterval: time.Hour})
	defer srv.Close()
	createPeople(t, ts.URL)

	status, body := doJSON(t, "POST", ts.URL+"/v1/people/observe",
		`{"where": "age BETWEEN 20 AND 39", "selectivity": 0.4}`)
	mustStatus(t, http.StatusAccepted, status, body)
	status, body = doJSON(t, "POST", ts.URL+"/v1/people/train", "{}")
	mustStatus(t, http.StatusOK, status, body)

	wheres := []string{
		"age BETWEEN 20 AND 39",
		"salary >= 100000",
		"age >= 60 AND salary < 50000",
	}
	sels := estimateBatch(t, ts.URL, "people", wheres)
	if len(sels) != len(wheres) {
		t.Fatalf("batch returned %d selectivities, want %d", len(sels), len(wheres))
	}
	for i, where := range wheres {
		single := estimate(t, ts.URL, "people", where)
		if sels[i] != single {
			t.Errorf("batch[%d] (%q) = %v, single = %v", i, where, sels[i], single)
		}
	}
}

func TestEstimateBatchErrors(t *testing.T) {
	srv, ts := newTestServer(t, Config{TrainInterval: time.Hour})
	defer srv.Close()
	createPeople(t, ts.URL)

	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"empty body", `{}`, http.StatusBadRequest},
		{"empty wheres", `{"wheres": []}`, http.StatusBadRequest},
		{"empty clause", `{"wheres": ["age >= 20", ""]}`, http.StatusBadRequest},
		{"bad clause", `{"wheres": ["age >= 20", "no_such_column = 1"]}`, http.StatusBadRequest},
		{"bad json", `{"wheres": [`, http.StatusBadRequest},
		{"oversized batch", fmt.Sprintf(`{"wheres": [%s"age >= 20"]}`,
			strings.Repeat(`"age >= 20", `, MaxEstimateBatch)), http.StatusBadRequest},
	} {
		status, body := doJSON(t, "POST", ts.URL+"/v1/people/estimate/batch", tc.body)
		if status != tc.status {
			t.Errorf("%s: status = %d, want %d; body: %s", tc.name, status, tc.status, body)
		}
	}
	status, _ := doJSON(t, "POST", ts.URL+"/v1/nobody/estimate/batch", `{"wheres": ["age >= 20"]}`)
	if status != http.StatusNotFound {
		t.Errorf("unknown estimator: status = %d, want 404", status)
	}
}

// TestEstimateBatchDuringRetrainSwap hammers concurrent batch estimates
// while the background trainer keeps swapping freshly trained models in.
// Run with -race (CI does): it proves a batch never straddles a swap and
// the compiled serving state is safe to read concurrently.
func TestEstimateBatchDuringRetrainSwap(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		TrainInterval: time.Millisecond,
		BufferSize:    256,
	})
	defer srv.Close()
	createPeople(t, ts.URL)
	reg := srv.Registry()

	wheres := []string{
		"age BETWEEN 20 AND 39",
		"salary >= 100000",
		"age >= 30 AND salary BETWEEN 40000 AND 120000",
		"age < 25 OR age >= 65",
	}

	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	errs := make(chan error, 9)

	// Writer: keeps feeding observations so the background worker keeps
	// retraining and swapping the serving model.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := 18 + i%50
			obs := []Observation{{Where: fmt.Sprintf("age >= %d", lo), Sel: float64(1+i%9) / 10}}
			if _, _, err := reg.ObserveBatch("people", obs); err != nil {
				errs <- fmt.Errorf("observe: %w", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Readers: hammer the batch path through both the registry and HTTP.
	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			for i := 0; i < 50; i++ {
				var sels []float64
				if g%2 == 0 {
					var err error
					sels, err = reg.EstimateBatch("people", wheres)
					if err != nil {
						errs <- fmt.Errorf("reader %d: %w", g, err)
						return
					}
				} else {
					sels = estimateBatch(t, ts.URL, "people", wheres)
				}
				for j, sel := range sels {
					if sel < 0 || sel > 1 {
						errs <- fmt.Errorf("reader %d: batch[%d] = %v out of [0,1]", g, j, sel)
						return
					}
				}
			}
		}(g)
	}

	// Let readers finish, then stop the writer.
	done := make(chan struct{})
	go func() { readerWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("timeout waiting for reader goroutines")
	}
	close(stop)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !strings.Contains(metricsBody(t, ts.URL), `quickseld_requests_total{route="estimate_batch"}`) {
		t.Error("batch counter missing from /metrics")
	}
}

func metricsBody(t *testing.T, base string) string {
	t.Helper()
	status, body := doJSON(t, "GET", base+"/metrics", "")
	mustStatus(t, http.StatusOK, status, body)
	return string(body)
}
