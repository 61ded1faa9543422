package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// quietRegistry is a registry whose background trainer never runs on its
// own during a test: an hour-long debounce and drift detection off.
func quietRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	cfg.TrainInterval = time.Hour
	cfg.Lifecycle.DriftThreshold = -1
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if err := reg.Create("people", walSchema(t)); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestEstimateTakesNoStateLock holds the estimator's state lock — as a
// long snapshot capture or a publish would — and requires Estimate and
// EstimateBatch to answer anyway: they find the serving model through the
// serving record alone.
func TestEstimateTakesNoStateLock(t *testing.T) {
	reg := quietRegistry(t, Config{})
	st, err := reg.state("people")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	st.mu.Lock()
	go func() {
		if _, err := reg.Estimate("people", "age >= 30"); err != nil {
			done <- err
			return
		}
		_, err := reg.EstimateBatch("people", walProbes())
		done <- err
	}()
	var blocked bool
	select {
	case err = <-done:
	case <-time.After(time.Second):
		blocked = true
	}
	st.mu.Unlock()
	if blocked {
		t.Fatal("Estimate/EstimateBatch blocked on the estimator's state lock")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// probeEstimates answers walProbes from the registry's serving model.
func probeEstimates(t *testing.T, reg *Registry) []float64 {
	t.Helper()
	got, err := reg.EstimateBatch("people", walProbes())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestVersionStoreHoldsOnlyArchivedPayloads drives an estimator through two
// promotions and a rollback and checks the payload rule: the serving
// version has no serialized copy anywhere — in memory or in the snapshot
// file — while every archived version carries one that restores the model
// it archived, bit-identically.
func TestVersionStoreHoldsOnlyArchivedPayloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	reg := quietRegistry(t, Config{SnapshotPath: path})
	stream := walObservations(60, 7)
	served := map[int][]float64{} // version id → its estimates while serving
	for _, chunk := range [][]Observation{stream[:30], stream[30:]} {
		if _, _, err := reg.ObserveBatch("people", chunk); err != nil {
			t.Fatal(err)
		}
		if err := reg.Train("people"); err != nil {
			t.Fatal(err)
		}
		vi, err := reg.Versions("people")
		if err != nil {
			t.Fatal(err)
		}
		served[vi.Current.ID] = probeEstimates(t, reg)
	}
	if _, err := reg.Rollback("people", 0); err != nil {
		t.Fatal(err)
	}
	// Rolling back to the serving version is a no-op.
	if v, err := reg.Rollback("people", 2); err != nil || v.ID != 2 {
		t.Fatalf("rollback to the serving version = %+v, %v", v, err)
	}

	st, err := reg.state("people")
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	cur := st.serving.Load()
	state := st.store.State(cur.ver)
	st.mu.Unlock()
	if cur.ver.ID != 2 || cur.ver.Payload != nil {
		t.Fatalf("serving version = %d with %d payload bytes, want 2 with none", cur.ver.ID, len(cur.ver.Payload))
	}
	if len(state.History) != 2 || state.History[0].ID != 3 || state.History[1].ID != 1 {
		t.Fatalf("archive = %+v, want versions [3 1]", state.History)
	}
	for _, v := range state.History {
		if v.ID == cur.ver.ID {
			t.Fatalf("serving version %d is also archived", v.ID)
		}
		if len(v.Payload) == 0 {
			t.Fatalf("archived version %d has no payload", v.ID)
		}
		est, err := restoreModel(v.Payload)
		if err != nil {
			t.Fatalf("archived version %d does not restore: %v", v.ID, err)
		}
		want, ok := served[v.ID]
		if !ok {
			continue // version 1, the untrained initial model
		}
		got, err := est.EstimateBatchWhere(walProbes())
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("archived version %d probe %d = %v, served %v", v.ID, i, got[i], want[i])
			}
		}
	}
	got, want := probeEstimates(t, reg), served[2]
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rolled-back version 2 serves %v, served %v before", got, want)
		}
	}

	// The snapshot file stores the serving model once, as the estimator
	// envelope, and a payload for every archived version.
	if err := reg.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file snapshotFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	vs := file.Lifecycles["people"].Versions
	if vs.Current.ID != 2 || vs.Current.Payload != nil {
		t.Fatalf("persisted current = %d with %d payload bytes, want 2 with none", vs.Current.ID, len(vs.Current.Payload))
	}
	for _, v := range vs.History {
		if len(v.Payload) == 0 {
			t.Fatalf("persisted archived version %d has no payload", v.ID)
		}
	}
}

// TestRequeueKeepsAcknowledgedRecords is the failed-run path with a buffer
// that refilled during the run: requeueing the failed batch must keep every
// acknowledged record, in order, without counting a drop, and the
// over-full backlog must refuse the next batch instead.
func TestRequeueKeepsAcknowledgedRecords(t *testing.T) {
	reg := quietRegistry(t, Config{BufferSize: 4})
	stream := walObservations(9, 3)
	if _, acc, err := reg.ObserveBatch("people", stream[:4]); err != nil || acc != 4 {
		t.Fatalf("first batch accepted %d, %v", acc, err)
	}
	st, err := reg.state("people")
	if err != nil {
		t.Fatal(err)
	}
	// A training run takes the buffer; the buffer refills while it runs.
	st.mu.Lock()
	batch := st.pending
	st.pending = nil
	st.mu.Unlock()
	if _, acc, err := reg.ObserveBatch("people", stream[4:8]); err != nil || acc != 4 {
		t.Fatalf("refill accepted %d, %v", acc, err)
	}
	st.mu.Lock()
	refill := append([]pendingObs(nil), st.pending...)
	st.mu.Unlock()

	reg.requeue(st, batch)

	st.mu.Lock()
	pending := append([]pendingObs(nil), st.pending...)
	dropped := st.droppedTotal
	st.mu.Unlock()
	want := append(append([]pendingObs(nil), batch...), refill...)
	if len(pending) != len(want) {
		t.Fatalf("backlog after requeue = %d records, want %d", len(pending), len(want))
	}
	for i := range want {
		if pending[i] != want[i] {
			t.Fatalf("backlog record %d = %+v, want %+v", i, pending[i], want[i])
		}
	}
	if dropped != 0 {
		t.Fatalf("requeue counted %d drops", dropped)
	}

	backlog, acc, err := reg.ObserveBatch("people", stream[8:])
	if err != nil || acc != 0 || backlog != 8 {
		t.Fatalf("observe on an over-full backlog: backlog %d accepted %d err %v, want 8, 0, nil", backlog, acc, err)
	}
	if err := reg.Train("people"); err != nil {
		t.Fatal(err)
	}
	info := reg.List()[0]
	if info.Backlog != 0 || info.Observed != 8 || info.Dropped != 1 {
		t.Fatalf("after train: backlog %d observed %d dropped %d, want 0, 8, 1", info.Backlog, info.Observed, info.Dropped)
	}
}
