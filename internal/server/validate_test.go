package server

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quicksel"
	"quicksel/internal/wal"
)

var invalidSelectivities = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.5}

// TestObserveRejectsInvalidSelectivity: the Go API rejects a batch holding
// an invalid selectivity whole — nothing buffered, nothing logged — and the
// next valid batch trains.
func TestObserveRejectsInvalidSelectivity(t *testing.T) {
	reg := newPrimary(t, nil)
	if err := reg.Create("people", walSchema(t)); err != nil {
		t.Fatal(err)
	}
	prior, err := reg.Estimate("people", "age >= 60")
	if err != nil {
		t.Fatal(err)
	}
	logged := reg.wal.LastSeq()
	for _, sel := range invalidSelectivities {
		_, _, err := reg.ObserveBatch("people", []Observation{{"age >= 30", 0.6}, {"age >= 60", sel}})
		if err == nil || !strings.Contains(err.Error(), "observation 1: selectivity must be in [0, 1]") {
			t.Fatalf("ObserveBatch(sel=%v) = %v, want a range error naming observation 1", sel, err)
		}
	}
	if _, _, _, err := reg.ObserveParsed("people", []ParsedObservation{{Pred: nil, Sel: 0.5}}); err == nil {
		t.Fatal("ObserveParsed accepted a record without a predicate")
	}
	info := reg.List()[0]
	if info.Backlog != 0 || info.Observed != 0 {
		t.Fatalf("rejected batches left backlog %d, observed %d", info.Backlog, info.Observed)
	}
	if got := reg.wal.LastSeq(); got != logged {
		t.Fatalf("rejected batches were logged: wal last seq %d -> %d", logged, got)
	}

	if _, n, err := reg.ObserveBatch("people", []Observation{{"age >= 60", 0.05}, {"age < 30", 0.5}}); err != nil || n != 2 {
		t.Fatalf("valid batch: accepted %d, err %v", n, err)
	}
	if err := reg.Train("people"); err != nil {
		t.Fatalf("Train after a rejected batch: %v", err)
	}
	info = reg.List()[0]
	if info.TrainErrors != 0 || info.Backlog != 0 {
		t.Fatalf("train errors %d, backlog %d after Train", info.TrainErrors, info.Backlog)
	}
	if got, _ := reg.Estimate("people", "age >= 60"); got == prior {
		t.Fatalf("estimate stayed at the prior %v after training", got)
	}
}

// TestReplayAndReplicateSkipInvalidObservation: invalid observe records in
// the log — written by an older build, or shipped by a primary — are
// skipped and counted on WAL replay and on follower replication, and the
// valid records around them still train.
func TestReplayAndReplicateSkipInvalidObservation(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		SnapshotPath:  filepath.Join(dir, "state.json"),
		WALDir:        filepath.Join(dir, "wal"),
		WALSync:       "always",
		TrainInterval: time.Hour,
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := walSchema(t)
	if err := reg.Create("people", schema); err != nil {
		t.Fatal(err)
	}
	valid := walObservations(6, 11)
	if _, _, err := reg.ObserveBatch("people", valid[:3]); err != nil {
		t.Fatal(err)
	}
	pred, err := quicksel.Parse(schema, "age >= 30")
	if err != nil {
		t.Fatal(err)
	}
	var bad []wal.Record
	for _, sel := range invalidSelectivities {
		bad = append(bad, wal.Record{Type: walRecObserve, Payload: appendObservePayload(nil, "people", pred, sel)})
	}
	if _, err := reg.wal.Append(bad...); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.ObserveBatch("people", valid[3:]); err != nil {
		t.Fatal(err)
	}
	shipped := shipAll(t, reg, 1)
	reg.closeAbrupt()

	recovered, err := NewRegistry(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	t.Cleanup(func() { recovered.closeAbrupt() })
	follower := newFollowerReg(t, nil)
	if err := follower.Replicate(shipped); err != nil {
		t.Fatalf("Replicate: %v", err)
	}
	if _, err := follower.Promote(); err != nil {
		t.Fatal(err)
	}

	for name, r := range map[string]*Registry{"replay": recovered, "replication": follower} {
		if got := r.walReplaySkipped.Load(); got != uint64(len(bad)) {
			t.Errorf("%s: skipped %d records, want %d", name, got, len(bad))
		}
		if got := r.List()[0].Backlog; got != len(valid) {
			t.Errorf("%s: backlog %d, want the %d valid records", name, got, len(valid))
		}
		if err := r.Train("people"); err != nil {
			t.Errorf("%s: Train: %v", name, err)
		}
		if info := r.List()[0]; info.TrainErrors != 0 || info.Backlog != 0 {
			t.Errorf("%s: train errors %d, backlog %d after Train", name, info.TrainErrors, info.Backlog)
		}
	}
}
