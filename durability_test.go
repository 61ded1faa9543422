package quicksel_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"quicksel"
	"quicksel/internal/wal"
)

func jsonDecode(data []byte, v any) error { return json.Unmarshal(data, v) }

func walTestSchema(t *testing.T) *quicksel.Schema {
	t.Helper()
	s, err := quicksel.NewSchema(
		quicksel.Column{Name: "x", Kind: quicksel.Real, Min: 0, Max: 1},
		quicksel.Column{Name: "y", Kind: quicksel.Real, Min: 0, Max: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// feedWAL sends n deterministic, self-consistent (uniform-truth)
// observations.
func feedWAL(t *testing.T, e *quicksel.Estimator, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		lo := rng.Float64() * 0.7
		hi := lo + 0.3
		p := quicksel.And(quicksel.Range(0, lo, hi), quicksel.AtMost(1, rng.Float64()))
		sel := 0.3 * rng.Float64()
		if err := e.Observe(p, sel); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
}

func walTestProbes() []*quicksel.Predicate {
	return []*quicksel.Predicate{
		quicksel.Range(0, 0.2, 0.6),
		quicksel.And(quicksel.AtLeast(0, 0.5), quicksel.AtMost(1, 0.4)),
		quicksel.Or(quicksel.Range(0, 0, 0.1), quicksel.Range(1, 0.8, 1)),
	}
}

func compareEstimators(t *testing.T, got, want *quicksel.Estimator, label string) {
	t.Helper()
	if err := got.Train(); err != nil {
		t.Fatal(err)
	}
	if err := want.Train(); err != nil {
		t.Fatal(err)
	}
	for i, p := range walTestProbes() {
		g, err := got.Estimate(p)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Estimate(p)
		if err != nil {
			t.Fatal(err)
		}
		if g != w {
			t.Errorf("%s: probe %d estimate = %v, want %v (bit-identical)", label, i, g, w)
		}
	}
	ga, wa := got.Accuracy(), want.Accuracy()
	if ga.Samples != wa.Samples || ga.MAE != wa.MAE {
		t.Errorf("%s: accuracy = %+v, want %+v", label, ga, wa)
	}
}

// TestEstimatorWALRestart is the library-embedding durability path with no
// snapshot at all: New with the same WithWAL directory replays the full
// log and resumes bit-identically.
func TestEstimatorWALRestart(t *testing.T) {
	dir := t.TempDir()
	opts := []quicksel.Option{quicksel.WithSeed(3), quicksel.WithWAL(dir), quicksel.WithWALFsync(quicksel.WALFsyncAlways)}
	e, err := quicksel.New(walTestSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	feedWAL(t, e, 40, 7)
	if err := e.Close(); err != nil { // crash-equivalent: nothing snapshotted
		t.Fatal(err)
	}

	restarted, err := quicksel.New(walTestSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if restarted.NumObserved() == 0 {
		t.Fatal("restarted estimator replayed nothing")
	}

	control, err := quicksel.New(walTestSchema(t), quicksel.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	feedWAL(t, control, 40, 7)
	compareEstimators(t, restarted, control, "restart")
}

// TestEstimatorCheckpointRestore is the bounded-recovery path: a snapshot
// records the log position, compaction drops the covered segments, and
// Restore replays only the suffix.
func TestEstimatorCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	opts := []quicksel.Option{
		quicksel.WithSeed(3),
		quicksel.WithWAL(dir),
		quicksel.WithWALFsync(quicksel.WALFsyncAlways),
		quicksel.WithWALSegmentSize(512), // force rotations so compaction has segments to drop
	}
	e, err := quicksel.New(walTestSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	feedWAL(t, e, 30, 5)
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := e.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if st := e.WALStats(); st.CompactedSegments == 0 {
		t.Errorf("checkpoint compacted nothing: %+v", st)
	}
	feedWAL(t, e, 20, 6) // the suffix only the log holds
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := quicksel.DecodeSnapshot(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_ = snap // DecodeSnapshot validates; recovery below goes through Restore to attach the log
	var decoded quicksel.Snapshot
	if err := jsonDecode(ckpt.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	recovered, err := quicksel.Restore(&decoded, quicksel.WithWAL(dir), quicksel.WithWALFsync(quicksel.WALFsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	control, err := quicksel.New(walTestSchema(t), quicksel.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	feedWAL(t, control, 30, 5)
	if err := control.Train(); err != nil {
		t.Fatal(err)
	}
	feedWAL(t, control, 20, 6)
	compareEstimators(t, recovered, control, "checkpoint+suffix")

	// A fresh New on the compacted directory must refuse: the prefix lives
	// only in the checkpoint now.
	if _, err := quicksel.New(walTestSchema(t), opts...); err == nil {
		t.Error("New on a checkpoint-compacted log directory must fail")
	}
}

// TestRestoreContinuesBitIdentical pins the property the whole recovery
// design leans on: a restored snapshot does not just estimate identically —
// it continues, absorbing further observations and retraining into exactly
// the state the original would have reached (the PRNG stream position is
// part of the snapshot).
func TestRestoreContinuesBitIdentical(t *testing.T) {
	a, err := quicksel.New(walTestSchema(t), quicksel.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	feedWAL(t, a, 30, 5)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	b, err := quicksel.Restore(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	feedWAL(t, a, 20, 6)
	feedWAL(t, b, 20, 6)
	compareEstimators(t, b, a, "restore-continue")
}

// TestEstimatorWALMismatchedSnapshot: restoring a snapshot against a log
// from a different history fails loudly instead of silently mixing states.
func TestEstimatorWALMismatchedSnapshot(t *testing.T) {
	dir := t.TempDir()
	e, err := quicksel.New(walTestSchema(t), quicksel.WithWAL(dir), quicksel.WithWALFsync(quicksel.WALFsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	feedWAL(t, e, 5, 1)
	var ckpt bytes.Buffer
	if err := e.EncodeSnapshot(&ckpt); err != nil {
		t.Fatal(err)
	}
	e.Close()

	var decoded quicksel.Snapshot
	if err := jsonDecode(ckpt.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	// Claim a log position far past the log's actual tail.
	decoded.WalSeq = 1000
	if _, err := quicksel.Restore(&decoded, quicksel.WithWAL(dir)); err == nil {
		t.Fatal("Restore accepted a snapshot from the future of its log")
	}
}

// TestEstimatorWALSurvivesTornTail: garbage after the last good record
// (a crashed append) is truncated and replay succeeds.
func TestEstimatorWALSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := []quicksel.Option{quicksel.WithSeed(3), quicksel.WithWAL(dir), quicksel.WithWALFsync(quicksel.WALFsyncAlways)}
	e, err := quicksel.New(walTestSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	feedWAL(t, e, 10, 2)
	e.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, "torn")
	f.Close()

	restarted, err := quicksel.New(walTestSchema(t), opts...)
	if err != nil {
		t.Fatalf("New after torn tail: %v", err)
	}
	defer restarted.Close()
	if restarted.NumObserved() == 0 {
		t.Fatal("nothing replayed after torn-tail truncation")
	}
}

// walPayloads reads back every record payload of one type in a log
// directory.
func walPayloads(t *testing.T, dir string, typ byte) [][]byte {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out [][]byte
	if err := l.Replay(1, func(rec wal.Record) error {
		if rec.Type == typ {
			out = append(out, append([]byte(nil), rec.Payload...))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEstimatorWALObservationGoldenBytes pins the on-disk payload of one
// observation record of the library log: 8-byte LE selectivity bits, then
// the predicate's binary encoding. A change here breaks every existing
// log directory.
func TestEstimatorWALObservationGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	e, err := quicksel.New(walTestSchema(t), quicksel.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	p := quicksel.And(quicksel.Range(0, 0.25, 0.75), quicksel.AtMost(1, 0.5))
	if err := e.Observe(p, 0.125); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got := walPayloads(t, dir, 1)
	const want = "000000000000c03f02020100000000000000d03f000000000000e83f0101000000000000f0ff000000000000e03f"
	if len(got) != 1 || hex.EncodeToString(got[0]) != want {
		t.Fatalf("observation payloads = %x, want one record %s", got, want)
	}
}
