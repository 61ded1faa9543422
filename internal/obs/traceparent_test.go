package obs

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	id := NewRequestID()
	v := FormatTraceParent(id, "abc.7", true)
	gotID, gotParent, sampled, ok := ParseTraceParent(v)
	if !ok || gotID != id || gotParent != "abc.7" || !sampled {
		t.Fatalf("ParseTraceParent(%q) = (%q, %q, %v, %v)", v, gotID, gotParent, sampled, ok)
	}
	v = FormatTraceParent(id, "", false)
	gotID, gotParent, sampled, ok = ParseTraceParent(v)
	if !ok || gotID != id || gotParent != "" || sampled {
		t.Fatalf("unsampled ParseTraceParent(%q) = (%q, %q, %v, %v)", v, gotID, gotParent, sampled, ok)
	}
}

func TestParseTraceParentRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"qs1",
		"qs1;;;s",                   // empty request id
		"qs2;abc;;s",                // wrong version
		"qs1;abc;;x",                // bad sample flag
		"qs1;abc;;s;extra",          // too many fields
		"qs1;bad id with spaces;;s", // invalid request id
		"qs1;" + strings.Repeat("a", MaxRequestIDLen+1) + ";;s",
	}
	for _, v := range bad {
		if _, _, _, ok := ParseTraceParent(v); ok {
			t.Errorf("ParseTraceParent(%q) accepted garbage", v)
		}
	}
}

func TestEncodeDecodeTraceHeader(t *testing.T) {
	sp := StartSpan("http", "POST /v1/e/observe")
	sp.SetNode("n1")
	sp.Stage("decode")
	sp.Stage("model")
	sp.SetStatus(200)
	tr := sp.End()

	v, ok := EncodeTraceHeader(tr)
	if !ok {
		t.Fatal("EncodeTraceHeader failed on a small trace")
	}
	back, ok := DecodeTraceHeader(v)
	if !ok {
		t.Fatalf("DecodeTraceHeader(%q) failed", v)
	}
	if back.ID != tr.ID || back.Node != "n1" || back.Status != 200 || len(back.Stages) != 2 {
		t.Fatalf("decoded trace diverged: %+v", back)
	}
}

// TestEncodeTraceHeaderDropsStagesWhenOversized: a trace with a huge detail
// or stage list must still fit the header budget by shedding stages, and
// children are never shipped (the receiver stitches, not the sender).
func TestEncodeTraceHeaderDropsStagesWhenOversized(t *testing.T) {
	sp := StartSpan("http", "GET /v1/x")
	for i := 0; i < 200; i++ {
		sp.Stage("stage-with-a-fairly-long-name-" + strings.Repeat("x", 20))
	}
	sp.AddChild(Trace{ID: "child", Kind: "http"})
	tr := sp.End()

	v, ok := EncodeTraceHeader(tr)
	if !ok {
		t.Fatal("EncodeTraceHeader gave up instead of dropping stages")
	}
	if len(v) > MaxTraceHeaderLen {
		t.Fatalf("encoded header is %d bytes, cap %d", len(v), MaxTraceHeaderLen)
	}
	back, ok := DecodeTraceHeader(v)
	if !ok {
		t.Fatal("DecodeTraceHeader failed")
	}
	if len(back.Stages) != 0 {
		t.Fatalf("oversized trace kept %d stages", len(back.Stages))
	}
	if len(back.Children) != 0 {
		t.Fatal("children must never travel in the echo header")
	}
	if back.ID != tr.ID {
		t.Fatalf("decoded ID %q, want %q", back.ID, tr.ID)
	}
}

func TestDecodeTraceHeaderRejects(t *testing.T) {
	if _, ok := DecodeTraceHeader(""); ok {
		t.Error("accepted empty header")
	}
	if _, ok := DecodeTraceHeader(strings.Repeat("x", MaxTraceHeaderLen+1)); ok {
		t.Error("accepted oversized header")
	}
	if _, ok := DecodeTraceHeader(`{"kind":"http"}`); ok {
		t.Error("accepted trace with no ID")
	}
	if _, ok := DecodeTraceHeader("not-json"); ok {
		t.Error("accepted non-JSON header")
	}
}

func TestSampleRequestIDDeterministicAndBounded(t *testing.T) {
	id := NewRequestID()
	first := SampleRequestID(id, 0.5)
	for i := 0; i < 10; i++ {
		if SampleRequestID(id, 0.5) != first {
			t.Fatal("SampleRequestID is not deterministic for a fixed id")
		}
	}
	if !SampleRequestID(id, 1.0) {
		t.Error("rate 1.0 must sample every request")
	}
	if SampleRequestID(id, 0) {
		t.Error("rate 0 must sample nothing")
	}
	if SampleRequestID(id, -1) {
		t.Error("negative rate must sample nothing")
	}
	if SampleRequestID(id, math.NaN()) {
		t.Error("NaN rate must sample nothing")
	}

	// The sampled fraction over sequential IDs should track the rate for
	// every boot prefix, not just on average: NewRequestID mints
	// "<bootID>-<n>", and a weak hash spreads such runs poorly. A fixed
	// prefix list keeps the check deterministic.
	const n = 20000
	for _, boot := range []string{
		"000000", "ffffff", "3f2a9c", "b7e151", "deadbe",
		"0a1b2c", "9e3779", "c0ffee", "123456", "8badf0",
	} {
		hits := 0
		for i := 1; i <= n; i++ {
			if SampleRequestID(fmt.Sprintf("%s-%d", boot, i), 0.3) {
				hits++
			}
		}
		frac := float64(hits) / n
		if frac < 0.25 || frac > 0.35 {
			t.Errorf("boot %s: sampled fraction %.3f far from rate 0.3", boot, frac)
		}
	}
}

func TestDominantStage(t *testing.T) {
	root := Trace{
		Stages: []Stage{{Name: "queue", Dur: time.Millisecond}, {Name: "proxy", Dur: 2 * time.Millisecond}},
		Children: []Trace{
			{
				Node:   "n1",
				Kind:   "http",
				Stages: []Stage{{Name: "decode", Dur: time.Millisecond}, {Name: "model", Dur: 10 * time.Millisecond}},
			},
		},
	}
	label, dur := DominantStage(root)
	if label != "n1:model" || dur != 10*time.Millisecond {
		t.Fatalf("DominantStage = (%q, %s), want (n1:model, 10ms)", label, dur)
	}

	// Without a node name the child's kind prefixes the label.
	root.Children[0].Node = ""
	label, _ = DominantStage(root)
	if label != "http:model" {
		t.Fatalf("DominantStage = %q, want http:model", label)
	}

	// Root stage dominates when larger than any child stage.
	root.Stages[1].Dur = 20 * time.Millisecond
	label, dur = DominantStage(root)
	if label != "proxy" || dur != 20*time.Millisecond {
		t.Fatalf("DominantStage = (%q, %s), want (proxy, 20ms)", label, dur)
	}
}

func TestSpanParentNodeChildren(t *testing.T) {
	sp := StartSpan("router", "GET /v1/e/estimate")
	if sp.SpanID() == "" {
		t.Fatal("span has no span id")
	}
	sp.SetParent("p.1")
	sp.SetNode("router-1")
	sp.AddChild(Trace{ID: sp.ID(), Node: "n1", Kind: "http"})
	tr := sp.End()
	if tr.Parent != "p.1" || tr.Node != "router-1" || len(tr.Children) != 1 {
		t.Fatalf("trace = %+v", tr)
	}

	// All span mutators must be nil-safe: a sampled-out request carries a
	// nil span through the same code path.
	var nilSp *Span
	if nilSp.SpanID() != "" || nilSp.ID() != "" {
		t.Fatal("nil span ids must be empty")
	}
	nilSp.SetParent("x")
	nilSp.SetNode("x")
	nilSp.AddChild(Trace{})
	nilSp.Stage("x")
	nilSp.SetStatus(200)
	nilSp.SetDetail("x")
	nilSp.End()
}

func TestWriteRuntimeMetrics(t *testing.T) {
	var b strings.Builder
	WriteRuntimeMetrics(&b, "testproc")
	out := b.String()
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("runtime metrics exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"testproc_build_info{",
		`go_version="`,
		"testproc_goroutines ",
		"testproc_heap_bytes ",
		"testproc_gc_pause_p99_seconds ",
		"testproc_uptime_seconds ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime metrics missing %q:\n%s", want, out)
		}
	}
}
