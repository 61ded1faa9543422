package lifecycle

import (
	"encoding/json"
	"math"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyAlways, true},
		{"always", PolicyAlways, true},
		{"never", PolicyNever, true},
		{"shadow", PolicyShadow, true},
		{"sometimes", "", false},
	} {
		got, err := ParsePolicy(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParsePolicy(%q) succeeded, want error", tc.in)
		}
	}
}

func TestQError(t *testing.T) {
	if got := QError(0.2, 0.1); got != 2 {
		t.Errorf("QError(0.2, 0.1) = %v, want 2", got)
	}
	if got := QError(0.1, 0.2); got != 2 {
		t.Errorf("QError(0.1, 0.2) = %v, want 2", got)
	}
	// Zero actuals are floored, not infinite.
	if got := QError(0.5, 0); math.IsInf(got, 1) || got <= 1 {
		t.Errorf("QError(0.5, 0) = %v, want finite > 1", got)
	}
	if got := QError(0, 0); got != 1 {
		t.Errorf("QError(0, 0) = %v, want 1", got)
	}
}

// TestTrackerWindow checks the ring keeps the newest Window samples in
// order.
func TestTrackerWindow(t *testing.T) {
	tr := NewTracker(Config{Window: 4, DriftThreshold: math.Inf(1)})
	for i := 0; i < 10; i++ {
		tr.Add(float64(i)/100, float64(i)/100)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	samples := tr.Samples()
	for i, s := range samples {
		want := float64(6+i) / 100
		if s.Estimate != want {
			t.Errorf("sample %d estimate = %v, want %v", i, s.Estimate, want)
		}
	}
	rep := tr.Report()
	if rep.Samples != 4 || rep.MAE != 0 || rep.MeanQError != 1 {
		t.Errorf("report = %+v, want 4 perfect samples", rep)
	}
}

// TestTrackerDriftDetection checks the Page–Hinkley alarm: a run of accurate
// estimates followed by a persistent error jump must trip the detector, and
// accurate estimates alone must not.
func TestTrackerDriftDetection(t *testing.T) {
	cfg := Config{Window: 64, DriftThreshold: 0.2, DriftDelta: 0.005}
	tr := NewTracker(cfg)
	for i := 0; i < 50; i++ {
		if tr.Add(0.30, 0.31) {
			t.Fatalf("drift alarm on accurate sample %d", i)
		}
	}
	fired := -1
	for i := 0; i < 50; i++ {
		if tr.Add(0.30, 0.75) { // persistent 0.45 error
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("drift never detected under a persistent error jump")
	}
	if !tr.Drifted() {
		t.Fatal("alarm not latched")
	}
	if tr.Report().DriftEvents != 1 {
		t.Fatalf("drift events = %d, want 1", tr.Report().DriftEvents)
	}
	// Alarm stays latched (no double counting) until acknowledged.
	tr.Add(0.30, 0.75)
	if tr.Report().DriftEvents != 1 {
		t.Fatal("latched alarm re-counted")
	}
	tr.ResetDrift()
	if tr.Drifted() {
		t.Fatal("ResetDrift did not clear the alarm")
	}
	if tr.Report().DriftEvents != 1 {
		t.Fatal("ResetDrift erased the event count")
	}
}

// TestTrackerDisabled checks negative and +Inf thresholds disable detection
// entirely.
func TestTrackerDisabled(t *testing.T) {
	for _, lambda := range []float64{-1, math.Inf(1)} {
		tr := NewTracker(Config{Window: 16, DriftThreshold: lambda})
		for i := 0; i < 100; i++ {
			if tr.Add(0, 1) {
				t.Fatalf("disabled detector (λ=%v) alarmed", lambda)
			}
		}
	}
}

// TestTrackerStateRoundTrip checks persistence resumes tracking with
// identical statistics.
func TestTrackerStateRoundTrip(t *testing.T) {
	cfg := Config{Window: 8, DriftThreshold: 0.3}
	tr := NewTracker(cfg)
	for i := 0; i < 20; i++ {
		tr.Add(float64(i%5)/10, float64((i+1)%5)/10)
	}
	data, err := json.Marshal(tr.State())
	if err != nil {
		t.Fatal(err)
	}
	var st TrackerState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored := RestoreTracker(cfg, &st)
	if got, want := restored.Report(), tr.Report(); got != want {
		t.Fatalf("restored report %+v != original %+v", got, want)
	}
	if got, want := restored.Samples(), tr.Samples(); len(got) != len(want) {
		t.Fatalf("restored %d samples, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sample %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

func payload(s string) json.RawMessage { return json.RawMessage(`"` + s + `"`) }

// promote mints a trained version, archives the outgoing champion with its
// payload, and returns the new champion — the registry's promotion step.
func promote(s *Store, outgoing Version, outgoingPayload string) Version {
	v := s.Mint(OriginTrained, 10, Metrics{}, nil)
	outgoing.Payload = payload(outgoingPayload)
	s.Archive(outgoing)
	return v
}

// TestStorePromoteRollback walks the version store through the champion /
// challenger / rollback protocol.
func TestStorePromoteRollback(t *testing.T) {
	s := NewStore(3)
	cur := s.Mint(OriginInitial, 0, Metrics{}, nil)
	if cur.ID != 1 || cur.Origin != OriginInitial || cur.Payload != nil {
		t.Fatalf("initial = %+v, want id 1 origin initial, no payload", cur)
	}

	// Promote v2: v1 archived with its payload.
	cur = promote(s, cur, "v1")
	if cur.ID != 2 {
		t.Fatalf("current id = %d, want 2", cur.ID)
	}
	if h := s.History(); len(h) != 1 || h[0].ID != 1 {
		t.Fatalf("history = %+v, want [v1]", h)
	}

	// Reject v3: archived directly, current unchanged.
	rej := s.Mint(OriginRejected, 20, Metrics{}, &ShadowResult{Promote: false})
	rej.Payload = payload("v3")
	s.Archive(rej)
	if h := s.History(); len(h) != 2 || h[0].ID != 3 || h[1].ID != 1 {
		t.Fatalf("history = %+v, want [v3 v1]", h)
	}

	// Listings carry no payloads.
	for _, v := range s.History() {
		if v.Payload != nil {
			t.Fatalf("listing leaked payload for version %d", v.ID)
		}
	}

	// Default rollback: most recently archived (v3 — manual promotion of a
	// rejected challenger); the outgoing v2 is archived with its payload.
	if p, err := s.Peek(0); err != nil || p.ID != 3 {
		t.Fatalf("peek(0) = %+v, %v, want v3", p, err)
	}
	out := cur
	out.Payload = payload("v2")
	v, err := s.Rollback(0, out)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 3 || string(v.Payload) != `"v3"` {
		t.Fatalf("rollback chose %+v, want v3 with payload", v)
	}
	if h := s.History(); len(h) != 2 || h[0].ID != 2 || h[1].ID != 1 {
		t.Fatalf("history after rollback = %+v, want [v2 v1]", h)
	}
	cur = v.Meta()

	// Explicit rollback to v1.
	out = cur
	out.Payload = payload("v3")
	v, err = s.Rollback(1, out)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 1 || string(v.Payload) != `"v1"` {
		t.Fatalf("rollback chose %+v, want v1", v)
	}
	if h := s.History(); len(h) != 2 || h[0].ID != 3 || h[1].ID != 2 {
		t.Fatalf("history after rollback = %+v, want [v3 v2]", h)
	}

	// Unknown versions cannot be peeked or rolled back to, and a failed
	// rollback archives nothing.
	if _, err := s.Peek(99); err == nil {
		t.Fatal("peek of unknown version succeeded")
	}
	if _, err := s.Rollback(99, out); err == nil {
		t.Fatal("rollback to unknown version succeeded")
	}
	if h := s.History(); len(h) != 2 {
		t.Fatalf("failed rollback changed history to %+v", h)
	}
}

// TestStoreBound checks eviction: the oldest archived versions fall off.
func TestStoreBound(t *testing.T) {
	s := NewStore(2)
	cur := s.Mint(OriginInitial, 0, Metrics{}, nil)
	for i := 0; i < 5; i++ {
		cur = promote(s, cur, "x")
	}
	h := s.History()
	if len(h) != 2 {
		t.Fatalf("history length = %d, want 2", len(h))
	}
	if h[0].ID != 5 || h[1].ID != 4 {
		t.Fatalf("history = [%d %d], want [5 4]", h[0].ID, h[1].ID)
	}
	if _, err := s.Rollback(1, cur); err == nil {
		t.Fatal("rollback to evicted version succeeded")
	}
}

// TestStoreStateRoundTrip checks persistence: the archive keeps its
// payloads, the serving version is recorded as metadata only, and version
// numbering continues past every restored ID.
func TestStoreStateRoundTrip(t *testing.T) {
	s := NewStore(3)
	s.Mint(OriginInitial, 0, Metrics{}, nil)
	cur := s.Mint(OriginTrained, 7, Metrics{MAE: 0.1, Samples: 7}, nil)
	v1 := Version{ID: 1, Origin: OriginInitial, Payload: payload("v1")}
	s.Archive(v1)

	cur.Payload = payload("stray") // a payload on the serving version is never persisted
	data, err := json.Marshal(s.State(cur))
	if err != nil {
		t.Fatal(err)
	}
	var st StoreState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Current.Payload != nil {
		t.Fatalf("persisted serving version carries a payload: %s", st.Current.Payload)
	}
	r, rcur := RestoreStore(3, &st)
	if rcur.ID != 2 || rcur.Observations != 7 || rcur.Payload != nil {
		t.Fatalf("restored current = %+v", rcur)
	}
	// Rollback still works and next IDs continue from the restored maximum.
	v, err := r.Rollback(0, rcur)
	if err != nil || v.ID != 1 || string(v.Payload) != `"v1"` {
		t.Fatalf("rollback after restore = %+v, %v", v, err)
	}
	if nv := r.Mint(OriginTrained, 9, Metrics{}, nil); nv.ID != 3 {
		t.Fatalf("next id after restore = %d, want 3", nv.ID)
	}
	if r, cur := RestoreStore(3, nil); cur.ID != 0 || r.Mint(OriginInitial, 0, Metrics{}, nil).ID != 1 {
		t.Fatalf("restore of nil state = %+v", cur)
	}
}

// TestShadowGate checks the scoring rule and the tie-goes-to-challenger
// convention.
func TestShadowGate(t *testing.T) {
	actuals := []float64{0.2, 0.4, 0.1}
	good := []float64{0.21, 0.39, 0.11}
	bad := []float64{0.8, 0.9, 0.7}

	if res := Shadow(actuals, good, bad); res.Promote {
		t.Fatalf("bad challenger promoted over good champion: %+v", res)
	}
	if res := Shadow(actuals, bad, good); !res.Promote {
		t.Fatalf("good challenger rejected against bad champion: %+v", res)
	}
	if res := Shadow(actuals, good, good); !res.Promote {
		t.Fatalf("tie must promote the challenger: %+v", res)
	}
	if res := Shadow(nil, nil, nil); !res.Promote || res.Holdout != 0 {
		t.Fatalf("empty holdout must promote: %+v", res)
	}
}

func TestHoldoutSize(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {4, 1}, {8, 2}, {100, 25},
	} {
		if got := HoldoutSize(tc.n, 0.25); got != tc.want {
			t.Errorf("HoldoutSize(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// The holdout must always leave at least one training record.
	if got := HoldoutSize(2, 0.99); got != 1 {
		t.Errorf("HoldoutSize(2, 0.99) = %d, want 1", got)
	}
}

func TestConfigMergeDefaults(t *testing.T) {
	base := Config{Policy: PolicyShadow, Window: 128}
	merged := base.Merge(Config{DriftThreshold: 0.1})
	if merged.Policy != PolicyShadow || merged.Window != 128 || merged.DriftThreshold != 0.1 {
		t.Fatalf("merge = %+v", merged)
	}
	d := Config{}.WithDefaults()
	if d.Policy != PolicyAlways || d.Window != DefaultWindow || d.DriftThreshold != DefaultDriftThreshold ||
		d.History != DefaultHistory || d.ShadowFraction != DefaultShadowFraction {
		t.Fatalf("defaults = %+v", d)
	}
}
