package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"quicksel/internal/obs"
)

// getTelemetry decodes GET /v1/telemetry.
func getTelemetry(t *testing.T, base string) obs.Telemetry {
	t.Helper()
	status, body := doJSON(t, "GET", base+"/v1/telemetry", "")
	mustStatus(t, http.StatusOK, status, body)
	var tel obs.Telemetry
	if err := json.Unmarshal(body, &tel); err != nil {
		t.Fatalf("decode telemetry %s: %v", body, err)
	}
	return tel
}

// TestTelemetryEndpoint drives real traffic and checks the /v1/telemetry
// snapshot: versioned, stamped with node identity and role, carrying the
// same families /metrics renders — including the q-error histogram the
// observe path records — in raw mergeable form.
func TestTelemetryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{NodeID: "node-under-test"})
	createPeople(t, ts.URL)

	status, body := doJSON(t, "POST", ts.URL+"/v1/people/observe", `{"observations": [
		{"where": "age BETWEEN 18 AND 29", "selectivity": 0.22},
		{"where": "salary >= 100000", "selectivity": 0.18}
	]}`)
	mustStatus(t, http.StatusAccepted, status, body)
	estimate(t, ts.URL, "people", "age BETWEEN 25 AND 44")

	tel := getTelemetry(t, ts.URL)
	if tel.Version != obs.TelemetryVersion {
		t.Fatalf("telemetry version = %d, want %d", tel.Version, obs.TelemetryVersion)
	}
	if tel.Node != "node-under-test" || tel.Role != RolePrimary {
		t.Fatalf("telemetry identity = (%q, %q)", tel.Node, tel.Role)
	}
	if tel.UptimeSeconds < 0 {
		t.Fatalf("uptime = %g", tel.UptimeSeconds)
	}

	fams := map[string]obs.Family{}
	for _, f := range tel.Families {
		fams[f.Name] = f
	}
	for _, name := range []string{
		"quickseld_requests_total",
		"quickseld_estimators",
		"quickseld_observe_duration_seconds",
		"quickseld_estimate_duration_seconds",
		"quickseld_qerror",
		"quickseld_ready",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("telemetry missing family %q", name)
		}
	}

	qerr := fams["quickseld_qerror"]
	if qerr.Type != "histogram" || qerr.Unit != "value" {
		t.Fatalf("qerror family type/unit = %q/%q, want histogram/value", qerr.Type, qerr.Unit)
	}
	var total uint64
	for _, hs := range qerr.Hist {
		if hs.Labels["estimator"] != "people" {
			t.Errorf("qerror series labels = %v", hs.Labels)
		}
		snap, ok := hs.Snapshot()
		if !ok {
			t.Fatal("qerror series has incompatible geometry")
		}
		total += snap.Total
	}
	if total != 2 {
		t.Fatalf("qerror samples = %d, want 2 (one per scored observation)", total)
	}

	// The snapshot must render to the exact families /metrics serves (the
	// two views are the same collect() pass, so they cannot drift).
	var b strings.Builder
	tel.WritePrometheus(&b)
	if err := obs.ValidateExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("telemetry exposition invalid: %v", err)
	}
	scraped := scrapeMetrics(t, ts.URL)
	if !strings.Contains(scraped, "# TYPE quickseld_qerror histogram") {
		t.Error("/metrics missing the qerror family")
	}
	if !strings.Contains(scraped, "quickseld_build_info{") {
		t.Error("/metrics missing build_info")
	}
	if !strings.Contains(scraped, "quickseld_goroutines ") {
		t.Error("/metrics missing runtime gauges")
	}
}

// TestTraceEchoTrailer: a request carrying an upstream traceparent must
// adopt the id, continue the trace as a child span, and echo the completed
// span back in the X-Quickseld-Trace trailer for the router to stitch.
func TestTraceEchoTrailer(t *testing.T) {
	_, ts := newTestServer(t, Config{NodeID: "n-echo"})
	createPeople(t, ts.URL)

	id := obs.NewRequestID()
	req, err := http.NewRequest("GET", ts.URL+"/v1/people/estimate?where=age+%3E+30", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.HeaderTraceParent, obs.FormatTraceParent(id, "router.7", true))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != id {
		t.Fatalf("X-Request-Id = %q, want adopted %q", got, id)
	}

	echo := resp.Trailer.Get(obs.HeaderTrace)
	if echo == "" {
		t.Fatal("no X-Quickseld-Trace trailer on a sampled upstream request")
	}
	tr, ok := obs.DecodeTraceHeader(echo)
	if !ok {
		t.Fatalf("undecodable trace echo %q", echo)
	}
	if tr.ID != id || tr.Parent != "router.7" || tr.Node != "n-echo" {
		t.Fatalf("echoed trace = id=%q parent=%q node=%q", tr.ID, tr.Parent, tr.Node)
	}
	if tr.Status != http.StatusOK {
		t.Fatalf("echoed status = %d", tr.Status)
	}
	var stages []string
	for _, st := range tr.Stages {
		stages = append(stages, st.Name)
	}
	joined := strings.Join(stages, ",")
	if !strings.Contains(joined, "model") {
		t.Fatalf("echoed stages %v missing the model stage", stages)
	}
}

// TestTraceSampling: a sampled-out request (locally via TraceSample<0, or
// via an upstream "n" flag) still carries a request id but records no span
// — the ring stays empty and no trace is echoed.
func TestTraceSampling(t *testing.T) {
	srv, ts := newTestServer(t, Config{TraceSample: -1})
	createPeople(t, ts.URL)
	estimate(t, ts.URL, "people", "age > 30")

	status, body := doJSON(t, "GET", ts.URL+"/debug/requests", "")
	mustStatus(t, http.StatusOK, status, body)
	var dbg struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	for _, tr := range dbg.Traces {
		if tr.Kind == "http" {
			t.Fatalf("sampled-out request recorded a trace: %+v", tr)
		}
	}

	// The id still propagates for log correlation.
	resp, err := http.Get(ts.URL + "/v1/people/estimate?where=age+%3E+30")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("sampled-out request lost its X-Request-Id")
	}
	_ = srv

	// Upstream "n" flag wins over a local sample-everything config.
	srv2, ts2 := newTestServer(t, Config{TraceSample: 1})
	createPeople(t, ts2.URL)
	id := obs.NewRequestID()
	req, err := http.NewRequest("GET", ts2.URL+"/v1/people/estimate?where=age+%3E+30", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.HeaderTraceParent, obs.FormatTraceParent(id, "router.1", false))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Trailer.Get(obs.HeaderTrace) != "" {
		t.Fatal("upstream-unsampled request echoed a trace")
	}
	if got := resp2.Header.Get("X-Request-Id"); got != id {
		t.Fatalf("X-Request-Id = %q, want %q", got, id)
	}
	status, body = doJSON(t, "GET", ts2.URL+"/debug/requests", "")
	mustStatus(t, http.StatusOK, status, body)
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	for _, tr := range dbg.Traces {
		if tr.ID == id {
			t.Fatalf("upstream-unsampled request recorded a trace: %+v", tr)
		}
	}
	_ = srv2
}

// TestEstimatorInfoQErrorQuantiles: the per-estimator listing surfaces the
// realized q-error quantiles from the same histogram telemetry exports.
func TestEstimatorInfoQErrorQuantiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createPeople(t, ts.URL)
	status, body := doJSON(t, "POST", ts.URL+"/v1/people/observe", `{"observations": [
		{"where": "age BETWEEN 18 AND 29", "selectivity": 0.22}
	]}`)
	mustStatus(t, http.StatusAccepted, status, body)

	status, body = doJSON(t, "GET", ts.URL+"/v1/estimators", "")
	mustStatus(t, http.StatusOK, status, body)
	var list struct {
		Estimators []struct {
			Name      string  `json:"name"`
			QErrorP50 float64 `json:"qerror_p50"`
			QErrorP99 float64 `json:"qerror_p99"`
		} `json:"estimators"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("decode list %s: %v", body, err)
	}
	if len(list.Estimators) != 1 {
		t.Fatalf("estimators = %d", len(list.Estimators))
	}
	e := list.Estimators[0]
	// One scored sample exists, so the quantiles must be ≥ 1 (q-error is
	// bounded below by 1) and the p99 at least the p50.
	if e.QErrorP50 < 1 || e.QErrorP99 < e.QErrorP50 {
		t.Fatalf("qerror quantiles p50=%g p99=%g", e.QErrorP50, e.QErrorP99)
	}
}
