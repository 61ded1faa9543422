package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quicksel/internal/cluster"
	"quicksel/internal/obs"
	"quicksel/internal/replica"
	"quicksel/internal/server"
	"quicksel/internal/wal"
)

// newRealShard runs one shard as in-process quickseld servers: a WAL-backed
// primary and a follower tailing it through a real replica fetch loop, both
// behind httptest listeners. It returns their base URLs.
func newRealShard(t *testing.T) (primaryURL, followerURL string) {
	t.Helper()
	psrv, err := server.New(server.Config{
		WALDir:        filepath.Join(t.TempDir(), "wal"),
		TrainInterval: time.Hour,
		NodeID:        "s0-p",
		Logger:        obs.Discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(psrv)
	t.Cleanup(func() { pts.Close(); psrv.Close() })

	fsrv, err := server.New(server.Config{
		WALDir:        filepath.Join(t.TempDir(), "wal"),
		TrainInterval: time.Hour,
		Role:          server.RoleFollower,
		PrimaryURL:    pts.URL,
		NodeID:        "s0-f",
		Logger:        obs.Discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fsrv)
	reg := fsrv.Registry()
	f, err := replica.NewFetcher(replica.Config{
		PrimaryURL: pts.URL,
		FollowerID: "s0-f",
		Resume:     reg.ReplicationResume,
		Apply: func(recs []wal.Record, _ uint64) error {
			return reg.Replicate(recs)
		},
		PollWait: 50 * time.Millisecond,
		Logger:   obs.Discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.SetReplicationStatus(func() server.ReplicationStatus {
		st := f.Stats()
		return server.ReplicationStatus{Lag: st.Lag, CaughtUp: st.CaughtUp, Healthy: st.Healthy}
	})
	done := make(chan struct{})
	go func() { defer close(done); _ = f.Run(context.Background()) }()
	t.Cleanup(func() { f.Stop(); <-done; fts.Close(); fsrv.Close() })
	return pts.URL, fts.URL
}

// realShardRouter fronts newRealShard with a follower-reading router whose
// tracker polls health and telemetry, creates and trains one estimator
// through it, and waits until the follower holds the estimator and is a
// read target.
func realShardRouter(t *testing.T) (*Router, string) {
	t.Helper()
	primaryURL, followerURL := newRealShard(t)
	m, err := cluster.BuildMap([]cluster.Shard{{ID: "s0", Nodes: []cluster.Node{
		{ID: "s0-p", URL: primaryURL}, {ID: "s0-f", URL: followerURL},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := cluster.NewTracker(m, cluster.TrackerConfig{
		Interval:      20 * time.Millisecond,
		PollTelemetry: true,
		Logger:        obs.Discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tracker.Start()
	t.Cleanup(tracker.Stop)
	rt := newRouter(tracker, routerConfig{
		readFromFollowers: true,
		client:            &http.Client{Timeout: 5 * time.Second},
		log:               obs.Discard(),
		traceSample:       1.0,
		staleAfter:        time.Minute,
	})
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	waitReady(t, srv.URL)

	create := `{"name": "people", "schema": {"columns": [{"name": "age", "kind": "integer", "min": 18, "max": 90}]}, "options": {"seed": 42}}`
	if status, body, _ := doReq(t, "POST", srv.URL+"/v1/estimators", create, nil); status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	if status, body, _ := doReq(t, "POST", srv.URL+"/v1/people/observe", `{"where": "age >= 50", "selectivity": 0.4}`, nil); status != http.StatusAccepted {
		t.Fatalf("observe: status %d: %s", status, body)
	}
	if status, body, _ := doReq(t, "POST", srv.URL+"/v1/people/train", "{}", nil); status != http.StatusOK {
		t.Fatalf("train: status %d: %s", status, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, _ := doReq(t, "GET", followerURL+"/v1/people/versions", "", nil)
		if status == http.StatusOK && len(rt.tracker.ReadTargets("s0")) == 2 {
			return rt, srv.URL
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: versions status %d, read targets %v", status, rt.tracker.ReadTargets("s0"))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterFollowerBatchesOnRealFollower: with -read-from-followers, the
// per-estimator and the cluster batch endpoints are answered by a real
// follower on the first attempt — no 503, so no retry and no reroute.
func TestRouterFollowerBatchesOnRealFollower(t *testing.T) {
	rt, base := realShardRouter(t)
	retried, rerouted := rt.retried.Load(), rt.rerouted.Load()
	reads := rt.followerReads.Load()

	for i := 0; i < 6; i++ {
		status, body, _ := doReq(t, "POST", base+"/v1/people/estimate/batch", `{"wheres": ["age >= 30", "age < 40"]}`, nil)
		if status != http.StatusOK {
			t.Fatalf("per-estimator batch %d: status %d: %s", i, status, body)
		}
		status, body, _ = doReq(t, "POST", base+"/v1/estimate/batch",
			`{"queries": [{"estimator": "people", "where": "age >= 30"}, {"estimator": "people", "where": "age < 25"}]}`, nil)
		if status != http.StatusOK {
			t.Fatalf("cluster batch %d: status %d: %s", i, status, body)
		}
		var out struct {
			Selectivities []float64 `json:"selectivities"`
		}
		if err := json.Unmarshal(body, &out); err != nil || len(out.Selectivities) != 2 {
			t.Fatalf("cluster batch %d: body %s (%v)", i, body, err)
		}
	}
	if got := rt.retried.Load(); got != retried {
		t.Errorf("quickselrouter_retried_total moved %d -> %d: a follower refused a batch read", retried, got)
	}
	if got := rt.rerouted.Load(); got != rerouted {
		t.Errorf("quickselrouter_rerouted_total moved %d -> %d", rerouted, got)
	}
	if rt.followerReads.Load() == reads {
		t.Error("no batch was answered by the follower")
	}
}

// TestRouterPinsLifecycleReadsToPrimary: with -read-from-followers and a
// caught-up follower in rotation, versions and accuracy still go to the
// primary, which alone trains.
func TestRouterPinsLifecycleReadsToPrimary(t *testing.T) {
	rt, base := realShardRouter(t)
	reads := rt.followerReads.Load()
	for i := 0; i < 6; i++ {
		for _, path := range []string{"/v1/people/versions", "/v1/people/accuracy"} {
			if status, body, _ := doReq(t, "GET", base+path, "", nil); status != http.StatusOK {
				t.Fatalf("%s %d: status %d: %s", path, i, status, body)
			}
		}
	}
	if got := rt.followerReads.Load(); got != reads {
		t.Errorf("quickselrouter_follower_reads_total moved %d -> %d: a lifecycle read reached the follower", reads, got)
	}
}

// TestRouterFederatesRequestsByRoute: the daemons' labeled request family
// federates into quickselcluster_requests_total with the route label kept
// and shard and role added, and the router's /metrics stays valid.
func TestRouterFederatesRequestsByRoute(t *testing.T) {
	_, base := realShardRouter(t)
	want := []string{
		`quickselcluster_requests_total{role="primary",route="create",shard="s0"} 1`,
		`quickselcluster_requests_total{role="primary",route="observe",shard="s0"} 1`,
		`quickselcluster_requests_total{role="primary",route="train",shard="s0"} 1`,
		`quickselcluster_requests_total{role="follower",route="telemetry",shard="s0"}`,
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body, _ := doReq(t, "GET", base+"/metrics", "", nil)
		text := string(body)
		missing := ""
		for _, w := range want {
			if !strings.Contains(text, w) {
				missing = w
				break
			}
		}
		if missing == "" {
			if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
				t.Fatalf("router /metrics exposition invalid: %v", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("router /metrics never showed %s:\n%s", missing, filterLines(text, "quickselcluster_requests_total"))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func filterLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestRouterServesRouteTable: every client route of quickseld's route table
// is registered on the router under its own pattern.
func TestRouterServesRouteTable(t *testing.T) {
	rt, _ := testRouter(t, map[string][]*fakeShard{"s0": {newFakeShard(t, "primary")}}, false, false)
	for _, route := range server.Routes() {
		if route.Kind == server.RouteOperational && route.Label != "metrics" {
			continue
		}
		method, path, _ := strings.Cut(route.Pattern, " ")
		path = strings.ReplaceAll(path, "{name}", "people")
		req := httptest.NewRequest(method, path, nil)
		if _, pattern := rt.mux.Handler(req); pattern != route.Pattern {
			t.Errorf("router serves %s %s under %q, want %q", method, path, pattern, route.Pattern)
		}
	}
}
