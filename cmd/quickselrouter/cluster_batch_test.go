package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"quicksel/internal/cluster"
	"quicksel/internal/obs"
	"quicksel/internal/server"
)

// twoShardCluster runs two in-process quickseld primaries behind a router
// and creates and trains n estimators through it. It returns the router,
// its URL, the shard URLs by shard ID, and the estimator names.
func twoShardCluster(t *testing.T, n int) (*Router, string, map[string]string, []string) {
	t.Helper()
	urls := map[string]string{}
	var specs []cluster.Shard
	for _, id := range []string{"s0", "s1"} {
		srv, err := server.New(server.Config{TrainInterval: time.Hour, NodeID: id, Logger: obs.Discard()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls[id] = ts.URL
		specs = append(specs, cluster.Shard{ID: id, Nodes: []cluster.Node{{URL: ts.URL}}})
	}
	m, err := cluster.BuildMap(specs)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := cluster.NewTracker(m, cluster.TrackerConfig{Logger: obs.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	client := newProxyClient(5 * time.Second)
	t.Cleanup(client.CloseIdleConnections)
	rt := newRouter(tracker, routerConfig{client: client, log: obs.Discard(), traceSample: 1.0})
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("est%02d", i)
		create := fmt.Sprintf(`{"name": %q, "schema": {"columns": [`+
			`{"name": "a", "kind": "real", "min": 0, "max": 100}, `+
			`{"name": "b", "kind": "integer", "min": 0, "max": 50}]}, "options": {"seed": %d}}`, names[i], i)
		mustDo(t, "POST", front.URL+"/v1/estimators", create, http.StatusCreated)
		obsBody := fmt.Sprintf(`{"observations": [{"where": "a < %d", "selectivity": 0.%d}, {"where": "b >= 20", "selectivity": 0.5}]}`, 10+5*i, 1+i%8)
		mustDo(t, "POST", front.URL+"/v1/"+names[i]+"/observe", obsBody, http.StatusAccepted)
		mustDo(t, "POST", front.URL+"/v1/"+names[i]+"/train", "{}", http.StatusOK)
	}
	return rt, front.URL, urls, names
}

func mustDo(t *testing.T, method, url, body string, want int) []byte {
	t.Helper()
	status, b, _ := doReq(t, method, url, body, nil)
	if status != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, status, want, b)
	}
	return b
}

// routeCount scrapes a shard's quickseld_requests_total for one route.
func routeCount(t *testing.T, shardURL, route string) int {
	t.Helper()
	body := mustDo(t, "GET", shardURL+"/metrics", "", http.StatusOK)
	re := regexp.MustCompile(`(?m)^quickseld_requests_total\{route="` + route + `"\} (\d+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("%s/metrics has no %s series", shardURL, route)
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

// TestClusterBatchOnRealShards: a cluster batch through the router, served
// by real quickseld shards, answers every query bit-identically to the
// owning estimator's own batch, and costs each touched shard exactly one
// estimate_multi request and no per-estimator batch.
func TestClusterBatchOnRealShards(t *testing.T) {
	_, front, shards, names := twoShardCluster(t, 16)

	// Where each estimator lives, by the shards' own lists.
	home := map[string]string{}
	for id, u := range shards {
		var list struct {
			Estimators []struct {
				Name string `json:"name"`
			} `json:"estimators"`
		}
		if err := json.Unmarshal(mustDo(t, "GET", u+"/v1/estimators", "", http.StatusOK), &list); err != nil {
			t.Fatal(err)
		}
		for _, e := range list.Estimators {
			home[e.Name] = id
		}
	}
	if len(home) != len(names) {
		t.Fatalf("shards hold %d of %d estimators", len(home), len(names))
	}

	rng := rand.New(rand.NewSource(7))
	for batch := range 6 {
		queries := make([]server.EstimateQuery, 32)
		touched := map[string]bool{}
		for i := range queries {
			// Batch 0 stays on one estimator, so one shard is left untouched.
			est := names[0]
			if batch > 0 {
				est = names[rng.Intn(len(names))]
			}
			queries[i] = server.EstimateQuery{Estimator: est,
				Where: fmt.Sprintf("a >= %d AND b < %d", rng.Intn(90), 1+rng.Intn(50))}
			touched[home[est]] = true
		}
		before := map[string][2]int{}
		for id, u := range shards {
			before[id] = [2]int{routeCount(t, u, "estimate_multi"), routeCount(t, u, "estimate_batch")}
		}
		body, _ := json.Marshal(server.MultiEstimateRequest{Queries: queries})
		var out struct {
			Selectivities []float64 `json:"selectivities"`
		}
		if err := json.Unmarshal(mustDo(t, "POST", front+"/v1/estimate/batch", string(body), http.StatusOK), &out); err != nil {
			t.Fatal(err)
		}
		for id, u := range shards {
			multi, perEst := routeCount(t, u, "estimate_multi"), routeCount(t, u, "estimate_batch")
			want := before[id][0]
			if touched[id] {
				want++
			}
			if multi != want || perEst != before[id][1] {
				t.Fatalf("batch %d, shard %s: estimate_multi %d -> %d (want %d), estimate_batch %d -> %d",
					batch, id, before[id][0], multi, want, before[id][1], perEst)
			}
		}

		// Each estimator's own batch on its shard, queries in input order.
		wheres := map[string][]string{}
		for _, q := range queries {
			wheres[q.Estimator] = append(wheres[q.Estimator], q.Where)
		}
		own := map[string][]float64{}
		for est, ws := range wheres {
			b, _ := json.Marshal(map[string][]string{"wheres": ws})
			var sel struct {
				Selectivities []float64 `json:"selectivities"`
			}
			if err := json.Unmarshal(mustDo(t, "POST", shards[home[est]]+"/v1/"+est+"/estimate/batch", string(b), http.StatusOK), &sel); err != nil {
				t.Fatal(err)
			}
			own[est] = sel.Selectivities
		}
		if len(out.Selectivities) != len(queries) {
			t.Fatalf("batch %d: %d selectivities for %d queries", batch, len(out.Selectivities), len(queries))
		}
		for i, q := range queries {
			want := own[q.Estimator][0]
			own[q.Estimator] = own[q.Estimator][1:]
			if math.Float64bits(out.Selectivities[i]) != math.Float64bits(want) {
				t.Fatalf("batch %d query %d (%s: %s) = %v, own batch %v", batch, i, q.Estimator, q.Where, out.Selectivities[i], want)
			}
		}
	}
}

// TestClusterBatchPassesShard4xx: a shard's 400 (unparsable clause) and 404
// (unknown estimator) reach the client unchanged and are not counted as
// router errors.
func TestClusterBatchPassesShard4xx(t *testing.T) {
	rt, front, _, names := twoShardCluster(t, 4)
	for _, tc := range []struct {
		name  string
		bad   server.EstimateQuery
		want  int
		error string
	}{
		{"bad clause", server.EstimateQuery{Estimator: names[1], Where: "no_such_column = 1"}, http.StatusBadRequest, names[1]},
		{"unknown estimator", server.EstimateQuery{Estimator: "nobody", Where: "a < 5"}, http.StatusNotFound, `unknown estimator \"nobody\"`},
	} {
		queries := []server.EstimateQuery{{Estimator: names[0], Where: "a < 5"}, tc.bad, {Estimator: names[2], Where: "b >= 3"}}
		body, _ := json.Marshal(server.MultiEstimateRequest{Queries: queries})
		status, resp, _ := doReq(t, "POST", front+"/v1/estimate/batch", string(body), nil)
		if status != tc.want || !strings.Contains(string(resp), tc.error) {
			t.Errorf("%s: status %d, body %s; want %d naming %s", tc.name, status, resp, tc.want, tc.error)
		}
	}
	if n := rt.reqErrors.Load(); n != 0 {
		t.Errorf("quickselrouter_request_errors_total = %d after shard 4xx answers, want 0", n)
	}
	for id, sm := range rt.shards {
		if n := sm.errors.Load(); n != 0 {
			t.Errorf("shard %s errors = %d after 4xx answers, want 0", id, n)
		}
	}
}
