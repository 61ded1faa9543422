package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"time"
)

// newClient returns an HTTP client that keeps at most conns connections
// per host: the load generator's whole connection budget.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

// call sends one request and reads the whole response body.
func call(c *http.Client, method, u string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// expect checks the status and decodes the body into out.
func expect(status, want int, body []byte, out any) error {
	if status != want {
		return fmt.Errorf("status %d (want %d): %.200s", status, want, body)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// checkSel rejects a selectivity that is not finite or not in [0, 1].
func checkSel(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
		return fmt.Errorf("selectivity %v outside [0, 1]", v)
	}
	return nil
}

// checkExact compares a served selectivity with the in-process registry's
// answer bit for bit.
func checkExact(got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("selectivity %v differs from the in-process registry's %v", got, want)
	}
	return nil
}

func estimateURL(base, name, where string) string {
	return base + "/v1/" + name + "/estimate?where=" + url.QueryEscape(where)
}

// getEstimate sends GET /v1/{name}/estimate and checks the answer.
func getEstimate(c *http.Client, u string) (float64, error) {
	status, body, err := call(c, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	var out struct {
		Selectivity *float64 `json:"selectivity"`
	}
	if err := expect(status, http.StatusOK, body, &out); err != nil {
		return 0, err
	}
	if out.Selectivity == nil {
		return 0, fmt.Errorf("response without selectivity: %.200s", body)
	}
	return *out.Selectivity, checkSel(*out.Selectivity)
}

// postBatch sends a batch estimate (per-estimator or cluster) and checks
// that n selectivities came back, each finite and in [0, 1].
func postBatch(c *http.Client, u string, body []byte, n int) ([]float64, error) {
	status, resp, err := call(c, http.MethodPost, u, body)
	if err != nil {
		return nil, err
	}
	var out struct {
		Selectivities []float64 `json:"selectivities"`
	}
	if err := expect(status, http.StatusOK, resp, &out); err != nil {
		return nil, err
	}
	if len(out.Selectivities) != n {
		return nil, fmt.Errorf("%d selectivities for %d clauses", len(out.Selectivities), n)
	}
	for _, v := range out.Selectivities {
		if err := checkSel(v); err != nil {
			return nil, err
		}
	}
	return out.Selectivities, nil
}

// batchBody encodes a per-estimator batch request.
func batchBody(wheres []string) []byte {
	b, _ := json.Marshal(map[string][]string{"wheres": wheres})
	return b
}

type clusterQuery struct {
	Estimator string `json:"estimator"`
	Where     string `json:"where"`
}

// clusterBody encodes a router multi-estimator batch request.
func clusterBody(qs []clusterQuery) []byte {
	b, _ := json.Marshal(map[string][]clusterQuery{"queries": qs})
	return b
}

// observeBody encodes an observe batch.
func observeBody(recs []obsRec) []byte {
	b, _ := json.Marshal(map[string][]obsRec{"observations": recs})
	return b
}

// postObserve sends an observe batch; every record must be accepted.
func postObserve(c *http.Client, u string, body []byte, n int) error {
	status, resp, err := call(c, http.MethodPost, u, body)
	if err != nil {
		return err
	}
	var out struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	if err := expect(status, http.StatusAccepted, resp, &out); err != nil {
		return err
	}
	if out.Accepted != n || out.Dropped != 0 {
		return fmt.Errorf("observe accepted %d, dropped %d of %d", out.Accepted, out.Dropped, n)
	}
	return nil
}

// getVersions reads GET /v1/{name}/versions: the serving version and the
// retained history.
func getVersions(c *http.Client, u string) ([]seenVersion, error) {
	status, body, err := call(c, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	type version struct {
		ID           int       `json:"id"`
		Origin       string    `json:"origin"`
		CreatedAt    time.Time `json:"created_at"`
		Observations uint64    `json:"observations"`
	}
	var out struct {
		Current version   `json:"current"`
		History []version `json:"history"`
	}
	if err := expect(status, http.StatusOK, body, &out); err != nil {
		return nil, err
	}
	var vs []seenVersion
	for _, v := range append(out.History, out.Current) {
		if v.Origin == "rejected" { // archived, never served
			continue
		}
		vs = append(vs, seenVersion{id: v.ID, observations: v.Observations, created: v.CreatedAt})
	}
	return vs, nil
}
