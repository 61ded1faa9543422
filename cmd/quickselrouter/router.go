package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quicksel/internal/cluster"
	"quicksel/internal/obs"
	"quicksel/internal/replica"
	"quicksel/internal/server"
)

// maxRetryAfter caps how long the router honors a shard's Retry-After
// before the single retry: a follower answering 503 suggests "1", but the
// promoted primary is usually reachable immediately, and parking client
// writes for whole seconds per attempt would collapse throughput during a
// failover instead of riding through it.
const maxRetryAfter = 200 * time.Millisecond

// proxyIdleConnsPerHost sizes the proxy client's idle-connection pool per
// shard node. An in-flight client request holds at most one connection per
// node (a cluster batch sends each shard one sub-batch), so the pool covers
// that many concurrent client requests without dialing; net/http's default
// of 2 made every concurrent request past the second dial, and then close,
// a fresh connection.
const proxyIdleConnsPerHost = 128

// newProxyClient returns the client the router proxies through: its own
// transport, so the proxy's connection pool is sized for the fan-out and
// not shared with the health tracker's polls, and timeout bounds each
// attempt.
func newProxyClient(timeout time.Duration) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no global cap: nodes × proxyIdleConnsPerHost bounds it
	tr.MaxIdleConnsPerHost = proxyIdleConnsPerHost
	return &http.Client{Timeout: timeout, Transport: tr}
}

// Router is the cluster front door: it owns the placement ring and health
// tracker, proxies the /v1 surface to the owning shard, and serves the
// cluster-level endpoints (/v1/cluster/status, /metrics, /readyz).
//
// Routing policy, by the kind quickseld's route table gives each route:
//
//   - Writes (create, drop, observe, train, rollback) go to the owning
//     shard's primary. A 503 answer carrying X-Quickseld-Primary re-aims
//     the tracker and is retried exactly once against the hinted address;
//     a transport error is likewise retried once after the tracker's view
//     refreshes. Beyond that the shard's answer is the client's answer.
//   - Reads (estimate, estimate/batch, versions, accuracy) go to the
//     primary by default; with -read-from-followers they round-robin
//     across the primary and every healthy follower within the staleness
//     bound. Followers do not train, so a follower-served read — versions
//     and accuracy included — describes that follower's serving model.
//   - List fans out to every shard and merges; snapshot fans out to every
//     primary; the multi-estimator batch sends each owning shard one
//     sub-batch under the read policy and merges by index.
type Router struct {
	tracker  *cluster.Tracker
	client   *http.Client
	mux      *http.ServeMux
	log      *slog.Logger
	draining atomic.Bool

	readFromFollowers bool

	// Root-span tracing: ring retains completed (stitched) request traces
	// for GET /debug/requests; sampleRate is the deterministic request-id
	// sampling fraction, propagated to shards on the traceparent header so
	// the whole cluster agrees per request.
	ring       *obs.Ring
	sampleRate float64

	// staleAfter bounds how old a node's federated telemetry snapshot may
	// be before its quickselcluster_telemetry_stale gauge flips to 1.
	staleAfter time.Duration

	// Per-shard serving metrics; the map is built at boot (the shard set is
	// static for the process lifetime) so lookups are lock-free.
	shards map[string]*shardMetrics

	reqTotal      atomic.Uint64
	reqErrors     atomic.Uint64
	retried       atomic.Uint64 // second attempts, any cause
	rerouted      atomic.Uint64 // retries that followed an X-Quickseld-Primary hint
	followerReads atomic.Uint64 // estimate requests answered by a follower
	rrSeq         atomic.Uint64 // read-target round-robin cursor
}

type shardMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	latency  obs.Histogram
}

// routerConfig carries newRouter's knobs (the tracker travels separately:
// it is the one collaborator every test swaps).
type routerConfig struct {
	readFromFollowers bool
	client            *http.Client
	log               *slog.Logger
	// traceSample is the traced fraction of /v1 requests, decided at the
	// router and propagated cluster-wide (<=0 none, >=1 all).
	traceSample float64
	// traceRingSize is the completed-trace ring capacity (0 = 256).
	traceRingSize int
	// slowRequest gates the slow-trace warn log (0 disables).
	slowRequest time.Duration
	// staleAfter is the federated-telemetry staleness bound (0 = 3s).
	staleAfter time.Duration
}

func newRouter(tracker *cluster.Tracker, cfg routerConfig) *Router {
	if cfg.traceRingSize <= 0 {
		cfg.traceRingSize = 256
	}
	if cfg.staleAfter <= 0 {
		cfg.staleAfter = 3 * time.Second
	}
	rt := &Router{
		tracker:           tracker,
		client:            cfg.client,
		log:               cfg.log,
		readFromFollowers: cfg.readFromFollowers,
		ring:              obs.NewRing(cfg.traceRingSize, cfg.slowRequest, cfg.log),
		sampleRate:        cfg.traceSample,
		staleAfter:        cfg.staleAfter,
		shards:            make(map[string]*shardMetrics),
		mux:               http.NewServeMux(),
	}
	for _, id := range tracker.Ring().Shards() {
		rt.shards[id] = &shardMetrics{}
	}
	m := rt.mux
	// quickseld's route table drives the proxy, so a route added to the
	// daemon is routed without a second edit: {name} routes go to the ring
	// owner (follower-eligible when the table marks them as reads), and
	// the daemon-wide routes listed here get a cluster-level handler.
	// Operational routes (replication, telemetry) are per-node and not
	// proxied; any other route without a handler fails the boot.
	clusterWide := map[string]http.HandlerFunc{
		"create":         rt.handleCreate,
		"list":           rt.handleList,
		"estimate_multi": rt.handleClusterBatch,
		"snapshot":       rt.handleSnapshotFanout,
		"metrics":        rt.handleMetrics,
	}
	// Lifecycle reads a follower may answer but the router keeps on the
	// primary: followers never train, so their versions and accuracy lag
	// the primary's, and a client polling for its batch to be trained
	// would see answers flip between nodes.
	primaryReads := map[string]bool{"versions": true, "accuracy": true}
	for _, route := range server.Routes() {
		if h, ok := clusterWide[route.Label]; ok {
			m.HandleFunc(route.Pattern, h)
		} else if strings.Contains(route.Pattern, "{name}") {
			m.HandleFunc(route.Pattern, rt.byName(route.Kind == server.RouteRead && !primaryReads[route.Label]))
		} else if route.Kind != server.RouteOperational {
			panic("quickselrouter: no routing for quickseld route " + route.Pattern)
		}
	}
	m.HandleFunc("GET /v1/cluster/status", rt.handleClusterStatus)
	m.HandleFunc("GET /v1/cluster/telemetry", rt.handleClusterTelemetry)
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	m.HandleFunc("GET /readyz", rt.handleReadyz)
	m.HandleFunc("GET /debug/requests", rt.handleDebugRequests)
	return rt
}

// ServeHTTP traces proxied /v1 traffic: the router opens the request's root
// span, decides the cluster-wide sampling fate (deterministic by request-id
// hash), and records the completed — and, via the shards' X-Quickseld-Trace
// echoes, stitched — trace into the ring behind GET /debug/requests.
// Cluster-status/telemetry and operational endpoints stay untraced so polls
// don't wash real traffic out of the ring.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		rt.mux.ServeHTTP(w, r)
		return
	}
	rt.reqTotal.Add(1)
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, server.MaxRequestBytes)
	}
	if strings.HasPrefix(r.URL.Path, "/v1/cluster/") {
		rt.mux.ServeHTTP(w, r)
		return
	}
	// Normalize the request ID onto the inbound header: every downstream
	// helper (proxy, fan-out) reads it from one place, and sampled-out
	// requests still propagate it even though they record no span.
	id := obs.AdoptID(r.Header.Get("X-Request-Id"))
	r.Header.Set("X-Request-Id", id)
	w.Header().Set("X-Request-Id", id)
	if !obs.SampleRequestID(id, rt.sampleRate) {
		rt.mux.ServeHTTP(w, r)
		return
	}
	sp := obs.StartSpanWithID("router", r.Method+" "+r.URL.Path, id)
	sw := &statusWriter{ResponseWriter: w}
	rt.mux.ServeHTTP(sw, r.WithContext(obs.WithSpan(r.Context(), sp)))
	code := sw.code
	if code == 0 {
		code = http.StatusOK
	}
	sp.SetStatus(code)
	rt.ring.Record(sp.End())
}

// statusWriter captures the response status for the request trace.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// requestID reads the ID ServeHTTP normalized onto the inbound header (or
// mints one for paths that bypass the traced front door), so the router's
// logs and every proxied shard request share one correlatable ID.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return obs.AdoptID(id)
	}
	return obs.NewRequestID()
}

type errorBody struct {
	Error string `json:"error"`
}

func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		rt.log.Warn("router: encode response", slog.Any("error", err))
	}
}

// ---- proxy core ----

// proxyResult is one upstream exchange, body fully read.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
}

// doOnce issues one upstream request. The body is a byte slice (not the
// client's reader) so a retry can replay it.
func (rt *Router) doOnce(r *http.Request, target, reqID string, body []byte) (*proxyResult, error) {
	u := target + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	sp := obs.SpanFrom(r.Context())
	req.Header.Set("X-Request-Id", reqID)
	// Always send trace context, even sampled-out (sp == nil): the flag
	// tells the shard the cluster-wide fate, so it neither re-samples
	// locally nor echoes a span nobody will stitch.
	req.Header.Set(obs.HeaderTraceParent, obs.FormatTraceParent(reqID, sp.SpanID(), sp != nil))
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Bound the proxied body: the shard's own responses are bounded, so
	// anything bigger means a misconfigured target.
	b, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxRequestBytes+1))
	if err != nil {
		return nil, err
	}
	traceChild(sp, resp)
	return &proxyResult{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// traceChild attaches the shard's echoed completed span to the router's
// root span. The echo travels as an HTTP trailer (the shard's span only
// completes after its body), readable once the body is drained; older nodes
// that answered before the trailer announcement fall back to the header.
func traceChild(sp *obs.Span, resp *http.Response) {
	if sp == nil {
		return
	}
	v := resp.Trailer.Get(obs.HeaderTrace)
	if v == "" {
		v = resp.Header.Get(obs.HeaderTrace)
	}
	if t, ok := obs.DecodeTraceHeader(v); ok {
		sp.AddChild(t)
	}
}

// proxyShard forwards a request to a shard through exchange and copies the
// answer to the client.
func (rt *Router) proxyShard(w http.ResponseWriter, r *http.Request, shard string, read bool) {
	sm := rt.shards[shard]
	start := time.Now()
	defer func() { sm.latency.Observe(time.Since(start)) }()
	sm.requests.Add(1)

	var body []byte
	if r.Body != nil && r.Method != http.MethodGet {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			// MaxBytesReader trips here; mirror the shard's 413 semantics.
			sm.errors.Add(1)
			rt.writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "request body too large"})
			return
		}
		body = b
	}
	reqID := requestID(r)
	res, followerRead, err := rt.exchange(r, shard, read, reqID, body, obs.SpanFrom(r.Context()))
	switch {
	case errors.Is(err, errClientGone):
		return // nobody to answer, and not a shard or router failure
	case errors.Is(err, errNoPrimary):
		sm.errors.Add(1)
		rt.reqErrors.Add(1)
		w.Header().Set("Retry-After", "1")
		rt.writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: fmt.Sprintf("shard %s has no known primary", shard)})
	case res == nil:
		sm.errors.Add(1)
		rt.reqErrors.Add(1)
		rt.writeJSON(w, http.StatusBadGateway,
			errorBody{Error: fmt.Sprintf("shard %s unreachable: %v", shard, err)})
	default:
		if res.status >= 500 {
			sm.errors.Add(1)
		}
		rt.replyWith(w, res, reqID, followerRead)
	}
}

var (
	errNoPrimary  = errors.New("no known primary")
	errClientGone = errors.New("client went away during the Retry-After wait")
)

// exchange sends one request to a shard: first to pickTarget's choice,
// then — on a 503 (a demoted or still-booting node, whose
// X-Quickseld-Primary hint re-aims the tracker) or a transport error (the
// target just died; the tracker may already know the successor) — exactly
// once more, to the hinted address or the shard's current primary. The
// retry honors Retry-After up to maxRetryAfter (errClientGone if the
// client cancels during the wait). It returns the last answer
// (nil when no attempt got one) and whether a follower gave it; stages,
// when non-nil, receives the queue/proxy/retry stage marks.
func (rt *Router) exchange(r *http.Request, shard string, read bool, reqID string, body []byte, stages *obs.Span) (*proxyResult, bool, error) {
	target, followerRead := rt.pickTarget(shard, read)
	stages.Stage("queue") // body read + target pick: time before the wire
	if target == "" {
		return nil, false, errNoPrimary
	}
	res, err := rt.doOnce(r, target, reqID, body)
	stages.Stage("proxy")
	if err == nil && res.status != http.StatusServiceUnavailable {
		return res, followerRead, nil
	}

	retryTarget := ""
	if err == nil {
		if hint := res.header.Get(replica.HeaderPrimary); hint != "" && hint != target {
			rt.tracker.AdoptPrimary(shard, hint)
			rt.rerouted.Add(1)
			retryTarget = hint
		}
		if ra := res.header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
				select {
				case <-time.After(min(time.Duration(secs)*time.Second, maxRetryAfter)):
				case <-r.Context().Done():
					return nil, false, errClientGone
				}
			}
		}
	}
	if retryTarget == "" {
		// Reads retry against the primary, not another follower: the
		// primary is the one target guaranteed to hold the estimator.
		retryTarget, _ = rt.tracker.PrimaryURL(shard)
	}
	if retryTarget == "" || rt.draining.Load() {
		return res, false, err // the first answer stands
	}
	rt.retried.Add(1)
	res, err = rt.doOnce(r, retryTarget, reqID, body)
	stages.Stage("retry")
	return res, false, err
}

// replyWith copies an upstream exchange to the client.
func (rt *Router) replyWith(w http.ResponseWriter, res *proxyResult, reqID string, followerRead bool) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if pu := res.header.Get(replica.HeaderPrimary); pu != "" {
		w.Header().Set(replica.HeaderPrimary, pu)
	}
	if reqID != "" {
		w.Header().Set("X-Request-Id", reqID)
	}
	if followerRead {
		rt.followerReads.Add(1)
	}
	if res.status >= 500 {
		rt.reqErrors.Add(1)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// pickTarget selects the upstream for one request: the shard primary for
// writes, or — when follower reads are on — a round-robin pick over the
// primary and the caught-up healthy followers. The second return reports
// whether the pick is a follower.
func (rt *Router) pickTarget(shard string, read bool) (string, bool) {
	if read && rt.readFromFollowers {
		targets := rt.tracker.ReadTargets(shard)
		if len(targets) > 1 {
			i := int(rt.rrSeq.Add(1)) % len(targets)
			return targets[i], i != 0 // index 0 is always the primary
		}
		if len(targets) == 1 {
			return targets[0], false
		}
	}
	url, _ := rt.tracker.PrimaryURL(shard)
	return url, false
}

// ---- handlers ----

// byName routes endpoints whose owning shard is determined by the {name}
// path segment.
func (rt *Router) byName(read bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		rt.proxyShard(w, r, rt.tracker.Owner(name), read)
	}
}

// handleCreate peeks the estimator name out of the create body to find the
// owning shard, then forwards the original body verbatim.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "request body too large"})
		return
	}
	var peek struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &peek); err != nil || peek.Name == "" {
		rt.writeJSON(w, http.StatusBadRequest, errorBody{Error: "create body needs a name field"})
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	rt.proxyShard(w, r, rt.tracker.Owner(peek.Name), false)
}

// handleList fans GET /v1/estimators out to every shard's primary and
// merges the estimator arrays, sorted by name for a stable view.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	type shardList struct {
		shard string
		ests  []json.RawMessage
		err   error
	}
	shards := rt.tracker.Ring().Shards()
	results := make([]shardList, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard string) {
			defer wg.Done()
			results[i].shard = shard
			target, _ := rt.tracker.PrimaryURL(shard)
			if target == "" {
				results[i].err = fmt.Errorf("no known primary")
				return
			}
			res, err := rt.doOnce(r, target, reqID, nil)
			if err != nil {
				results[i].err = err
				return
			}
			if res.status != http.StatusOK {
				results[i].err = fmt.Errorf("status %d: %s", res.status, truncate(res.body))
				return
			}
			var body struct {
				Estimators []json.RawMessage `json:"estimators"`
			}
			if err := json.Unmarshal(res.body, &body); err != nil {
				results[i].err = err
				return
			}
			results[i].ests = body.Estimators
		}(i, shard)
	}
	wg.Wait()
	merged := make([]json.RawMessage, 0, 16)
	for _, sl := range results {
		if sl.err != nil {
			rt.reqErrors.Add(1)
			rt.writeJSON(w, http.StatusBadGateway,
				errorBody{Error: fmt.Sprintf("shard %s: list failed: %v", sl.shard, sl.err)})
			return
		}
		merged = append(merged, sl.ests...)
	}
	sort.Slice(merged, func(i, j int) bool {
		return estimatorName(merged[i]) < estimatorName(merged[j])
	})
	w.Header().Set("X-Request-Id", reqID)
	rt.writeJSON(w, http.StatusOK, map[string]any{"estimators": merged})
}

func estimatorName(raw json.RawMessage) string {
	var e struct {
		Name string `json:"name"`
	}
	_ = json.Unmarshal(raw, &e)
	return e.Name
}

func truncate(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// handleClusterBatch serves POST /v1/estimate/batch across the cluster: it
// groups the queries by ring owner, sends each shard one sub-batch in the
// same {"queries":[…]} form through exchange (read policy, so follower
// balancing and the 503 retry apply), and merges the selectivities back
// into input order. Upstream exchanges per batch equal the number of
// distinct owning shards. A shard's 4xx (bad clause, unknown estimator,
// oversized batch) reaches the client unchanged; a transport failure or a
// 5xx answers 502.
func (rt *Router) handleClusterBatch(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	var req server.MultiEstimateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var mb *http.MaxBytesError
		if errors.As(err, &mb) {
			status = http.StatusRequestEntityTooLarge // as quickseld answers it
		}
		rt.writeJSON(w, status, errorBody{Error: fmt.Sprintf("decode request: %v", err)})
		return
	}
	if err := server.CheckEstimateQueries(req.Queries); err != nil {
		rt.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	// One part per owning shard, remembering each query's input index so
	// the merge restores input order.
	type part struct {
		shard   string
		indices []int
		queries []server.EstimateQuery
		res     *proxyResult
		err     error
	}
	byShard := make(map[string]*part)
	var parts []*part
	for i, q := range req.Queries {
		shard := rt.tracker.Owner(q.Estimator)
		p := byShard[shard]
		if p == nil {
			p = &part{shard: shard}
			byShard[shard] = p
			parts = append(parts, p)
		}
		p.indices = append(p.indices, i)
		p.queries = append(p.queries, q)
	}
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(server.MultiEstimateRequest{Queries: p.queries})
			p.res, p.err = rt.estimateShard(r, p.shard, reqID, body)
		}()
	}
	wg.Wait()

	sels := make([]float64, len(req.Queries))
	for _, p := range parts {
		if errors.Is(p.err, errClientGone) {
			return // nobody to answer, and not a shard or router failure
		}
		if p.res != nil && p.res.status >= 400 && p.res.status < 500 {
			rt.replyWith(w, p.res, reqID, false)
			return
		}
		var out struct {
			Selectivities []float64 `json:"selectivities"`
		}
		err := p.err
		switch {
		case err != nil:
		case p.res.status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", p.res.status, truncate(p.res.body))
		default:
			if derr := json.Unmarshal(p.res.body, &out); derr != nil {
				err = fmt.Errorf("decode shard response: %w", derr)
			} else if len(out.Selectivities) != len(p.indices) {
				err = fmt.Errorf("%d selectivities for %d queries", len(out.Selectivities), len(p.indices))
			}
		}
		if err != nil {
			rt.reqErrors.Add(1)
			rt.writeJSON(w, http.StatusBadGateway, errorBody{Error: fmt.Sprintf("shard %s: %v", p.shard, err)})
			return
		}
		for k, i := range p.indices {
			sels[i] = out.Selectivities[k]
		}
	}
	w.Header().Set("X-Request-Id", reqID)
	rt.writeJSON(w, http.StatusOK, map[string]any{"selectivities": sels})
}

// estimateShard sends one shard its part of a cluster batch under the read
// policy, through the same exchange the general proxy uses, and keeps the
// shard's serving metrics. The answer is nil when no attempt got one.
func (rt *Router) estimateShard(r *http.Request, shard, reqID string, body []byte) (*proxyResult, error) {
	sm := rt.shards[shard]
	start := time.Now()
	defer func() { sm.latency.Observe(time.Since(start)) }()
	sm.requests.Add(1)
	// No stage marks: parts run concurrently under one root span.
	res, followerRead, err := rt.exchange(r, shard, true, reqID, body, nil)
	switch {
	case errors.Is(err, errClientGone):
	case res == nil || res.status >= 500:
		sm.errors.Add(1)
	case res.status == http.StatusOK && followerRead:
		rt.followerReads.Add(1)
	}
	return res, err
}

// handleSnapshotFanout forwards POST /v1/snapshot to every shard's primary;
// all must succeed for a 200.
func (rt *Router) handleSnapshotFanout(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	shards := rt.tracker.Ring().Shards()
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard string) {
			defer wg.Done()
			target, _ := rt.tracker.PrimaryURL(shard)
			if target == "" {
				errs[i] = fmt.Errorf("shard %s: no known primary", shard)
				return
			}
			res, err := rt.doOnce(r, target, reqID, nil)
			if err != nil {
				errs[i] = fmt.Errorf("shard %s: %w", shard, err)
				return
			}
			if res.status != http.StatusOK {
				errs[i] = fmt.Errorf("shard %s: status %d: %s", shard, res.status, truncate(res.body))
			}
		}(i, shard)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rt.reqErrors.Add(1)
			rt.writeJSON(w, http.StatusBadGateway, errorBody{Error: err.Error()})
			return
		}
	}
	w.Header().Set("X-Request-Id", reqID)
	rt.writeJSON(w, http.StatusOK, map[string]string{"status": "saved"})
}

// clusterStatus is the GET /v1/cluster/status body.
type clusterStatus struct {
	RingVersion string                `json:"ring_version"`
	Vnodes      int                   `json:"vnodes"`
	Ready       bool                  `json:"ready"`
	Draining    bool                  `json:"draining"`
	Shards      []cluster.ShardHealth `json:"shards"`
}

func (rt *Router) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	ring := rt.tracker.Ring()
	rt.writeJSON(w, http.StatusOK, clusterStatus{
		// Hex string, not a JSON number: the version is a full 64-bit hash
		// and JSON numbers lose integer precision past 2^53.
		RingVersion: fmt.Sprintf("%016x", ring.Version()),
		Vnodes:      ring.Vnodes(),
		Ready:       rt.tracker.Ready(),
		Draining:    rt.draining.Load(),
		Shards:      rt.tracker.Snapshot(),
	})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := rt.tracker.Ready() && !rt.draining.Load()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	rt.writeJSON(w, code, map[string]any{
		"ready":    ready,
		"draining": rt.draining.Load(),
	})
}

// SetDraining flips the router into drain mode: /readyz answers 503 so load
// balancers stop sending new work, while in-flight and straggler requests
// still proxy normally until the HTTP server's graceful shutdown closes the
// listener.
func (rt *Router) SetDraining() { rt.draining.Store(true) }

// handleMetrics serves the router's Prometheus exposition: the router's own
// counters and per-shard serving series, the cluster-merged
// quickselcluster_* families federated from every node's /v1/telemetry
// (with per-node staleness gauges), and the process build/runtime gauges.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("quickselrouter_requests_total", "Total /v1 requests accepted by the router.", rt.reqTotal.Load())
	counter("quickselrouter_request_errors_total", "Requests answered with a 5xx (upstream or router).", rt.reqErrors.Load())
	counter("quickselrouter_retried_total", "Second proxy attempts after a 503 or transport error.", rt.retried.Load())
	counter("quickselrouter_rerouted_total", "Retries that followed an X-Quickseld-Primary hint to a new primary.", rt.rerouted.Load())
	counter("quickselrouter_follower_reads_total", "Estimate requests answered by a caught-up follower.", rt.followerReads.Load())
	ready := 0.0
	if rt.tracker.Ready() {
		ready = 1
	}
	gauge("quickselrouter_ready", "1 when every shard has a live ready primary.", ready)
	gauge("quickselrouter_ring_vnodes", "Virtual nodes per shard on the placement ring.", float64(rt.tracker.Ring().Vnodes()))

	// Per-shard serving metrics. Shards in ring order for a stable scrape.
	fmt.Fprintf(&b, "# HELP quickselrouter_shard_requests_total Requests proxied to the shard.\n")
	fmt.Fprintf(&b, "# TYPE quickselrouter_shard_requests_total counter\n")
	for _, id := range rt.tracker.Ring().Shards() {
		fmt.Fprintf(&b, "quickselrouter_shard_requests_total{shard=%q} %d\n", id, rt.shards[id].requests.Load())
	}
	fmt.Fprintf(&b, "# HELP quickselrouter_shard_errors_total Proxied requests that failed (5xx or unreachable).\n")
	fmt.Fprintf(&b, "# TYPE quickselrouter_shard_errors_total counter\n")
	for _, id := range rt.tracker.Ring().Shards() {
		fmt.Fprintf(&b, "quickselrouter_shard_errors_total{shard=%q} %d\n", id, rt.shards[id].errors.Load())
	}
	fmt.Fprintf(&b, "# HELP quickselrouter_shard_request_seconds Proxied request latency through the router, per shard.\n")
	fmt.Fprintf(&b, "# TYPE quickselrouter_shard_request_seconds histogram\n")
	for _, id := range rt.tracker.Ring().Shards() {
		snap := rt.shards[id].latency.Snapshot()
		snap.WritePrometheus(&b, "quickselrouter_shard_request_seconds", fmt.Sprintf("shard=%q", id))
	}

	// Cluster-merged families federated from the shards' telemetry polls:
	// counters summed, histograms merged bucket-wise per (shard, role),
	// plus the per-node staleness gauges.
	fed := cluster.Federate(rt.tracker.Telemetry(), rt.staleAfter, time.Now())
	fed.WritePrometheus(&b)
	obs.WriteRuntimeMetrics(&b, "quickselrouter")

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, b.String())
}

// handleClusterTelemetry serves the structured federated view: the merged
// cluster-level telemetry plus every node's raw snapshot with provenance,
// for consumers that want more than the flattened Prometheus families.
func (rt *Router) handleClusterTelemetry(w http.ResponseWriter, _ *http.Request) {
	nodes := rt.tracker.Telemetry()
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"version": obs.TelemetryVersion,
		"merged":  cluster.Federate(nodes, rt.staleAfter, time.Now()),
		"nodes":   nodes,
	})
}

// handleDebugRequests dumps the router's completed-trace ring, newest first.
// Traced requests carry the shards' echoed child spans, so each entry is the
// stitched tree: router queue → proxy → node decode → model → encode.
func (rt *Router) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	rt.writeJSON(w, http.StatusOK, map[string]any{"traces": rt.ring.Traces()})
}
