package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"slices"
	"sync/atomic"

	"quicksel"
	"quicksel/internal/obs"
	"quicksel/internal/replica"
)

// Server is the HTTP facade over a Registry. Build one with New, mount it
// (it implements http.Handler), and Close it on shutdown.
type Server struct {
	reg *Registry
	mux *http.ServeMux

	// reqs counts served requests per route-table entry, in table order;
	// /metrics exposes them as quickseld_requests_total{route}.
	reqs            []routeCount
	reqRoleRejected atomic.Uint64
	reqErrors       atomic.Uint64

	// promoteHook, when set, replaces Registry.Promote behind
	// POST /v1/replication/promote (see SetPromoteHook).
	promoteHook atomic.Pointer[func() (bool, error)]
}

type routeCount struct {
	label string
	n     atomic.Uint64
}

// RouteKind says how a route is served: which roles answer it, whether it
// is traced, and where quickselrouter sends it.
type RouteKind uint8

const (
	// RouteRead is traced and served on every role; quickselrouter may
	// answer it from a caught-up follower under -read-from-followers.
	RouteRead RouteKind = iota
	// RouteWrite is traced and served by the primary only: a follower
	// answers 503 + Retry-After + X-Quickseld-Primary.
	RouteWrite
	// RouteOperational is untraced and served on every role: replication
	// and scrape traffic polls at high frequency and would wash client
	// requests out of the debug ring.
	RouteOperational
)

// Route is one entry of the route table.
type Route struct {
	Pattern string // "METHOD /path", as registered on the mux
	Label   string // the route label on quickseld_requests_total
	Kind    RouteKind
	handle  func(*Server, http.ResponseWriter, *http.Request)
}

// routes is the daemon's HTTP surface, defined once: New registers the mux,
// the follower write gate, the tracing exemption and the per-route request
// counters from it, and quickselrouter builds its proxy table from it.
var routes = []Route{
	{"POST /v1/estimators", "create", RouteWrite, (*Server).handleCreate},
	{"GET /v1/estimators", "list", RouteRead, (*Server).handleList},
	{"DELETE /v1/estimators/{name}", "drop", RouteWrite, (*Server).handleDrop},
	{"POST /v1/{name}/observe", "observe", RouteWrite, (*Server).handleObserve},
	{"GET /v1/{name}/estimate", "estimate", RouteRead, (*Server).handleEstimate},
	{"POST /v1/{name}/estimate/batch", "estimate_batch", RouteRead, (*Server).handleEstimateBatch},
	{"POST /v1/estimate/batch", "estimate_multi", RouteRead, (*Server).handleEstimateMulti},
	{"POST /v1/{name}/train", "train", RouteWrite, (*Server).handleTrain},
	{"GET /v1/{name}/versions", "versions", RouteRead, (*Server).handleVersions},
	{"POST /v1/{name}/rollback", "rollback", RouteWrite, (*Server).handleRollback},
	{"GET /v1/{name}/accuracy", "accuracy", RouteRead, (*Server).handleAccuracy},
	{"POST /v1/snapshot", "snapshot", RouteWrite, (*Server).handleSnapshot},
	{"GET /v1/replication/wal", "replication_wal", RouteOperational, (*Server).handleReplicationWAL},
	{"GET /v1/replication/snapshot", "replication_snapshot", RouteOperational, (*Server).handleReplicationSnapshot},
	{"POST /v1/replication/promote", "replication_promote", RouteOperational, (*Server).handlePromote},
	{"GET /v1/replication/status", "replication_status", RouteOperational, (*Server).handleReplicationStatus},
	{"GET /v1/telemetry", "telemetry", RouteOperational, (*Server).handleTelemetry},
	{"GET /metrics", "metrics", RouteOperational, (*Server).handleMetrics},
}

// Routes returns a copy of the route table.
func Routes() []Route { return slices.Clone(routes) }

// MaxRequestBytes caps one /v1 JSON request body. Larger bodies get 413:
// an unbounded decode would let a single client balloon the daemon's heap.
// The cap comfortably fits the biggest legitimate requests (a
// MaxEstimateBatch-clause batch, an observe batch filling the pending
// buffer) with an order of magnitude to spare.
const MaxRequestBytes = 8 << 20

// New builds the server and its registry.
func New(cfg Config) (*Server, error) {
	reg, err := NewRegistry(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{reg: reg, mux: http.NewServeMux(), reqs: make([]routeCount, len(routes))}
	for i, rt := range routes {
		s.reqs[i].label = rt.Label
		s.mux.HandleFunc(rt.Pattern, s.serveRoute(rt, &s.reqs[i].n))
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	if cfg.Pprof {
		// Opt-in only: profiles expose call stacks and heap contents.
		// pprof.Index serves the named profiles (heap, goroutine, ...)
		// under the trailing-slash pattern.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Registry exposes the underlying registry (for embedding quickseld in a
// larger process).
func (s *Server) Registry() *Registry { return s.reg }

// Close flushes, persists, and stops the background worker.
func (s *Server) Close() error { return s.reg.Close() }

// ServeHTTP implements http.Handler. Everything a route's kind implies is
// applied per route by serveRoute; probes and /debug are served plain.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// serveRoute wraps one route-table handler. Every route's body is bounded
// before the handler decodes it (an unbounded JSON body would be read into
// memory whole; writeError surfaces *http.MaxBytesError as 413). A follower
// refuses writes with 503 + Retry-After (not a redirect) so naive clients
// fail fast and cluster-aware ones read X-Quickseld-Primary and re-aim.
// Read and write routes are traced; operational ones are not.
func (s *Server) serveRoute(rt Route, served *atomic.Uint64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
		}
		if rt.Kind == RouteWrite && !s.reg.IsPrimary() {
			s.reqRoleRejected.Add(1)
			s.reqErrors.Add(1)
			w.Header().Set("Retry-After", "1")
			if pu := s.reg.PrimaryURL(); pu != "" {
				w.Header().Set(replica.HeaderPrimary, pu)
			}
			s.writeJSON(w, http.StatusServiceUnavailable,
				errorBody{Error: "this node is a read-only follower; send writes to the primary"})
			return
		}
		served.Add(1)
		if rt.Kind == RouteOperational {
			rt.handle(s, w, r)
			return
		}
		s.traced(w, r, rt.handle)
	}
}

// traced serves a client request under a request trace: it gets a request
// ID (echoed in X-Request-Id), its handler marks stages (decode, model,
// encode) on the span, and the completed trace lands in the ring behind
// GET /debug/requests plus the threshold-gated slow log.
//
// An inbound traceparent (quickselrouter's root span) carries the request
// ID, the router span to parent under, and the cluster-wide sampling
// decision, which this node obeys so a request is traced on every hop or
// none. Without one, reuse a propagated X-Request-Id (or mint fresh) and
// apply the local sampling rate. Sampled-out requests still carry the ID —
// logs correlate either way — but record no span and never reach the ring.
func (s *Server) traced(w http.ResponseWriter, r *http.Request, handle func(*Server, http.ResponseWriter, *http.Request)) {
	var id, parentID string
	var sampled, fromUpstream bool
	if tid, pid, smp, ok := obs.ParseTraceParent(r.Header.Get(obs.HeaderTraceParent)); ok {
		id, parentID, sampled, fromUpstream = tid, pid, smp, true
	} else {
		id = obs.AdoptID(r.Header.Get("X-Request-Id"))
		sampled = obs.SampleRequestID(id, s.reg.cfg.TraceSample)
	}
	w.Header().Set("X-Request-Id", id)
	if !sampled {
		handle(s, w, r)
		return
	}
	sp := obs.StartSpanWithID("http", r.Method+" "+r.URL.Path, id)
	sp.SetParent(parentID)
	sp.SetNode(s.reg.cfg.NodeID)
	if fromUpstream {
		// Announce the child-trace echo before the handler writes: the span
		// only completes after the body, so it travels as an HTTP trailer
		// (responses are chunked — writeJSON never sets Content-Length).
		w.Header().Add("Trailer", obs.HeaderTrace)
	}
	sw := &statusWriter{ResponseWriter: w}
	handle(s, sw, r.WithContext(obs.WithSpan(r.Context(), sp)))
	code := sw.code
	if code == 0 {
		code = http.StatusOK
	}
	sp.SetStatus(code)
	tr := sp.End()
	if fromUpstream {
		if v, ok := obs.EncodeTraceHeader(tr); ok {
			w.Header().Set(obs.HeaderTrace, v)
		}
	}
	s.reg.ring.Record(tr)
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

// handleReadyz answers the readiness probe: 200 once the snapshot is
// restored, the write-ahead log replayed, and the trainer running; 503
// otherwise (including while draining), with the per-component flags in
// the body either way.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	rd := s.reg.Readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, rd)
}

// handleDebugRequests dumps the completed-trace ring, newest first: request
// IDs, stage timings, statuses — where a slow request spent its time.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"traces": s.reg.ring.Traces()})
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON writes v indented, for the admin and error answers people read.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, v, "  ")
}

// writeCompact writes v without indentation: the estimate answers, where
// the indenting pass is paid on every request of the hot path.
func (s *Server) writeCompact(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, v, "")
}

func writeBody(w http.ResponseWriter, status int, v any, indent string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", indent)
	_ = enc.Encode(v)
}

// writeError maps registry errors onto HTTP statuses: unknown name → 404,
// duplicate create → 409, an over-limit body → 413, bad input (parse
// errors, schema errors) → 400.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.reqErrors.Add(1)
	status := http.StatusBadRequest
	var nf *NotFoundError
	var cf *ConflictError
	var mb *http.MaxBytesError
	switch {
	case errors.As(err, &nf):
		status = http.StatusNotFound
	case errors.As(err, &cf):
		status = http.StatusConflict
	case errors.As(err, &mb):
		status = http.StatusRequestEntityTooLarge
		err = fmt.Errorf("request body exceeds the %d-byte limit; split the batch", MaxRequestBytes)
	}
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}

// createRequest is the body of POST /v1/estimators. Method selects the
// estimation backend ("quicksel", "sthole", "isomer", "maxent", "sample",
// "scanhist"); empty means quicksel. Unknown method names are rejected with
// a 400 listing the valid ones, and — because the decoder is strict — so
// are misspelled fields.
type createRequest struct {
	Name    string           `json:"name"`
	Method  string           `json:"method,omitempty"`
	Schema  *quicksel.Schema `json:"schema"`
	Options *createOptions   `json:"options,omitempty"`
}

// createOptions tunes the model; zero fields keep the paper defaults.
// The first block applies to the quicksel method, max_buckets to the
// histogram methods (sthole/isomer/maxent), the scan block to the
// scan-backed methods (sample/scanhist), and the lifecycle block to the
// registry's model-lifecycle machinery (any method).
type createOptions struct {
	Seed               *int64  `json:"seed,omitempty"`
	MaxSubpops         int     `json:"max_subpops,omitempty"`
	SubpopsPerQuery    int     `json:"subpops_per_query,omitempty"`
	FixedSubpops       int     `json:"fixed_subpops,omitempty"`
	PointsPerPredicate int     `json:"points_per_predicate,omitempty"`
	Lambda             float64 `json:"lambda,omitempty"`
	IterativeSolver    bool    `json:"iterative_solver,omitempty"`
	Workers            int     `json:"workers,omitempty"`
	WarmStart          bool    `json:"warm_start,omitempty"`
	MaxObservations    int     `json:"max_observations,omitempty"`
	MergeThreshold     float64 `json:"merge_threshold,omitempty"`
	MaxBuckets         int     `json:"max_buckets,omitempty"`
	SampleSize         int     `json:"sample_size,omitempty"`
	GridBuckets        int     `json:"grid_buckets,omitempty"`
	RowsPerObservation int     `json:"rows_per_observation,omitempty"`

	// Lifecycle knobs; zero fields inherit the daemon-wide flags.
	RetrainPolicy  string  `json:"retrain_policy,omitempty"`
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	AccuracyWindow int     `json:"accuracy_window,omitempty"`
	VersionHistory int     `json:"version_history,omitempty"`
}

func (o *createOptions) toOptions() []quicksel.Option {
	if o == nil {
		return nil
	}
	var opts []quicksel.Option
	if o.Seed != nil {
		opts = append(opts, quicksel.WithSeed(*o.Seed))
	}
	if o.MaxSubpops > 0 {
		opts = append(opts, quicksel.WithMaxSubpopulations(o.MaxSubpops))
	}
	if o.SubpopsPerQuery > 0 {
		opts = append(opts, quicksel.WithSubpopsPerQuery(o.SubpopsPerQuery))
	}
	if o.FixedSubpops > 0 {
		opts = append(opts, quicksel.WithFixedSubpopulations(o.FixedSubpops))
	}
	if o.PointsPerPredicate > 0 {
		opts = append(opts, quicksel.WithPointsPerPredicate(o.PointsPerPredicate))
	}
	if o.Lambda > 0 {
		opts = append(opts, quicksel.WithLambda(o.Lambda))
	}
	if o.IterativeSolver {
		opts = append(opts, quicksel.WithIterativeSolver())
	}
	if o.Workers > 0 {
		opts = append(opts, quicksel.WithWorkers(o.Workers))
	}
	if o.WarmStart {
		opts = append(opts, quicksel.WithWarmStart())
	}
	if o.MaxObservations > 0 {
		opts = append(opts, quicksel.WithMaxObservations(o.MaxObservations))
	}
	if o.MergeThreshold > 0 {
		opts = append(opts, quicksel.WithMergeThreshold(o.MergeThreshold))
	}
	if o.MaxBuckets > 0 {
		opts = append(opts, quicksel.WithMaxBuckets(o.MaxBuckets))
	}
	if o.SampleSize > 0 {
		opts = append(opts, quicksel.WithSampleSize(o.SampleSize))
	}
	if o.GridBuckets > 0 {
		opts = append(opts, quicksel.WithGridBuckets(o.GridBuckets))
	}
	if o.RowsPerObservation > 0 {
		opts = append(opts, quicksel.WithRowsPerObservation(o.RowsPerObservation))
	}
	if o.RetrainPolicy != "" {
		opts = append(opts, quicksel.WithRetrainPolicy(o.RetrainPolicy))
	}
	if o.DriftThreshold != 0 {
		opts = append(opts, quicksel.WithDriftThreshold(o.DriftThreshold))
	}
	if o.AccuracyWindow > 0 {
		opts = append(opts, quicksel.WithAccuracyWindow(o.AccuracyWindow))
	}
	if o.VersionHistory > 0 {
		opts = append(opts, quicksel.WithVersionHistory(o.VersionHistory))
	}
	return opts
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	// Strict decoding: a typo like "metod" or "schmea" used to be silently
	// ignored, leaving the client with a default estimator it did not ask
	// for. Creates are rare and deliberate, so reject unknown fields.
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("decode request: %w", err))
		return
	}
	if req.Schema == nil {
		s.writeError(w, fmt.Errorf("request needs a schema"))
		return
	}
	opts := req.Options.toOptions()
	if req.Method != "" {
		// quicksel.New validates the name; an unknown one fails the create
		// with a 400 whose message lists the valid methods.
		opts = append(opts, quicksel.WithMethod(req.Method))
	}
	if err := s.reg.Create(req.Name, req.Schema, opts...); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]string{"name": req.Name, "status": "created"})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"estimators": s.reg.List()})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Drop(r.PathValue("name")); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "dropped"})
}

// observation is one observe record; observeRequest accepts a single record
// or a batch.
type observation struct {
	Where       string   `json:"where"`
	Selectivity *float64 `json:"selectivity"`
}

type observeRequest struct {
	observation
	Observations []observation `json:"observations,omitempty"`
}

// observeResponse reports ingestion backpressure to the client.
type observeResponse struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	Backlog  int `json:"backlog"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req observeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("decode request: %w", err))
		return
	}
	raw := req.Observations
	if raw == nil {
		raw = []observation{req.observation}
	}
	// The whole batch is validated before anything is queued (here for
	// presence, in the registry for values), so a 400 means nothing was
	// ingested and the client can safely retry the corrected batch without
	// double-counting the records before the bad one.
	batch := make([]Observation, len(raw))
	for i, o := range raw {
		if o.Where == "" {
			s.writeError(w, fmt.Errorf("observation %d: missing where clause", i))
			return
		}
		if o.Selectivity == nil {
			s.writeError(w, fmt.Errorf("observation %d: %w", i, errSelectivityRange))
			return
		}
		batch[i] = Observation{Where: o.Where, Sel: *o.Selectivity}
	}
	sp := obs.SpanFrom(r.Context())
	sp.Stage("decode")
	backlog, accepted, err := s.reg.ObserveBatch(name, batch)
	sp.Stage("model")
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := observeResponse{Accepted: accepted, Dropped: len(batch) - accepted, Backlog: backlog}
	status := http.StatusAccepted
	if resp.Accepted == 0 && resp.Dropped > 0 {
		status = http.StatusTooManyRequests // buffer full; client should back off
	}
	s.writeJSON(w, status, resp)
	sp.Stage("encode")
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	where := r.URL.Query().Get("where")
	if where == "" {
		s.writeError(w, fmt.Errorf("missing where query parameter"))
		return
	}
	sp := obs.SpanFrom(r.Context())
	sp.Stage("decode")
	sel, err := s.reg.Estimate(name, where)
	sp.Stage("model")
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeCompact(w, http.StatusOK, &estimateResponse{Estimator: name, Selectivity: sel, Where: where})
	sp.Stage("encode")
}

// estimateResponse answers GET /v1/{name}/estimate.
type estimateResponse struct {
	Estimator   string  `json:"estimator"`
	Selectivity float64 `json:"selectivity"`
	Where       string  `json:"where"`
}

// batchResponse answers both batch routes; the multi-estimator batch
// leaves Estimator out.
type batchResponse struct {
	Estimator     string    `json:"estimator,omitempty"`
	Selectivities []float64 `json:"selectivities"`
}

// estimateBatchRequest is the body of POST /v1/{name}/estimate/batch.
type estimateBatchRequest struct {
	Wheres []string `json:"wheres"`
}

// MaxEstimateBatch bounds one batch-estimate request, per-estimator or
// multi-estimator. Each estimator's share of a batch is answered from one
// model generation; a trained QuickSel model answers it without a lock, but
// the other methods (and a model with a fit pending) hold the estimator
// lock for that whole share, so an unbounded batch would let one client
// stall every other estimate and the background trainer's snapshot step on
// that estimator.
const MaxEstimateBatch = 4096

// handleEstimateBatch serves many estimates in one request, amortizing HTTP
// and JSON overhead and predicate parsing across the batch. Selectivities are returned in input order.
func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req estimateBatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Wheres) == 0 {
		s.writeError(w, fmt.Errorf("request needs a non-empty wheres array"))
		return
	}
	if len(req.Wheres) > MaxEstimateBatch {
		s.writeError(w, fmt.Errorf("batch of %d exceeds the %d-clause limit; split the request", len(req.Wheres), MaxEstimateBatch))
		return
	}
	for i, where := range req.Wheres {
		if where == "" {
			s.writeError(w, fmt.Errorf("estimate %d: empty where clause", i))
			return
		}
	}
	sp := obs.SpanFrom(r.Context())
	sp.Stage("decode")
	sels, err := s.reg.EstimateBatch(name, req.Wheres)
	sp.Stage("model")
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeCompact(w, http.StatusOK, &batchResponse{Estimator: name, Selectivities: sels})
	sp.Stage("encode")
}

// EstimateQuery is one query of a multi-estimator batch.
type EstimateQuery struct {
	Estimator string `json:"estimator"`
	Where     string `json:"where"`
}

// MultiEstimateRequest is the body of POST /v1/estimate/batch, on quickseld
// and on quickselrouter alike.
type MultiEstimateRequest struct {
	Queries []EstimateQuery `json:"queries"`
}

// CheckEstimateQueries validates a multi-estimator batch before any of it
// is served: it must be non-empty, within MaxEstimateBatch, and every query
// must name an estimator and a WHERE clause.
func CheckEstimateQueries(qs []EstimateQuery) error {
	if len(qs) == 0 {
		return errors.New("request needs a non-empty queries array")
	}
	if len(qs) > MaxEstimateBatch {
		return fmt.Errorf("batch of %d exceeds the %d-query limit; split the request", len(qs), MaxEstimateBatch)
	}
	for i, q := range qs {
		if q.Estimator == "" || q.Where == "" {
			return fmt.Errorf("query %d: estimator and where are both required", i)
		}
	}
	return nil
}

// handleEstimateMulti serves POST /v1/estimate/batch: queries spanning many
// estimators in one request. It groups the queries by estimator and answers
// each group with one Registry.EstimateBatch call, so every estimator's share
// comes from a single serving record. Selectivities are returned in input
// order. The first failing group, in order of first appearance, fails the
// whole request with its status (unknown estimator 404, bad clause 400); the
// error names the estimator, and a clause index in it counts only that
// estimator's queries.
func (s *Server) handleEstimateMulti(w http.ResponseWriter, r *http.Request) {
	var req MultiEstimateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("decode request: %w", err))
		return
	}
	if err := CheckEstimateQueries(req.Queries); err != nil {
		s.writeError(w, err)
		return
	}
	sp := obs.SpanFrom(r.Context())
	sp.Stage("decode")
	groups := make(map[string][]int)
	var order []string
	for i, q := range req.Queries {
		if _, ok := groups[q.Estimator]; !ok {
			order = append(order, q.Estimator)
		}
		groups[q.Estimator] = append(groups[q.Estimator], i)
	}
	sels := make([]float64, len(req.Queries))
	wheres := make([]string, 0, len(req.Queries))
	var err error
	for _, name := range order {
		wheres = wheres[:0]
		for _, i := range groups[name] {
			wheres = append(wheres, req.Queries[i].Where)
		}
		var got []float64
		if got, err = s.reg.EstimateBatch(name, wheres); err != nil {
			err = fmt.Errorf("estimator %s: %w", name, err)
			break
		}
		for k, i := range groups[name] {
			sels[i] = got[k]
		}
	}
	sp.Stage("model")
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeCompact(w, http.StatusOK, &batchResponse{Selectivities: sels})
	sp.Stage("encode")
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Train(name); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "trained"})
}

// handleVersions lists an estimator's immutable model versions: the serving
// one plus the bounded archive of previous champions and rejected
// challengers, metadata only.
func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Versions(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

// rollbackRequest is the body of POST /v1/{name}/rollback. Version 0 (or an
// empty body) selects the most recently archived version — after a
// promotion, the previous champion.
type rollbackRequest struct {
	Version int `json:"version,omitempty"`
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	var req rollbackRequest
	if r.ContentLength != 0 {
		// Strict, like create: a typo such as "verison" must not silently
		// roll back to the default (most recent) version.
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, fmt.Errorf("decode request: %w", err))
			return
		}
	}
	v, err := s.reg.Rollback(r.PathValue("name"), req.Version)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":  "rolled_back",
		"version": v,
	})
}

// handleAccuracy reports the estimator's realized accuracy window, drift
// state, promotion policy, and serving version.
func (s *Server) handleAccuracy(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Accuracy(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if err := s.reg.SaveSnapshot(); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "saved"})
}
