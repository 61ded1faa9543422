package obs

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Lightweight request tracing. A Span times the named stages of one unit
// of work — an HTTP request (decode → registry → model → encode) or a
// background trainer run (flush → solve → gate → swap). Completed spans
// become immutable Traces recorded into a fixed-size Ring, which feeds the
// GET /debug/requests endpoint and a threshold-gated slow-request log.
// Spans carry just enough cross-process context to stitch a router's root
// span to the shard spans it fanned out to (parent/child span IDs on an
// X-Quickseld-Traceparent header, completed children echoed back in an
// X-Quickseld-Trace header — see traceparent.go), with deterministic
// request-id sampling so the overhead is boundable at high QPS.

// Stage is one timed phase of a trace.
type Stage struct {
	Name string        `json:"stage"`
	Dur  time.Duration `json:"duration_ns"`
}

// Trace is one completed unit of work. SpanID identifies this span within
// the request; Parent is the span ID of the upstream hop that carried the
// request here (empty for a root). Children holds downstream hops echoed
// back to the initiator, so a router's ring shows one stitched tree per
// request.
type Trace struct {
	ID       string        `json:"id"`
	SpanID   string        `json:"span_id,omitempty"`
	Parent   string        `json:"parent_span_id,omitempty"`
	Node     string        `json:"node,omitempty"` // producing process's node ID, when configured
	Kind     string        `json:"kind"`           // "http", "router", or "train"
	Name     string        `json:"name"`           // "METHOD /path" or the estimator name
	Start    time.Time     `json:"start"`
	Stages   []Stage       `json:"stages,omitempty"`
	Total    time.Duration `json:"total_ns"`
	Status   int           `json:"status,omitempty"` // HTTP status; 0 for train runs
	Detail   string        `json:"detail,omitempty"` // error text or gate verdict
	Children []Trace       `json:"children,omitempty"`
}

// spanSeq numbers spans within this process; bootID distinguishes
// processes, so a request ID pasted into a bug report pins down which
// daemon run produced it.
var (
	spanSeq atomic.Uint64
	bootID  = fmt.Sprintf("%06x", uint64(time.Now().UnixNano())>>12&0xffffff^uint64(os.Getpid())<<8)
)

// Span is an in-progress trace. All methods are nil-safe no-ops, so
// tracing can be disabled by simply not creating the span. Mutations are
// mutex-guarded: a router span collects children from concurrent fan-out
// goroutines.
type Span struct {
	mu    sync.Mutex
	trace Trace
	last  time.Time
}

// StartSpan opens a span and assigns its request ID and span ID.
func StartSpan(kind, name string) *Span {
	now := time.Now()
	seq := spanSeq.Add(1)
	return &Span{
		trace: Trace{
			ID:     fmt.Sprintf("%s-%d", bootID, seq),
			SpanID: fmt.Sprintf("%s.%d", bootID, seq),
			Kind:   kind,
			Name:   name,
			Start:  now,
		},
		last: now,
	}
}

// NewRequestID mints a fresh request ID without allocating a span — the
// propagation path for sampled-out requests, which still carry an ID but
// record nothing.
func NewRequestID() string {
	return fmt.Sprintf("%s-%d", bootID, spanSeq.Add(1))
}

// AdoptID returns id when it is usable as a request ID (see
// StartSpanWithID), a freshly minted one otherwise.
func AdoptID(id string) string {
	if validRequestID(id) {
		return id
	}
	return NewRequestID()
}

// SampleRequestID reports whether a request ID falls inside a deterministic
// sample at the given rate (0.0 none, 1.0 all): the decision is a pure hash
// of the ID, so every process in a cluster agrees on it and a sampled
// request is traced on every hop it touches.
func SampleRequestID(id string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	return float64(HashString(id)>>11)/(1<<53) < rate
}

// MaxRequestIDLen bounds a caller-supplied request ID; longer values are
// rejected (a fresh ID is minted) rather than truncated, so an ID either
// survives propagation intact or not at all.
const MaxRequestIDLen = 128

// StartSpanWithID opens a span under a caller-supplied request ID — the
// propagation hook for a front door (quickselrouter) forwarding its own
// X-Request-Id, so one user request correlates across the router's and the
// shard's /debug/requests rings. An empty or unusable ID (over
// MaxRequestIDLen, or containing non-printable/whitespace bytes that would
// corrupt log lines and headers) falls back to a freshly minted one.
func StartSpanWithID(kind, name, id string) *Span {
	s := StartSpan(kind, name)
	if validRequestID(id) {
		s.trace.ID = id
	}
	return s
}

func validRequestID(id string) bool {
	if id == "" || len(id) > MaxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' {
			return false
		}
	}
	return true
}

// ID returns the span's request ID ("" on a nil span). The ID is immutable
// after creation, so no lock is taken.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.trace.ID
}

// SpanID returns the span's own ID within the request ("" on a nil span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.trace.SpanID
}

// SetParent records the upstream span this one continues.
func (s *Span) SetParent(parentSpanID string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.trace.Parent = parentSpanID
	s.mu.Unlock()
}

// SetNode stamps the producing process's node identity on the trace.
func (s *Span) SetNode(node string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.trace.Node = node
	s.mu.Unlock()
}

// AddChild attaches a completed downstream trace (decoded from an
// X-Quickseld-Trace echo). Safe from concurrent fan-out goroutines.
func (s *Span) AddChild(t Trace) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.trace.Children = append(s.trace.Children, t)
	s.mu.Unlock()
}

// Stage closes the current phase: the time since the previous mark (or the
// span start) is attributed to name.
func (s *Span) Stage(name string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.trace.Stages = append(s.trace.Stages, Stage{Name: name, Dur: now.Sub(s.last)})
	s.last = now
	s.mu.Unlock()
}

// SetStatus records the HTTP status (or any small result code).
func (s *Span) SetStatus(code int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.trace.Status = code
	s.mu.Unlock()
}

// SetDetail attaches a short free-form result note (error text, verdict).
func (s *Span) SetDetail(d string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.trace.Detail = d
	s.mu.Unlock()
}

// End closes the span and returns the immutable trace.
func (s *Span) End() Trace {
	if s == nil {
		return Trace{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trace.Total = time.Since(s.trace.Start)
	return s.trace
}

// DominantStage walks a stitched trace tree and returns the single largest
// stage with a label attributing it: a root stage by its own name, a
// descendant's prefixed by the child's node (or kind when the node is
// unset), e.g. "node-1:model". Zero-duration when the tree has no stages.
func DominantStage(t Trace) (string, time.Duration) {
	label, dur := "", time.Duration(0)
	for _, st := range t.Stages {
		if st.Dur > dur {
			label, dur = st.Name, st.Dur
		}
	}
	for _, c := range t.Children {
		cl, cd := DominantStage(c)
		if cd > dur {
			prefix := c.Node
			if prefix == "" {
				prefix = c.Kind
			}
			label, dur = prefix+":"+cl, cd
		}
	}
	return label, dur
}

// spanKey carries a *Span through a request context.
type spanKey struct{}

// WithSpan attaches a span to a context.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom extracts the span from a context (nil — and thus a no-op span —
// when the request was not traced).
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Ring is a fixed-size buffer of the most recent completed traces, plus
// the slow-request gate: traces whose total meets the threshold are also
// logged. Record is mutex-protected — it runs once per request after the
// response is written, never on the estimate/observe inner path.
type Ring struct {
	mu     sync.Mutex
	buf    []Trace
	pos    int
	filled bool

	slow time.Duration // 0 disables the slow log
	log  *slog.Logger  // nil disables the slow log
}

// NewRing builds a ring holding the last size traces; slow and logger
// configure the slow-request log (either zero disables it).
func NewRing(size int, slow time.Duration, logger *slog.Logger) *Ring {
	if size <= 0 {
		size = 1
	}
	return &Ring{buf: make([]Trace, size), slow: slow, log: logger}
}

// Record stores a completed trace (nil-safe) and emits the slow-request
// log line when the trace crosses the threshold.
func (r *Ring) Record(t Trace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.pos] = t
	r.pos++
	if r.pos == len(r.buf) {
		r.pos = 0
		r.filled = true
	}
	r.mu.Unlock()
	if r.log != nil && r.slow > 0 && t.Total >= r.slow {
		hop, hopDur := DominantStage(t)
		r.log.Warn("slow request",
			slog.String("id", t.ID),
			slog.String("kind", t.Kind),
			slog.String("name", t.Name),
			slog.Duration("total", t.Total),
			slog.Int("status", t.Status),
			slog.String("stages", FormatStages(t.Stages)),
			slog.String("dominant_hop", hop),
			slog.Duration("dominant_dur", hopDur),
		)
	}
}

// Traces returns the retained traces, newest first.
func (r *Ring) Traces() []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.pos
	if r.filled {
		n = len(r.buf)
	}
	out := make([]Trace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.pos-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// FormatStages renders a stage list as "decode=102µs model=1.2ms" for log
// lines — one string attr instead of a group per stage.
func FormatStages(stages []Stage) string {
	var b strings.Builder
	for i, st := range stages {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", st.Name, st.Dur)
	}
	return b.String()
}
