package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// recorder collects one load goroutine's results; recorders are merged
// after the goroutines have ended.
type recorder struct {
	single, batch, observe []sample
	late                   []time.Duration
	answered               int // selectivities answered correctly
	attempted, failed      int
	errs                   []string
	spans                  []span
}

// fail counts a failed operation and keeps the first few messages.
func (r *recorder) fail(op string, err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", op, err))
	}
}

func (r *recorder) merge(o *recorder) {
	r.single = append(r.single, o.single...)
	r.batch = append(r.batch, o.batch...)
	r.observe = append(r.observe, o.observe...)
	r.late = append(r.late, o.late...)
	r.answered += o.answered
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 10 {
			r.errs = append(r.errs, e)
		}
	}
	r.spans = append(r.spans, o.spans...)
}

// loader sends a workload's requests to a deployment.
type loader struct {
	w      *workloadDef
	d      *deployment
	c      *http.Client
	want   [][]float64 // in-process answers per estimator and pool query (nil: range checks only)
	urls   [][]string  // GET estimate URL per estimator and pool query
	seed   int64
	trace  bool
	origin time.Time // span clock origin
	front  string    // layer name of the process clients talk to
}

func newLoader(w *workloadDef, d *deployment, c *http.Client, want [][]float64, seed int64, trace bool, origin time.Time) *loader {
	dr := &loader{w: w, d: d, c: c, want: want, seed: seed, trace: trace, origin: origin, front: "quickseld"}
	if w.Router {
		dr.front = "quickselrouter"
	}
	for _, e := range w.Estimators {
		us := make([]string, len(e.Pool))
		for q, where := range e.Pool {
			us[q] = estimateURL(d.front, e.Name, where)
		}
		dr.urls = append(dr.urls, us)
	}
	return dr
}

// span is one timed call recorded by the benchmark's own code: Trace ties
// the spans of one input together, Parent names the enclosing layer.
type span struct {
	Trace  int    `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

func (dr *loader) span(r *recorder, trace int, layer, name string, start time.Time, dur time.Duration) {
	if dr.trace {
		r.spans = append(r.spans, span{Trace: trace, Layer: layer, Name: name, Start: start.Sub(dr.origin).Nanoseconds(), Dur: dur.Nanoseconds()})
	}
}

// check compares a served answer with the in-process registry's.
func (dr *loader) check(e, q int, got float64) error {
	if dr.want == nil {
		return nil
	}
	return checkExact(got, dr.want[e][q])
}

// single sends one GET estimate and checks it.
func (dr *loader) single(e, q int) error {
	got, err := getEstimate(dr.c, dr.urls[e][q])
	if err == nil {
		err = dr.check(e, q, got)
	}
	return err
}

// batchOp sends one batch of (estimator, pool query) pairs: to the router's
// cluster endpoint, or to the first estimator's batch endpoint (every pair
// then names that estimator).
func (dr *loader) batchOp(e []int, q []int) error {
	var u string
	var body []byte
	if dr.w.ClusterBatch {
		qs := make([]clusterQuery, len(e))
		for i := range e {
			qs[i] = clusterQuery{Estimator: dr.w.Estimators[e[i]].Name, Where: dr.w.Estimators[e[i]].Pool[q[i]]}
		}
		u, body = dr.d.front+"/v1/estimate/batch", clusterBody(qs)
	} else {
		est := dr.w.Estimators[e[0]]
		wheres := make([]string, len(q))
		for i := range q {
			wheres[i] = est.Pool[q[i]]
		}
		u, body = dr.d.front+"/v1/"+est.Name+"/estimate/batch", batchBody(wheres)
	}
	sels, err := postBatch(dr.c, u, body, len(q))
	if err != nil {
		return err
	}
	for i, v := range sels {
		if err := dr.check(e[i], q[i], v); err != nil {
			return fmt.Errorf("clause %d: %w", i, err)
		}
	}
	return nil
}

// drawBatch picks a batch's (estimator, query) pairs: Zipf estimators per
// clause for a cluster batch, one estimator otherwise.
func (dr *loader) drawBatch(rng *rand.Rand) ([]int, []int) {
	n := dr.w.BatchSize
	e, q := make([]int, n), make([]int, n)
	e0 := dr.w.pick(rng)
	for i := range n {
		e[i] = e0
		if dr.w.ClusterBatch {
			e[i] = dr.w.pick(rng)
		}
		q[i] = rng.Intn(len(dr.w.Estimators[e[i]].Pool))
	}
	return e, q
}

// closedLoop runs ReadClients clients for the given duration; each sends
// its next request only after the previous one is answered.
func (dr *loader) closedLoop(seconds float64) (*recorder, time.Duration) {
	var wg sync.WaitGroup
	recs := make([]*recorder, dr.w.ReadClients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := range recs {
		recs[i] = &recorder{}
		wg.Add(1)
		go func(r *recorder, rng *rand.Rand) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				isBatch := rng.Float64() < dr.w.BatchShare
				var err error
				var es, qs []int
				if isBatch {
					es, qs = dr.drawBatch(rng)
				} else {
					es, qs = []int{dr.w.pick(rng)}, []int{0}
					qs[0] = rng.Intn(len(dr.w.Estimators[es[0]].Pool))
				}
				t0 := time.Now()
				if isBatch {
					err = dr.batchOp(es, qs)
				} else {
					err = dr.single(es[0], qs[0])
				}
				lat := time.Since(t0)
				r.attempted++
				name := "estimate"
				if isBatch {
					name = "batch"
				}
				dr.span(r, n, dr.front, name, t0, lat)
				if err != nil {
					r.fail(name, err)
					continue
				}
				if isBatch {
					r.batch = append(r.batch, sample{t0, lat})
					r.answered += len(qs)
				} else {
					r.single = append(r.single, sample{t0, lat})
					r.answered++
				}
			}
		}(recs[i], rand.New(rand.NewSource(clientSeed(dr.seed, i))))
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &recorder{}
	for _, r := range recs {
		total.merge(r)
	}
	return total, elapsed
}

// Open-loop operation kinds.
const (
	opObserve = iota
	opSingle
	opBatch
)

type openOp struct {
	id   int // position in the schedule (the span trace id)
	due  time.Duration
	kind int
	fb   int   // feedback batch index (opObserve)
	e, q []int // estimators and pool queries (estimates)
}

// schedule lays out the open-loop phase: every stream arrives at a fixed
// rate, each arrival jittered by up to ±25% of its period so the streams'
// phases against each other and against the daemon's train ticker vary
// between seeds while the load itself does not.
func (dr *loader) schedule(rng *rand.Rand) []openOp {
	w := dr.w
	var ops []openOp
	at := func(k int, rate float64) time.Duration {
		return secs((float64(k) + 0.5 + 0.5*(rng.Float64()-0.5)) / rate)
	}
	for k := range w.Feedback {
		ops = append(ops, openOp{due: at(k, w.FeedbackRate), kind: opObserve, fb: k})
	}
	stream := func(rate float64, kind int) {
		for k := 0; rate > 0 && float64(k)+1 <= rate*w.OpenSeconds; k++ {
			op := openOp{due: at(k, rate), kind: kind}
			if kind == opBatch {
				op.e, op.q = dr.drawBatch(rng)
			} else {
				e := w.pick(rng)
				op.e, op.q = []int{e}, []int{rng.Intn(len(w.Estimators[e].Pool))}
			}
			ops = append(ops, op)
		}
	}
	stream(w.EstimateRate, opSingle)
	stream(w.BatchRate, opBatch)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	for i := range ops {
		ops[i].id = i
	}
	return ops
}

// clientSeed and scheduleSeed derive the load's random streams from the
// run's seed; the traced replay regenerates the same inputs from them.
func clientSeed(seed int64, client int) int64 { return seed*7919 + int64(client) }
func scheduleSeed(seed int64) int64           { return seed*7919 + 1000 }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// openResult is the open-loop phase's outcome: the merged recorder, the
// freshness lags, and the phase length.
type openResult struct {
	rec       *recorder
	fresh     []time.Duration
	uncovered int
	elapsed   time.Duration
}

// openLoop sends the schedule on time regardless of how fast answers come
// back, through at most ReadClients connections, timing each request from
// when it was due. A poller reads each estimator's versions over the same
// connections until every acknowledged batch is covered by a serving
// version, or gives up after coverWait.
func (dr *loader) openLoop(ops []openOp, coverWait time.Duration) openResult {
	w := dr.w
	workers := max(1, nproc())
	queue := make(chan openOp, len(ops)) // holds the whole schedule: the dispatcher never blocks
	recs := make([]*recorder, workers)
	var ackMu sync.Mutex
	acked := make([][]ackedBatch, len(w.Estimators))
	sent := make([]uint64, len(w.Estimators)) // highest Need acked per estimator
	start := time.Now()
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = &recorder{}
		wg.Add(1)
		go func(r *recorder) {
			defer wg.Done()
			for op := range queue {
				due := start.Add(op.due)
				t0 := time.Now()
				r.late = append(r.late, t0.Sub(due))
				r.attempted++
				var err error
				name := "estimate"
				switch op.kind {
				case opObserve:
					name = "observe"
					fb := w.Feedback[op.fb]
					est := w.Estimators[fb.Est]
					err = postObserve(dr.c, dr.d.front+"/v1/"+est.Name+"/observe", observeBody(fb.Recs), len(fb.Recs))
					if err == nil {
						now := time.Now()
						r.observe = append(r.observe, sample{due, now.Sub(due)})
						ackMu.Lock()
						acked[fb.Est] = append(acked[fb.Est], ackedBatch{need: fb.Need, ack: now})
						sent[fb.Est] = max(sent[fb.Est], fb.Need)
						ackMu.Unlock()
					}
				case opSingle:
					err = dr.single(op.e[0], op.q[0])
					if err == nil {
						r.single = append(r.single, sample{due, time.Since(due)})
						r.answered++
					}
				case opBatch:
					name = "batch"
					err = dr.batchOp(op.e, op.q)
					if err == nil {
						r.batch = append(r.batch, sample{due, time.Since(due)})
						r.answered += len(op.q)
					}
				}
				dr.span(r, op.id, dr.front, name, due, time.Since(due))
				if err != nil {
					r.fail(name, err)
				}
			}
		}(recs[i])
	}

	// The poller keeps every version it has seen; the store retains only a
	// few, so it polls faster than an estimator can train.
	seen := make([]map[int]seenVersion, len(w.Estimators))
	for i := range seen {
		seen[i] = map[int]seenVersion{}
	}
	pollRec := &recorder{}
	sendDone := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		done, sending := sendDone, true
		var giveUp <-chan time.Time
		tick := time.NewTicker(w.PollEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				done, sending = nil, false
				giveUp = time.After(coverWait)
			case <-giveUp:
				return
			case <-tick.C:
			}
			ackMu.Lock()
			need := append([]uint64(nil), sent...)
			ackMu.Unlock()
			covered := true
			for e, n := range need {
				if n == 0 || maxObs(seen[e]) >= n {
					continue
				}
				covered = false
				pollRec.attempted++
				vs, err := getVersions(dr.c, dr.d.front+"/v1/"+w.Estimators[e].Name+"/versions")
				if err != nil {
					pollRec.fail("versions", err)
					continue
				}
				for _, v := range vs {
					seen[e][v.id] = v
				}
			}
			if covered && !sending {
				return
			}
		}
	}()

	for _, op := range ops {
		if d := time.Until(start.Add(op.due)); d > 0 {
			time.Sleep(d)
		}
		queue <- op
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)
	close(sendDone)
	<-pollDone

	res := openResult{rec: &recorder{}, elapsed: elapsed}
	for _, r := range recs {
		res.rec.merge(r)
	}
	res.rec.merge(pollRec)
	for e := range w.Estimators {
		var vs []seenVersion
		for _, v := range seen[e] {
			vs = append(vs, v)
		}
		lags, unc := freshness(acked[e], vs)
		res.fresh = append(res.fresh, lags...)
		res.uncovered += unc
	}
	return res
}

// maxObs is the largest observation count among seen versions.
func maxObs(vs map[int]seenVersion) uint64 {
	var m uint64
	for _, v := range vs {
		m = max(m, v.observations)
	}
	return m
}

// accuracy asks every estimator's held-out pool once through the front
// door's batch endpoint and returns each answer's q-error against the
// exact selectivity.
func (dr *loader) accuracy(r *recorder) []float64 {
	var qs []float64
	for e, est := range dr.w.Estimators {
		r.attempted++
		sels, err := postBatch(dr.c, dr.d.front+"/v1/"+est.Name+"/estimate/batch", batchBody(est.Pool), len(est.Pool))
		if err != nil {
			r.fail("accuracy", err)
			continue
		}
		for q, v := range sels {
			if err := dr.check(e, q, v); err != nil {
				r.fail("accuracy", err)
				break
			}
			qs = append(qs, qerror(v, est.PoolSel[q]))
		}
	}
	return qs
}

// trainAll retrains every estimator synchronously.
func (dr *loader) trainAll(r *recorder) {
	for _, est := range dr.w.Estimators {
		r.attempted++
		status, body, err := call(dr.c, http.MethodPost, dr.d.front+"/v1/"+est.Name+"/train", nil)
		if err == nil {
			err = expect(status, http.StatusOK, body, nil)
		}
		if err != nil {
			r.fail("train", err)
		}
	}
}
