package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"quicksel"
	"quicksel/internal/geom"
	"quicksel/internal/lifecycle"
	"quicksel/internal/server"
	"quicksel/internal/wal"
)

// The traced run replays a workload's own inputs through each layer's
// public entry point, outside in, and times every call from here: nothing
// is traced inside the program. Per input, the chain of a single estimate
// is the layers below; a layer's self time on an input is its time minus
// its child layers' times on the same input.
var chain = []struct {
	layer, name string
	parent      int // index of the enclosing layer; -1 for the outermost
}{
	{"quickselrouter", "http", -1}, // GET estimate through the router
	{"quickseld", "http", 0},       // the same GET straight to the owning shard
	{"server", "handler", 1},       // Server.ServeHTTP in process (self: the decode and encode stages)
	{"server", "model", 2},         // Registry.Estimate
	{"predicate", "parse", 3},      // quicksel.Parse
	{"quicksel", "estimate", 3},    // Estimator.Estimate: lock, lower, backend
	{"predicate", "lower", 5},      // Predicate.Boxes
	{"core", "kernel", 5},          // estimator.Backend.Estimate
}

const (
	lRouter = iota
	lDirect
	lHandler
	lRegistry
	lParse
	lEstimate
	lLower
	lKernel
)

// selfSumTolerance bounds how far the per-layer self-time medians of the
// direct request (everything below the router) may sum from the direct
// request's own median.
const selfSumTolerance = 0.25

// layerRun holds what the traced replay measured.
type layerRun struct {
	metrics map[string]metric
	notes   []string
	spans   []span
	failed  int
	errs    []string
}

func (lr *layerRun) set(name string, v float64, unit string) {
	lr.metrics[name] = metric{Value: v, Unit: unit}
}

func (lr *layerRun) fail(what string, err error) {
	lr.failed++
	if len(lr.errs) < 10 {
		lr.errs = append(lr.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// replayer replays inputs through every layer of one deployment.
type replayer struct {
	w      *workloadDef
	d      *deployment
	c      *http.Client
	m      *mirror
	reps   []*replica
	origin time.Time
	lr     *layerRun
	trace  int // next span trace id
}

func (rp *replayer) span(trace int, layer, name, parent string, t0 time.Time, dur time.Duration) {
	rp.lr.spans = append(rp.lr.spans, span{Trace: trace, Layer: layer, Name: name, Parent: parent,
		Start: t0.Sub(rp.origin).Nanoseconds(), Dur: dur.Nanoseconds()})
}

// readInputs regenerates the workload's own read requests: the first
// client's closed-loop sequence, or the open-loop schedule's estimates.
func readInputs(w *workloadDef, dr *loader, seed int64, singles, batches int) (s [][2]int, b [][2][]int) {
	if w.ReadClients > 0 {
		rng := rand.New(rand.NewSource(clientSeed(seed, 0)))
		for len(s) < singles || len(b) < batches {
			if rng.Float64() < w.BatchShare {
				es, qs := dr.drawBatch(rng)
				b = append(b, [2][]int{es, qs})
				continue
			}
			e := w.pick(rng)
			s = append(s, [2]int{e, rng.Intn(len(w.Estimators[e].Pool))})
		}
	} else {
		for _, op := range dr.schedule(rand.New(rand.NewSource(scheduleSeed(seed)))) {
			switch op.kind {
			case opSingle:
				s = append(s, [2]int{op.e[0], op.q[0]})
			case opBatch:
				b = append(b, [2][]int{op.e, op.q})
			}
		}
	}
	return s[:min(singles, len(s))], b[:min(batches, len(b))]
}

// respWriter is a reusable in-process ResponseWriter.
type respWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(b)
}
func (w *respWriter) reset() {
	clear(w.h)
	w.code = 0
	w.buf.Reset()
}

// singleChain times every layer of the single-estimate chain on each
// input, checking that all layers return the bit-identical answer.
func (rp *replayer) singleChain(inputs [][2]int) [][]float64 {
	times := make([][]float64, len(chain))
	rw := &respWriter{h: http.Header{}}
	for _, in := range inputs {
		e, q := in[0], in[1]
		est := rp.w.Estimators[e]
		where := est.Pool[q]
		want := rp.m.want[e][q]
		rep := rp.reps[e]
		req := httptest.NewRequest(http.MethodGet, estimateURL("", est.Name, where), nil)
		trace := rp.trace
		rp.trace++
		got := make([]float64, len(chain))
		errs := make([]error, len(chain))
		dur := make([]time.Duration, len(chain))
		start := make([]time.Time, len(chain))
		timeIt := func(i int, f func() (float64, error)) {
			start[i] = time.Now()
			got[i], errs[i] = f()
			dur[i] = time.Since(start[i])
		}
		timeIt(lRouter, func() (float64, error) { return getEstimate(rp.c, estimateURL(rp.d.router.url, est.Name, where)) })
		timeIt(lDirect, func() (float64, error) {
			return getEstimate(rp.c, estimateURL(rp.d.shardOf[est.Name], est.Name, where))
		})
		timeIt(lHandler, func() (float64, error) {
			rw.reset()
			rp.m.srv.ServeHTTP(rw, req)
			return handlerSel(rw)
		})
		timeIt(lRegistry, func() (float64, error) { return rp.m.reg.Estimate(est.Name, where) })
		var pred *quicksel.Predicate
		timeIt(lParse, func() (float64, error) {
			var err error
			pred, err = quicksel.Parse(est.Schema, where)
			return want, err
		})
		timeIt(lEstimate, func() (float64, error) { return rep.est.Estimate(pred) })
		var boxes []geom.Box
		timeIt(lLower, func() (float64, error) {
			var err error
			boxes, err = pred.Boxes(est.Schema)
			return want, err
		})
		timeIt(lKernel, func() (float64, error) { return rep.backend.Estimate(boxes) })
		for i, c := range chain {
			err := errs[i]
			if err == nil {
				err = checkExact(got[i], want)
			}
			if err != nil {
				rp.lr.fail(c.layer+"."+c.name, err)
			}
			times[i] = append(times[i], float64(dur[i]))
			parent := ""
			if c.parent >= 0 {
				parent = chain[c.parent].layer + "." + chain[c.parent].name
			}
			rp.span(trace, c.layer, c.name, parent, start[i], dur[i])
		}
	}
	return times
}

// handlerSel decodes the in-process handler's estimate response.
func handlerSel(rw *respWriter) (float64, error) {
	var out struct {
		Selectivity float64 `json:"selectivity"`
	}
	if err := expect(rw.code, http.StatusOK, rw.buf.Bytes(), &out); err != nil {
		return 0, err
	}
	return out.Selectivity, nil
}

// batchHops times each batch through the router and as direct
// per-estimator sub-batches to the owning shards (sequentially); the hop
// is the router's time minus the slowest sub-batch.
func (rp *replayer) batchHops(inputs [][2][]int) []float64 {
	dr := &loader{w: rp.w, d: &deployment{front: rp.d.router.url}, c: rp.c, want: rp.m.want}
	var hops []float64
	for _, in := range inputs {
		es, qs := in[0], in[1]
		trace := rp.trace
		rp.trace++
		t0 := time.Now()
		err := dr.batchOp(es, qs)
		via := time.Since(t0)
		rp.span(trace, "quickselrouter", "batch", "", t0, via)
		if err != nil {
			rp.lr.fail("quickselrouter.batch", err)
			continue
		}
		groups := map[int][]int{}
		var order []int
		for i, e := range es {
			if _, ok := groups[e]; !ok {
				order = append(order, e)
			}
			groups[e] = append(groups[e], qs[i])
		}
		var slowest time.Duration
		for _, e := range order {
			est := rp.w.Estimators[e]
			wheres := make([]string, len(groups[e]))
			for i, q := range groups[e] {
				wheres[i] = est.Pool[q]
			}
			t1 := time.Now()
			_, err := postBatch(rp.c, rp.d.shardOf[est.Name]+"/v1/"+est.Name+"/estimate/batch", batchBody(wheres), len(wheres))
			d := time.Since(t1)
			rp.span(trace, "quickseld", "batch", "quickselrouter.batch", t1, d)
			if err != nil {
				rp.lr.fail("quickseld.batch", err)
			}
			slowest = max(slowest, d)
		}
		hops = append(hops, float64(via-slowest))
	}
	return hops
}

// allocs counts allocations per call of f over the inputs, on one
// goroutine, which makes the count deterministic.
func allocs(n int, f func(i int)) float64 {
	i := 0
	return testing.AllocsPerRun(n, func() { f(i % n); i++ })
}

// layerAllocs counts allocations per call at each in-process layer.
func (rp *replayer) layerAllocs(inputs [][2]int) {
	n := len(inputs)
	type prepared struct {
		req   *http.Request
		pred  *quicksel.Predicate
		boxes []geom.Box
	}
	prep := make([]prepared, n)
	for i, in := range inputs {
		est := rp.w.Estimators[in[0]]
		where := est.Pool[in[1]]
		p, err := quicksel.Parse(est.Schema, where)
		if err != nil {
			rp.lr.fail("allocs", err)
			return
		}
		b, _ := p.Boxes(est.Schema)
		prep[i] = prepared{req: httptest.NewRequest(http.MethodGet, estimateURL("", est.Name, where), nil), pred: p, boxes: b}
	}
	rw := &respWriter{h: http.Header{}}
	handler := allocs(n, func(i int) { rw.reset(); rp.m.srv.ServeHTTP(rw, prep[i].req) })
	registry := allocs(n, func(i int) {
		in := inputs[i]
		_, _ = rp.m.reg.Estimate(rp.w.Estimators[in[0]].Name, rp.w.Estimators[in[0]].Pool[in[1]])
	})
	rp.lr.set("server.http_allocs", handler-registry, "count")
	rp.lr.set("server.registry_estimate_allocs", registry, "count")
	rp.lr.set("quicksel.estimate_allocs", allocs(n, func(i int) { _, _ = rp.reps[inputs[i][0]].est.Estimate(prep[i].pred) }), "count")
	rp.lr.set("predicate.parse_allocs", allocs(n, func(i int) {
		est := rp.w.Estimators[inputs[i][0]]
		_, _ = quicksel.Parse(est.Schema, est.Pool[inputs[i][1]])
	}), "count")
	rp.lr.set("predicate.lower_allocs", allocs(n, func(i int) { _, _ = prep[i].pred.Boxes(rp.w.Estimators[inputs[i][0]].Schema) }), "count")
	rp.lr.set("core.kernel_allocs", allocs(n, func(i int) { _, _ = rp.reps[inputs[i][0]].backend.Estimate(prep[i].boxes) }), "count")
}

// registryScaling runs Registry.Estimate on the hottest estimator from one
// goroutine, then from GOMAXPROCS goroutines, for the same wall time each.
func (rp *replayer) registryScaling(window time.Duration) {
	e := rp.w.hottest()
	est := rp.w.Estimators[e]
	run := func(g int) (perOp []float64, opsPerSec float64) {
		var wg sync.WaitGroup
		lats := make([][]float64, g)
		start := time.Now()
		deadline := start.Add(window)
		for k := range g {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for i := k; time.Now().Before(deadline); i++ {
					t0 := time.Now()
					_, err := rp.m.reg.Estimate(est.Name, est.Pool[i%len(est.Pool)])
					lats[k] = append(lats[k], float64(time.Since(t0)))
					if err != nil {
						lats[k] = lats[k][:len(lats[k])-1]
					}
				}
			}(k)
		}
		wg.Wait()
		el := time.Since(start)
		var all []float64
		for _, l := range lats {
			all = append(all, l...)
		}
		return all, float64(len(all)) / el.Seconds()
	}
	_, one := run(1)
	g := runtime.GOMAXPROCS(0)
	lat, many := run(g)
	rp.lr.set("server.registry_estimate_par_ns", summarize(lat, 0.99).P50, "ns")
	rp.lr.set("server.registry_scaling", many/one, "ratio")
	rp.lr.notes = append(rp.lr.notes, fmt.Sprintf("registry scaling on %s: %.0f ops/s at 1 goroutine, %.0f at %d", est.Name, one, many, g))
}

// readLayers runs the read-side replay against the live deployment.
func (rp *replayer) readLayers(seed int64, singles, batches int) {
	dr := &loader{w: rp.w, d: rp.d}
	sIn, bIn := readInputs(rp.w, dr, seed, singles, batches)
	times := rp.singleChain(sIn)
	self := selfTimes(times, chainParents())
	med := func(v []float64) float64 { return summarize(v, 0.5).P50 }
	rp.lr.set("quickselrouter.hop_p50_us", med(self[lRouter])/1e3, "us")
	rp.lr.set("quickselrouter.batch_hop_p50_us", med(rp.batchHops(bIn))/1e3, "us")
	rp.lr.set("quickseld.loopback_p50_us", med(self[lDirect])/1e3, "us")
	rp.lr.set("server.http_self_p50_us", med(self[lHandler])/1e3, "us")
	rp.lr.set("server.registry_estimate_p50_ns", med(times[lRegistry]), "ns")
	rp.lr.set("quicksel.estimate_p50_ns", med(times[lEstimate]), "ns")
	rp.lr.set("predicate.parse_p50_ns", med(times[lParse]), "ns")
	rp.lr.set("predicate.lower_p50_ns", med(times[lLower]), "ns")
	k := summarize(times[lKernel], 0.99)
	rp.lr.set("core.kernel_p50_ns", k.P50, "ns")
	rp.lr.set("core.kernel_p99_ns", k.Tail, "ns")
	if k.short() {
		rp.lr.notes = append(rp.lr.notes, fmt.Sprintf("core.kernel_p99_ns read at p%g (n=%d)", 100*k.TailAt, k.N))
	}
	var sum float64
	for i := lDirect; i < len(chain); i++ {
		sum += med(self[i])
	}
	direct := med(times[lDirect])
	verdict := "ok"
	if math.Abs(sum/direct-1) > selfSumTolerance {
		verdict = "OUTSIDE TOLERANCE"
	}
	rp.lr.notes = append(rp.lr.notes, fmt.Sprintf(
		"self-time check: per-layer self medians below the router sum to %.1fus against a direct-HTTP median of %.1fus (ratio %.3f, tolerance ±%.0f%%): %s",
		sum/1e3, direct/1e3, sum/direct, 100*selfSumTolerance, verdict))
	rp.layerAllocs(sIn)
	rp.registryScaling(300 * time.Millisecond)
}

func chainParents() []int {
	p := make([]int, len(chain))
	for i, c := range chain {
		p[i] = c.parent
	}
	return p
}

// writeLayers replays the workload's feedback in process: observe batches
// and trains on the mirror (WAL on), clones and full trains below it, the
// WAL alone on the records the mirror logged, and the accuracy tracker.
func (rp *replayer) writeLayers(walDir, scratch string) {
	w := rp.w
	n := min(len(w.Feedback), w.ReplayBatches)
	var perRec, trains []float64
	before := trainRuns(rp.m.reg)
	sinceTrain := map[int]int{}
	for i, fb := range w.Feedback[:n] {
		est := w.Estimators[fb.Est]
		batch := make([]server.Observation, len(fb.Recs))
		for k, r := range fb.Recs {
			batch[k] = server.Observation{Where: r.Where, Sel: r.Sel}
		}
		trace := rp.trace
		rp.trace++
		t0 := time.Now()
		_, acc, err := rp.m.reg.ObserveBatch(est.Name, batch)
		d := time.Since(t0)
		rp.span(trace, "server", "observe", "", t0, d)
		if err == nil && acc != len(batch) {
			err = fmt.Errorf("accepted %d of %d", acc, len(batch))
		}
		if err != nil {
			rp.lr.fail("server.observe", err)
			continue
		}
		perRec = append(perRec, float64(d)/float64(len(batch)))
		if sinceTrain[fb.Est]++; sinceTrain[fb.Est] < w.TrainEvery && i < n-1 {
			continue
		}
		sinceTrain[fb.Est] = 0
		t1 := time.Now()
		err = rp.m.reg.Train(est.Name)
		d = time.Since(t1)
		rp.span(trace, "server", "train", "", t1, d)
		if err != nil {
			rp.lr.fail("server.train", err)
			continue
		}
		trains = append(trains, float64(d))
	}
	after := trainRuns(rp.m.reg)
	rp.lr.set("server.observe_ns_per_record", summarize(perRec, 0.5).P50, "ns")
	rp.lr.set("server.train_p50_ms", summarize(trains, 0.5).P50/1e6, "ms")
	runs, incr := after[0]-before[0], after[1]-before[1]
	rp.lr.set("server.train_incremental_frac", float64(incr)/math.Max(1, float64(runs)), "ratio")

	hot := rp.reps[w.hottest()]
	var clones []float64
	for range 20 {
		t0 := time.Now()
		_, err := hot.est.CloneForTraining()
		d := time.Since(t0)
		rp.span(rp.trace, "quicksel", "clone", "", t0, d)
		if err != nil {
			rp.lr.fail("quicksel.clone", err)
		}
		clones = append(clones, float64(d))
	}
	rp.trace++
	rp.lr.set("quicksel.clone_ms", summarize(clones, 0.5).P50/1e6, "ms")
	rp.lr.set("core.train_full_ms", float64(hot.trainFull)/1e6, "ms")

	if err := rp.m.close(); err != nil {
		rp.lr.fail("mirror close", err)
	}
	rp.walLayer(walDir, filepath.Join(scratch, "wal-replay"))
	rp.trackerLayer()
}

// trainRuns sums (train runs, incremental runs) over the mirror's
// estimators.
func trainRuns(reg *server.Registry) [2]uint64 {
	var t [2]uint64
	for _, info := range reg.List() {
		t[0] += info.TrainRuns
		t[1] += info.TrainRunsIncr
	}
	return t
}

// walLayer reads back the observation records the mirror logged and
// appends them to a fresh log in groups of the workload's batch size,
// waiting for each group's durability point.
func (rp *replayer) walLayer(srcDir, dstDir string) {
	src, err := wal.Open(srcDir, wal.Options{})
	if err != nil {
		rp.lr.fail("wal open", err)
		return
	}
	byType := map[byte][]wal.Record{}
	err = src.Replay(0, func(r wal.Record) error {
		byType[r.Type] = append(byType[r.Type], wal.Record{Type: r.Type, Payload: bytes.Clone(r.Payload)})
		return nil
	})
	_ = src.Close() // read only
	if err != nil {
		rp.lr.fail("wal replay", err)
		return
	}
	// Observations are the log's most frequent record type.
	var recs []wal.Record
	for _, rs := range byType {
		if len(rs) > len(recs) {
			recs = rs
		}
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		rp.lr.fail("wal dir", err)
		return
	}
	dst, err := wal.Open(dstDir, wal.Options{})
	if err != nil {
		rp.lr.fail("wal open", err)
		return
	}
	group := len(rp.w.Feedback[0].Recs)
	var perRec []float64
	for i := 0; i < len(recs); i += group {
		g := recs[i:min(i+group, len(recs))]
		t0 := time.Now()
		_, _, wait := dst.Enqueue(g)
		err := wait()
		d := time.Since(t0)
		rp.span(rp.trace, "wal", "append", "", t0, d)
		rp.trace++
		if err != nil {
			rp.lr.fail("wal append", err)
			continue
		}
		perRec = append(perRec, float64(d)/float64(len(g)))
	}
	st := dst.Stats()
	if err := dst.Close(); err != nil {
		rp.lr.fail("wal close", err)
	}
	rp.lr.set("wal.append_ns_per_record", summarize(perRec, 0.5).P50, "ns")
	rp.lr.set("wal.records_per_fsync", float64(st.Appended)/math.Max(1, float64(st.Fsyncs)), "count")
	rp.lr.set("wal.bytes_per_record", float64(st.SizeBytes)/math.Max(1, float64(st.Appended)), "B")
}

// trackerLayer times lifecycle.Tracker.Add on the workload's feedback:
// each record's estimate from the replica against its exact selectivity.
// One call is tens of ns, so calls are timed in chunks of 1000.
func (rp *replayer) trackerLayer() {
	var pairs [][2]float64
	for _, fb := range rp.w.Feedback {
		est := rp.w.Estimators[fb.Est]
		for _, r := range fb.Recs {
			p, err := quicksel.Parse(est.Schema, r.Where)
			if err != nil {
				rp.lr.fail("tracker input", err)
				return
			}
			v, err := rp.reps[fb.Est].est.Estimate(p)
			if err != nil {
				rp.lr.fail("tracker input", err)
				return
			}
			pairs = append(pairs, [2]float64{v, r.Sel})
		}
	}
	tr := lifecycle.NewTracker(lifecycle.Config{}.WithDefaults())
	const chunk = 1000
	var per []float64
	for c := 0; c < 200; c++ {
		t0 := time.Now()
		for i := range chunk {
			p := pairs[(c*chunk+i)%len(pairs)]
			tr.Add(p[0], p[1])
		}
		d := time.Since(t0)
		rp.span(rp.trace, "lifecycle", "tracker_add", "", t0, d)
		per = append(per, float64(d)/chunk)
	}
	rp.trace++
	rp.lr.set("lifecycle.tracker_add_ns", summarize(per, 0.5).P50, "ns")
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
