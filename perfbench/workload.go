package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"quicksel"
	"quicksel/internal/geom"
	"quicksel/internal/workload"
)

// obsRec is one feedback record as the daemons receive it: a WHERE clause
// and the exact selectivity the benchmark computed from its table.
type obsRec struct {
	Where string  `json:"where"`
	Sel   float64 `json:"selectivity"`
}

// estimatorDef is one served estimator: how it is created, the one batch
// it is fed at set-up, and its held-out read queries with their exact
// selectivities.
type estimatorDef struct {
	Name    string
	Schema  *quicksel.Schema
	Options map[string]any // the "options" object of POST /v1/estimators
	Feed    []obsRec
	Pool    []string
	PoolSel []float64

	gen func(*rand.Rand) string // draws one WHERE clause
	tab *table
}

// obsBatch is one observe request of the open-loop feedback stream. Need
// is the estimator's cumulative accepted count once this batch is in: the
// set-up feed plus every earlier batch to the same estimator.
type obsBatch struct {
	Est  int
	Recs []obsRec
	Need uint64
}

// workloadDef is everything one workload sends, generated from the seed
// before any process starts.
type workloadDef struct {
	Name        string
	Shards      int      // quickseld primaries
	Router      bool     // quickselrouter in front of the shards
	WAL         bool     // quickseld runs with -wal-dir (default interval fsync)
	DaemonFlags []string // further flags beyond the defaults, on every quickseld
	Estimators  []*estimatorDef
	zipf        []float64 // cumulative pick probabilities over Estimators

	// Read phase: closed loop, ReadClients clients for the run's seconds.
	// A BatchShare of requests are BatchSize-clause batches; ClusterBatch
	// sends them to the router's multi-estimator endpoint, otherwise to one
	// estimator's batch endpoint.
	ReadClients  int
	BatchShare   float64
	BatchSize    int
	ClusterBatch bool

	// Open-loop phase. Feedback batches arrive at FeedbackRate per second;
	// EstimateRate single estimates and BatchRate batches per second run
	// beside them (zero for the serve workloads, whose reads are closed
	// loop). OpenSeconds is the open-loop phase's length.
	Feedback     []obsBatch
	FeedbackRate float64
	EstimateRate float64
	BatchRate    float64
	OpenSeconds  float64
	PollEvery    time.Duration // versions poll period per estimator

	// Traced run: the first ReplayBatches feedback batches go through the
	// in-process registry, with a Registry.Train per estimator after every
	// TrainEvery of its batches, the batch size its trainer accumulates
	// under the workload's load.
	ReplayBatches int
	TrainEvery    int
}

// Workload names, in the order BENCHMARK.json lists them.
var workloadNames = []string{"serve-light", "serve-heavy", "ingest-retrain"}

// Table sizes and the set-up count. 20000 rows resolve selectivities down
// to 5e-5; setupRuns set-ups per run give setup_s a median.
const (
	tableRows = 20000
	setupRuns = 3
)

// buildWorkload generates a workload's inputs from the seed. seconds sizes
// the open-loop streams that run for the whole measured window.
func buildWorkload(name string, seed int64, seconds float64) (*workloadDef, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "serve-light":
		return buildServeLight(rng)
	case "serve-heavy":
		return buildServeHeavy(rng)
	case "ingest-retrain":
		return buildIngest(rng, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// buildServeLight: 16 small default-budget estimators on two shards behind
// the router, read by closed-loop clients. The kernel is a few µs of a
// ~100µs request here, so router, loopback, HTTP/JSON and parsing dominate;
// a kernel change must predict no change on this workload.
func buildServeLight(rng *rand.Rand) (*workloadDef, error) {
	ic, err := workload.NewInstacart(workload.InstacartConfig{Rows: tableRows, Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	dmv, err := workload.NewDMV(workload.DMVConfig{Rows: tableRows, Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	icTab, dmvTab := newTable(ic), newTable(dmv)
	w := &workloadDef{
		Name: "serve-light", Shards: 2, Router: true,
		ReadClients: readClients(), BatchShare: 0.10, BatchSize: 32, ClusterBatch: true,
		FeedbackRate: 50, PollEvery: 50 * time.Millisecond,
		ReplayBatches: 100, TrainEvery: 1,
	}
	for i := range 16 {
		d := &estimatorDef{Options: map[string]any{"seed": rng.Int63n(1 << 30), "workers": 1}}
		if i%2 == 0 {
			d.Name, d.Schema, d.tab, d.gen = fmt.Sprintf("ic-%d", i/2), ic.Schema, icTab, instacartWhere
		} else {
			d.Name, d.Schema, d.tab, d.gen = fmt.Sprintf("dmv-%d", i/2), dmv.Schema, dmvTab, dmvWhere
		}
		if err := d.fill(rng, 60, 128); err != nil {
			return nil, err
		}
		w.Estimators = append(w.Estimators, d)
	}
	w.zipf = zipfCDF(rng, len(w.Estimators), 1.1)
	return w, w.feedback(rng, 150, 8)
}

// buildServeHeavy: one large Gaussian d=8 estimator on one shard, no
// router. The kernel scan and the per-estimator locks dominate, and set-up
// carries a full train.
func buildServeHeavy(rng *rand.Rand) (*workloadDef, error) {
	g, err := workload.NewGaussian(workload.GaussianConfig{Dim: 8, Corr: 0.5, Rows: tableRows, Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	d := &estimatorDef{
		Name: "heavy", Schema: g.Schema, tab: newTable(g),
		Options: map[string]any{"seed": rng.Int63n(1 << 30), "fixed_subpops": 2000},
	}
	// Train on conjunctions; a quarter of the reads are disjunctions that
	// lower to several boxes.
	d.gen = func(r *rand.Rand) string { return gaussWhere(r, 2, 8) }
	feed, err := d.draw(rng, 200)
	if err != nil {
		return nil, err
	}
	d.Feed = feed
	d.gen = gaussMixedWhere
	pool, err := d.drawHeldOut(rng, 1024)
	if err != nil {
		return nil, err
	}
	d.setPool(pool)
	w := &workloadDef{
		Name: "serve-heavy", Shards: 1, Estimators: []*estimatorDef{d}, zipf: []float64{1},
		ReadClients: readClients(), BatchShare: 0.20, BatchSize: 32,
		FeedbackRate: 100, PollEvery: 50 * time.Millisecond,
		ReplayBatches: 100, TrainEvery: 50,
	}
	return w, w.feedback(rng, 150, 8)
}

// buildIngest: four warm-start DMV estimators on one WAL-backed shard with
// a short train interval, so training rather than the debounce sets
// freshness. Open loop: observe batches of 32 at a fixed record rate below
// the buffer bound, with fixed-rate estimates on the same estimators.
func buildIngest(rng *rand.Rand, seconds float64) (*workloadDef, error) {
	dmv, err := workload.NewDMV(workload.DMVConfig{Rows: tableRows, Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	tab := newTable(dmv)
	w := &workloadDef{
		Name: "ingest-retrain", Shards: 1, WAL: true,
		DaemonFlags:  []string{"-train-interval", "20ms"},
		BatchSize:    32,
		FeedbackRate: 5, EstimateRate: 100, BatchRate: 50, OpenSeconds: seconds,
		PollEvery:     25 * time.Millisecond,
		ReplayBatches: 24, TrainEvery: 1,
	}
	for i := range 4 {
		d := &estimatorDef{
			Name: fmt.Sprintf("ing-%d", i), Schema: dmv.Schema, tab: tab, gen: dmvWhere,
			Options: map[string]any{"seed": rng.Int63n(1 << 30), "fixed_subpops": 1000, "warm_start": true, "workers": 1},
		}
		if err := d.fill(rng, 200, 256); err != nil {
			return nil, err
		}
		w.Estimators = append(w.Estimators, d)
	}
	w.zipf = zipfCDF(rng, len(w.Estimators), 0)
	n := int(math.Ceil(w.FeedbackRate * seconds))
	return w, w.feedback(rng, n, 32)
}

// readClients is the closed-loop client count: one per core, so the load
// never holds more connections than the machine has cores.
func readClients() int { return max(1, nproc()) }

// fill draws the set-up feed and the held-out read pool.
func (d *estimatorDef) fill(rng *rand.Rand, feed, pool int) error {
	f, err := d.draw(rng, feed)
	if err != nil {
		return err
	}
	d.Feed = f
	p, err := d.drawHeldOut(rng, pool)
	if err != nil {
		return err
	}
	d.setPool(p)
	return nil
}

// drawHeldOut draws n read clauses that each select at least qerrorFloor
// of the table. Below the floor a clause's q-error is not defined by its
// rows, and the share of such clauses a seed happens to draw would move
// qerror_p95 more than the model does.
func (d *estimatorDef) drawHeldOut(rng *rand.Rand, n int) ([]obsRec, error) {
	var out []obsRec
	for len(out) < n {
		recs, err := d.draw(rng, n-len(out))
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if r.Sel >= qerrorFloor {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

func (d *estimatorDef) setPool(recs []obsRec) {
	d.Pool, d.PoolSel = make([]string, len(recs)), make([]float64, len(recs))
	for i, r := range recs {
		d.Pool[i], d.PoolSel[i] = r.Where, r.Sel
	}
}

// draw generates n WHERE clauses and their exact selectivities.
func (d *estimatorDef) draw(rng *rand.Rand, n int) ([]obsRec, error) {
	out := make([]obsRec, n)
	for i := range out {
		w := d.gen(rng)
		sel, err := d.tab.selectivity(d.Schema, w)
		if err != nil {
			return nil, fmt.Errorf("%s: generated %q: %w", d.Name, w, err)
		}
		out[i] = obsRec{Where: w, Sel: sel}
	}
	return out, nil
}

// feedback generates the open-loop observe stream: n batches of size
// records, to the estimators in turn, so every model grows alike.
func (w *workloadDef) feedback(rng *rand.Rand, n, size int) error {
	need := make([]uint64, len(w.Estimators))
	for i, d := range w.Estimators {
		need[i] = uint64(len(d.Feed))
	}
	for k := range n {
		e := k % len(w.Estimators)
		recs, err := w.Estimators[e].draw(rng, size)
		if err != nil {
			return err
		}
		need[e] += uint64(size)
		w.Feedback = append(w.Feedback, obsBatch{Est: e, Recs: recs, Need: need[e]})
	}
	return nil
}

// pick draws an estimator index from the workload's skew.
func (w *workloadDef) pick(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range w.zipf {
		if u < c {
			return i
		}
	}
	return len(w.zipf) - 1
}

// zipfCDF returns cumulative Zipf(s) probabilities over n estimators whose
// popularity ranks are a seeded permutation; s = 0 is uniform.
func zipfCDF(rng *rand.Rand, n int, s float64) []float64 {
	rank := rng.Perm(n)
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(rank[i]+1), s)
		total += w[i]
	}
	cdf := make([]float64, n)
	var acc float64
	for i := range w {
		acc += w[i] / total
		cdf[i] = acc
	}
	cdf[n-1] = 1
	return cdf
}

// hottest is the index of the most popular estimator.
func (w *workloadDef) hottest() int {
	best, prev, bestP := 0, 0.0, -1.0
	for i, c := range w.zipf {
		if p := c - prev; p > bestP {
			best, bestP = i, p
		}
		prev = c
	}
	return best
}

// instacartWhere: a few hours of the day crossed with a days-since-prior
// range, like the paper's Instacart queries.
func instacartWhere(rng *rand.Rand) string {
	hw := 2 + rng.Intn(8)
	h := rng.Intn(24 - hw + 1)
	dw := 3 + rng.Intn(16)
	dd := rng.Intn(31 - dw + 1)
	return fmt.Sprintf("order_hour_of_day BETWEEN %d AND %d AND days_since_prior BETWEEN %d AND %d",
		h, h+hw-1, dd, dd+dw-1)
}

// dmvWhere: recent model years crossed with registration and expiration
// windows, like the paper's DMV queries.
func dmvWhere(rng *rand.Rand) string {
	span := func(lo, hi int, center, frac float64) (int, int) {
		w := frac * float64(hi-lo)
		a := int(math.Round(float64(lo) + center*float64(hi-lo) - w/2))
		b := int(math.Round(float64(a) + w))
		return max(a, lo), min(b, hi)
	}
	y0, y1 := span(1960, 2020, 0.55+0.45*rng.Float64(), 0.05+0.35*rng.Float64())
	r0, r1 := span(0, 7300, rng.Float64(), 0.10+0.50*rng.Float64())
	e0, e1 := span(0, 8395, rng.Float64(), 0.10+0.50*rng.Float64())
	return fmt.Sprintf("model_year BETWEEN %d AND %d AND registration_date BETWEEN %d AND %d AND expiration_date BETWEEN %d AND %d",
		y0, y1, r0, r1, e0, e1)
}

// gaussWhere: a conjunction of ranges on lo..hi distinct columns of the
// d=8 Gaussian table, centred on its populated region.
func gaussWhere(rng *rand.Rand, lo, hi int) string {
	k := lo + rng.Intn(hi-lo+1)
	var parts []string
	for _, c := range rng.Perm(8)[:k] {
		ctr := -1.5 + 3*rng.Float64()
		w := 1 + 2.5*rng.Float64()
		parts = append(parts, fmt.Sprintf("x%d BETWEEN %.3f AND %.3f", c, ctr-w/2, ctr+w/2))
	}
	return strings.Join(parts, " AND ")
}

// gaussMixedWhere: three quarters plain conjunctions over 2–8 columns, one
// quarter a disjunction of two, which lowers to several disjoint boxes.
func gaussMixedWhere(rng *rand.Rand) string {
	if rng.Float64() < 0.75 {
		return gaussWhere(rng, 2, 8)
	}
	return "(" + gaussWhere(rng, 2, 4) + ") OR (" + gaussWhere(rng, 2, 4) + ")"
}

// table holds a dataset's rows normalized to the unit cube, for exact
// selectivities of generated clauses.
type table struct{ rows [][]float64 }

func newTable(ds *workload.Dataset) *table {
	t := &table{rows: make([][]float64, ds.Table.Rows())}
	for r := range t.rows {
		t.rows[r] = ds.Schema.NormalizePoint(ds.Table.Row(r))
	}
	return t
}

// selectivity is the exact fraction of rows the clause selects, through
// the same parse and lowering the daemons use.
func (t *table) selectivity(s *quicksel.Schema, where string) (float64, error) {
	p, err := quicksel.Parse(s, where)
	if err != nil {
		return 0, err
	}
	boxes, err := p.Boxes(s)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, row := range t.rows {
		if geom.CoversPoint(boxes, row) {
			n++
		}
	}
	return float64(n) / float64(len(t.rows)), nil
}

// qerrorFloor is the smallest selectivity a held-out clause has and the
// floor an estimate is raised to: 0.1% of the table.
const qerrorFloor = 1e-3

// qerror is max(est/act, act/est) with both sides floored at qerrorFloor.
func qerror(est, act float64) float64 {
	est, act = math.Max(est, qerrorFloor), math.Max(act, qerrorFloor)
	return math.Max(est/act, act/est)
}
