// Command perfbench is the repository's end-to-end serving benchmark. It
// starts real quickseld and quickselrouter processes, drives one named
// workload from this single load-generator process, checks every answer,
// and prints every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name and unit. The last line of its output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds the
// daemons and this program into .bench_build first:
//
//	bash perfbench/run.sh --workload serve-light --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --selftest
//
// See README.md in this directory for the workloads, the metrics, and the
// held-out seed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"quicksel"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func nproc() int { return runtime.NumCPU() }

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bins     string
	work     string
}

func main() {
	var cfg config
	var trace int
	var selftest bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds: the read phase of the serve workloads, the whole open-loop window of ingest-retrain")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, reporting per-layer metrics")
	flag.StringVar(&cfg.bins, "bin", "", "directory holding the quickseld and quickselrouter binaries")
	flag.StringVar(&cfg.work, "work", "", "directory for daemon state, logs, results and spans")
	flag.BoolVar(&selftest, "selftest", false, "check the benchmark's own arithmetic and exit")
	flag.Parse()
	if selftest {
		if fails := selfCheck(); len(fails) > 0 {
			for _, f := range fails {
				fmt.Println("FAIL", f)
			}
			os.Exit(1)
		}
		fmt.Println("selftest ok")
		return
	}
	cfg.trace = trace == 1
	// The generator shares the machine with the daemons it measures, where
	// a real client would have its own: collecting its garbage less often
	// keeps its CPU out of theirs.
	debug.SetGCPercent(400)
	if cfg.bins == "" || cfg.work == "" || cfg.workload == "" || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -bin, -work, a positive -seconds and -trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run executes one run of one workload and writes its report to log.
func run(cfg config, log io.Writer) (*output, error) {
	w, err := buildWorkload(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-trace%t-%d", w.Name, cfg.seed, cfg.trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	keep := false
	defer func() {
		if !keep {
			_ = os.RemoveAll(dir) // scratch state only
		}
	}()
	origin := time.Now()

	walDir := ""
	if cfg.trace {
		walDir = filepath.Join(dir, "mirror-wal")
	}
	m, err := newMirror(w, walDir)
	if err != nil {
		return nil, fmt.Errorf("in-process registry: %w", err)
	}
	defer m.close()
	var reps []*replica
	if cfg.trace {
		for e, d := range w.Estimators {
			rep, err := newReplica(d)
			if err != nil {
				return nil, fmt.Errorf("replica %s: %w", d.Name, err)
			}
			if err := rep.check(d, m.want[e]); err != nil {
				return nil, fmt.Errorf("replica %s: %w", d.Name, err)
			}
			reps = append(reps, rep)
		}
	}

	// Set-up: process start → /readyz → created, fed, trained → first
	// request answered. Done setupRuns times; the last deployment serves.
	setupClient := newClient(nproc())
	runs := setupRuns
	if cfg.trace {
		runs = 1
	}
	var dep *deployment
	var setups []float64
	for i := range runs {
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err := deploy(setupClient, w, cfg.bins, sub, cfg.trace)
		if err != nil {
			keep = true
			return nil, fmt.Errorf("%w (logs in %s)", err, sub)
		}
		if err := setUp(setupClient, w, d, m.want[0][0]); err != nil {
			d.stop()
			keep = true
			return nil, fmt.Errorf("set-up: %w (logs in %s)", err, sub)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < runs-1 {
			d.stop()
			continue
		}
		dep = d
	}
	defer dep.stop()

	var rp *replayer
	if cfg.trace {
		rp = &replayer{w: w, d: dep, c: newClient(1), m: m, reps: reps, origin: origin,
			lr: &layerRun{metrics: map[string]metric{}}}
		singles := 2000
		if w.Name == "serve-heavy" {
			singles = 1000
		}
		rp.readLayers(cfg.seed, singles, 200)
	}

	// The measured window.
	want := m.want
	if w.ReadClients == 0 {
		want = nil // models change under the open-loop feedback; check ranges only
	}
	dr := newLoader(w, dep, newClient(nproc()), want, cfg.seed, cfg.trace, origin)
	rec := &recorder{}
	var qerrs []float64
	var readElapsed time.Duration
	if w.ReadClients > 0 {
		r, el := dr.closedLoop(cfg.seconds)
		rec.merge(r)
		readElapsed = el
		qerrs = dr.accuracy(rec)
	}
	open := dr.openLoop(dr.schedule(rand.New(rand.NewSource(scheduleSeed(cfg.seed)))), time.Minute)
	rec.merge(open.rec)
	if w.ReadClients == 0 {
		readElapsed = open.elapsed
		dr.trainAll(rec)
		qerrs = dr.accuracy(rec)
	}
	rss, err := dep.shardRSSMB()
	if err != nil {
		return nil, err
	}
	models := readModelStats(dep)

	est := summarizeTimed(rec.single, time.Microsecond, 0.99)
	bat := summarizeTimed(rec.batch, time.Microsecond, 0.99)
	obs := summarizeTimed(rec.observe, time.Millisecond, 0.90)
	fresh := summarize(durations(open.fresh, time.Millisecond), 0.90)
	qe := summarize(qerrs, 0.95)
	late := summarize(durations(rec.late, time.Millisecond), 0.99)
	e2e := map[string]metric{
		"setup_s":          {summarize(setups, 0.5).P50, "s"},
		"estimate_rps":     {float64(rec.answered) / readElapsed.Seconds(), "1/s"},
		"estimate_p50_us":  {est.P50, "us"},
		"estimate_p99_us":  {est.Tail, "us"},
		"batch_p50_us":     {bat.P50, "us"},
		"observe_p50_ms":   {obs.P50, "ms"},
		"observe_p90_ms":   {obs.Tail, "ms"},
		"freshness_p50_ms": {fresh.P50, "ms"},
		"freshness_p90_ms": {fresh.Tail, "ms"},
		"qerror_p50":       {qe.P50, "ratio"},
		"qerror_p95":       {qe.Tail, "ratio"},
		"shard_rss_mb":     {rss, "MB"},
	}

	failed := rec.failed + open.uncovered
	attempted := rec.attempted
	var notes []string
	for _, t := range []struct {
		name string
		s    summary
	}{{"estimate", est}, {"batch", bat}, {"observe", obs}, {"freshness", fresh}, {"qerror", qe}, {"generator lateness", late}} {
		if name, s := t.name, t.s; s.short() {
			notes = append(notes, fmt.Sprintf("%s tail read at p%g: %d samples, p%g needs %d", name, 100*s.TailAt, s.N, 100*s.Want, minSamples(s.Want)))
		}
	}
	if open.uncovered > 0 {
		notes = append(notes, fmt.Sprintf("%d acknowledged observe batches never reached a serving version", open.uncovered))
	}
	errs := rec.errs

	res := &output{Metrics: e2e}
	if cfg.trace {
		rp.lr.set("loadgen.late_p99_ms", late.Tail, "ms")
		rp.writeLayers(walDir, dir)
		res.Metrics = rp.lr.metrics
		failed += rp.lr.failed
		attempted += len(rp.lr.spans)
		errs = append(errs, rp.lr.errs...)
		notes = append(notes, rp.lr.notes...)
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0 && attempted > 0

	facts := hostFacts(cfg, w, models)
	report(log, cfg, res, e2e, facts, notes, errs, map[string]summary{
		"estimate_us": est, "batch_us": bat, "observe_ms": obs, "freshness_ms": fresh, "qerror": qe, "late_ms": late,
	})
	resultsDir := filepath.Join(cfg.work, "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d", w.Name, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace]))
	detail, _ := json.MarshalIndent(map[string]any{
		"result": res, "end_to_end": e2e, "host": facts, "notes": notes, "errors": errs,
		"samples": map[string]summary{"estimate_us": est, "batch_us": bat, "observe_ms": obs, "freshness_ms": fresh, "qerror": qe, "late_ms": late},
	}, "", "  ")
	if err := os.WriteFile(base+".json", detail, 0o644); err != nil {
		return nil, err
	}
	if cfg.trace {
		spans := append(rec.spans, rp.lr.spans...)
		if err := writeSpans(base+".spans.jsonl", spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# spans: %d written to %s\n", len(spans), base+".spans.jsonl")
	}
	return res, nil
}

// check compares the replica's answers on the pool with the registry's.
func (r *replica) check(d *estimatorDef, want []float64) error {
	for q, where := range d.Pool {
		p, err := quicksel.Parse(d.Schema, where)
		if err != nil {
			return err
		}
		got, err := r.est.Estimate(p)
		if err == nil {
			err = checkExact(got, want[q])
		}
		if err != nil {
			return fmt.Errorf("library estimator on %q: %w", where, err)
		}
		boxes, err := p.Boxes(d.Schema)
		if err != nil {
			return err
		}
		got, err = r.backend.Estimate(boxes)
		if err == nil {
			err = checkExact(got, want[q])
		}
		if err != nil {
			return fmt.Errorf("backend on %q: %w", where, err)
		}
	}
	return nil
}

// modelStats reads each shard's estimator list: parameter counts and how
// the estimators trained (full refits against warm-start re-solves).
type modelStats struct {
	params                 map[string]int
	trainRuns, incremental uint64
}

func readModelStats(d *deployment) modelStats {
	st := modelStats{params: map[string]int{}}
	for _, p := range d.shards {
		status, body, err := call(newClient(1), http.MethodGet, p.url+"/v1/estimators", nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		var list struct {
			Estimators []struct {
				Name        string `json:"name"`
				Params      int    `json:"params"`
				TrainRuns   uint64 `json:"train_runs"`
				Incremental uint64 `json:"train_runs_incremental"`
			} `json:"estimators"`
		}
		if json.Unmarshal(body, &list) == nil {
			for _, e := range list.Estimators {
				st.params[e.Name] = e.Params
				st.trainRuns += e.TrainRuns
				st.incremental += e.Incremental
			}
		}
	}
	return st
}

// hostFacts records what every result must carry: cores, Go, source
// revision, seed, and the workload's model sizes and rates.
func hostFacts(cfg config, w *workloadDef, models modelStats) map[string]any {
	total, largest := 0, 0
	for _, p := range models.params {
		total += p
		largest = max(largest, p)
	}
	return map[string]any{
		"nproc":          nproc(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"git_sha":        gitSHA(),
		"source_sha256":  sourceHash(),
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"workload":       w.Name,
		"shards":         w.Shards,
		"router":         w.Router,
		"estimators":     len(w.Estimators),
		"params_total":   total,
		"params_largest": largest,
		"read_clients":   w.ReadClients,
		"batch_share":    w.BatchShare,
		"batch_size":     w.BatchSize,
		"feedback":       fmt.Sprintf("%d batches of %d at %g/s", len(w.Feedback), len(w.Feedback[0].Recs), w.FeedbackRate),
		"open_estimates": fmt.Sprintf("%g/s single, %g/s batches", w.EstimateRate, w.BatchRate),
		"daemon_flags":   strings.Join(w.DaemonFlags, " "),
		"wal":            w.WAL,
		"train_runs":     fmt.Sprintf("%d, %d of them warm-start re-solves", models.trainRuns, models.incremental),
	}
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes the checkout's Go sources and go.mod files, so a result
// names the code it measured even outside a git checkout.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// report prints the human-readable lines before the result line.
func report(log io.Writer, cfg config, res *output, e2e map[string]metric, facts map[string]any, notes, errs []string, samples map[string]summary) {
	keys := func(m map[string]metric) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	var fk []string
	for k := range facts {
		fk = append(fk, k)
	}
	sort.Strings(fk)
	for _, k := range fk {
		fmt.Fprintf(log, "# host %-15s %v\n", k, facts[k])
	}
	for _, k := range []string{"estimate_us", "batch_us", "observe_ms", "freshness_ms", "qerror", "late_ms"} {
		s := samples[k]
		fmt.Fprintf(log, "# samples %-13s n=%-7d p50=%-12.4g p%g=%.4g", k, s.N, s.P50, 100*s.TailAt, s.Tail)
		if s.Segments > 1 {
			fmt.Fprintf(log, " (median of %d segments; over the whole run %.4g)", s.Segments, s.Overall)
		}
		fmt.Fprintln(log)
	}
	title := "end-to-end"
	if cfg.trace {
		title = "end-to-end, traced run (compare with -trace 0 on the same seed for the tracing overhead)"
	}
	fmt.Fprintf(log, "# %s\n", title)
	for _, k := range keys(e2e) {
		fmt.Fprintf(log, "%-34s %14.4f %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	frac := float64(res.Failed) / float64(max(1, res.Attempted))
	// Reported but not metrics of BENCHMARK.json: ops_failed_frac is 0 on a
	// correct run, and batch_p99_us moves more between runs on a shared
	// 2-vCPU host than the largest bound allows (README.md).
	fmt.Fprintf(log, "%-34s %14.6f (%d failed of %d attempted)\n", "ops_failed_frac", frac, res.Failed, res.Attempted)
	fmt.Fprintf(log, "%-34s %14.4f us (not gated)\n", "batch_p99_us", samples["batch_us"].Tail)
	if cfg.trace {
		fmt.Fprintln(log, "# per-layer")
		for _, k := range keys(res.Metrics) {
			fmt.Fprintf(log, "%-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
	}
	for _, n := range notes {
		fmt.Fprintln(log, "# note:", n)
	}
	for _, e := range errs {
		fmt.Fprintln(log, "# error:", e)
	}
}
