package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"quicksel"
	"quicksel/internal/estimator"
	"quicksel/internal/geom"
	"quicksel/internal/lifecycle"
	"quicksel/internal/server"
)

// mirror is an in-process server.Server holding the same estimators as
// the daemons, built with the same requests. It answers the correctness
// gate's expected selectivities and is the in-process target of the
// traced run. Its trainer never runs on its own (an hour's debounce, no
// drift alarms), so every model it holds is trained exactly when the
// benchmark says, like the daemons' single set-up train per estimator.
type mirror struct {
	srv   *server.Server
	reg   *server.Registry
	want  [][]float64 // per estimator, per pool query
	close func() error
}

// newMirror builds the mirror; walDir enables its write-ahead log.
func newMirror(w *workloadDef, walDir string) (*mirror, error) {
	srv, err := server.New(server.Config{
		TrainInterval: time.Hour,
		Lifecycle:     lifecycle.Config{DriftThreshold: -1},
		Logger:        slog.New(slog.DiscardHandler),
		WALDir:        walDir,
	})
	if err != nil {
		return nil, err
	}
	m := &mirror{srv: srv, reg: srv.Registry(), close: sync.OnceValue(srv.Close)}
	for _, e := range w.Estimators {
		body, _ := json.Marshal(map[string]any{"name": e.Name, "schema": e.Schema, "options": e.Options})
		steps := []struct {
			method, path string
			body         []byte
			want         int
		}{
			{http.MethodPost, "/v1/estimators", body, http.StatusCreated},
			{http.MethodPost, "/v1/" + e.Name + "/observe", observeBody(e.Feed), http.StatusAccepted},
			{http.MethodPost, "/v1/" + e.Name + "/train", nil, http.StatusOK},
		}
		for _, s := range steps {
			if code, resp := serve(srv, s.method, s.path, s.body); code != s.want {
				m.close()
				return nil, fmt.Errorf("in-process %s %s: status %d: %.200s", s.method, s.path, code, resp)
			}
		}
		want := make([]float64, len(e.Pool))
		for q, where := range e.Pool {
			if want[q], err = m.reg.Estimate(e.Name, where); err != nil {
				m.close()
				return nil, fmt.Errorf("in-process estimate %s %q: %w", e.Name, where, err)
			}
		}
		m.want = append(m.want, want)
	}
	return m, nil
}

// serve runs one request through the handler in process.
func serve(h http.Handler, method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// replica is one estimator rebuilt below the registry: the library
// Estimator the registry would serve and a backend built the same way, each
// fed the set-up batch and trained once, as the registry's trainer does.
type replica struct {
	est       *quicksel.Estimator
	backend   estimator.Backend
	trainFull time.Duration // the backend's full train
}

// newReplica rebuilds estimator d. The registry creates the estimator, then
// trains an untracked clone of it on the pending batch; the replica takes
// the same path, so its answers are bit-identical to the registry's.
func newReplica(d *estimatorDef) (*replica, error) {
	var opts []quicksel.Option
	cfg := estimator.Config{Dim: d.Schema.Dim()}
	if v, ok := d.Options["seed"].(int64); ok {
		opts = append(opts, quicksel.WithSeed(v))
		cfg.Seed = v
	}
	if v, ok := d.Options["fixed_subpops"].(int); ok {
		opts = append(opts, quicksel.WithFixedSubpopulations(v))
		cfg.FixedSubpops = v
	}
	if v, ok := d.Options["workers"].(int); ok {
		opts = append(opts, quicksel.WithWorkers(v))
		cfg.Workers = v
	}
	if v, ok := d.Options["warm_start"].(bool); ok && v {
		opts = append(opts, quicksel.WithWarmStart())
		cfg.WarmStart = true
	}
	base, err := quicksel.New(d.Schema, opts...)
	if err != nil {
		return nil, err
	}
	est, err := base.CloneForTraining()
	if err != nil {
		return nil, err
	}
	backend, err := estimator.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range d.Feed {
		p, err := quicksel.Parse(d.Schema, r.Where)
		if err != nil {
			return nil, err
		}
		if err := est.Observe(p, r.Sel); err != nil {
			return nil, err
		}
		boxes, err := p.Boxes(d.Schema)
		if err != nil {
			return nil, err
		}
		if err := observeBoxes(backend, boxes, r.Sel); err != nil {
			return nil, err
		}
	}
	if err := est.Train(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := backend.Train(); err != nil {
		return nil, err
	}
	return &replica{est: est, backend: backend, trainFull: time.Since(t0)}, nil
}

// observeBoxes feeds one lowered observation to a backend the way the
// library Estimator does: a single box directly, several disjoint boxes
// with the selectivity split by volume.
func observeBoxes(b estimator.Backend, boxes []geom.Box, sel float64) error {
	if len(boxes) == 1 {
		return b.Observe(boxes[0], sel)
	}
	var total float64
	for _, bx := range boxes {
		total += bx.Volume()
	}
	if total == 0 {
		return nil
	}
	for _, bx := range boxes {
		if err := b.Observe(bx, sel*bx.Volume()/total); err != nil {
			return err
		}
	}
	return nil
}
