package core

import (
	"fmt"
	"math"
	"math/rand"

	"quicksel/internal/geom"
)

// SnapshotVersion is the current serialization format version. Restore
// rejects snapshots with a different version rather than guessing.
const SnapshotVersion = 1

// maxRngDraws bounds Snapshot.RngDraws at restore time (the fast-forward
// is linear in it). 2^33 draws replay in tens of seconds worst case; real
// models stay orders of magnitude below.
const maxRngDraws = 1 << 33

// SnapshotBox is the serialized form of a geom.Box.
type SnapshotBox struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

func boxToSnapshot(b geom.Box) SnapshotBox {
	c := b.Clone()
	return SnapshotBox{Lo: c.Lo, Hi: c.Hi}
}

func (s SnapshotBox) box() geom.Box {
	return geom.Box{Lo: s.Lo, Hi: s.Hi}.Clone()
}

// SnapshotObservation is one serialized training record: the lowered
// predicate box, the observed selectivity, and the workload-aware points
// drawn inside the box at observation time. Persisting the points keeps
// post-restore retraining deterministic: the center pool of §3.3 is rebuilt
// from exactly the same candidates.
type SnapshotObservation struct {
	Lo  []float64 `json:"lo"`
	Hi  []float64 `json:"hi"`
	Sel float64   `json:"sel"`
	// Weight is the coreset weight: how many raw feedback records this one
	// stands for. Omitted when 1 (the uncoalesced default), so snapshots
	// from models without an observation cap are byte-identical to the
	// pre-coreset format; absent means 1 on restore.
	Weight float64     `json:"weight,omitempty"`
	Points [][]float64 `json:"points,omitempty"`
}

// SnapshotConfig mirrors Config with stable JSON names, decoupling the
// serialized format from the Go struct.
type SnapshotConfig struct {
	Dim                int     `json:"dim"`
	SubpopsPerQuery    int     `json:"subpops_per_query"`
	MaxSubpops         int     `json:"max_subpops"`
	FixedSubpops       int     `json:"fixed_subpops,omitempty"`
	PointsPerPredicate int     `json:"points_per_predicate"`
	NearestCenters     int     `json:"nearest_centers"`
	Lambda             float64 `json:"lambda"`
	Seed               int64   `json:"seed"`
	UseIterativeSolver bool    `json:"use_iterative_solver,omitempty"`
	// Workers is a runtime knob, not model state — every worker count trains
	// bit-identically — but it is persisted so a restored model (and the
	// serving daemon's snapshot-clone retraining path) keeps the operator's
	// parallelism cap.
	Workers int `json:"workers,omitempty"`
	// Warm-start and coreset knobs (all zero before envelope v5). The warm
	// factorization itself is not serialized — it is O(m²) floats and
	// cheaper to rebuild than to ship — so a restored model's first retrain
	// is always full.
	WarmStart       bool    `json:"warm_start,omitempty"`
	MaxObservations int     `json:"max_observations,omitempty"`
	MergeThreshold  float64 `json:"merge_threshold,omitempty"`
}

func configToSnapshot(c Config) SnapshotConfig {
	return SnapshotConfig{
		Dim:                c.Dim,
		SubpopsPerQuery:    c.SubpopsPerQuery,
		MaxSubpops:         c.MaxSubpops,
		FixedSubpops:       c.FixedSubpops,
		PointsPerPredicate: c.PointsPerPredicate,
		NearestCenters:     c.NearestCenters,
		Lambda:             c.Lambda,
		Seed:               c.Seed,
		UseIterativeSolver: c.UseIterativeSolver,
		Workers:            c.Workers,
		WarmStart:          c.WarmStart,
		MaxObservations:    c.MaxObservations,
		MergeThreshold:     c.MergeThreshold,
	}
}

func (s SnapshotConfig) config() Config {
	return Config{
		Dim:                s.Dim,
		SubpopsPerQuery:    s.SubpopsPerQuery,
		MaxSubpops:         s.MaxSubpops,
		FixedSubpops:       s.FixedSubpops,
		PointsPerPredicate: s.PointsPerPredicate,
		NearestCenters:     s.NearestCenters,
		Lambda:             s.Lambda,
		Seed:               s.Seed,
		UseIterativeSolver: s.UseIterativeSolver,
		Workers:            s.Workers,
		WarmStart:          s.WarmStart,
		MaxObservations:    s.MaxObservations,
		MergeThreshold:     s.MergeThreshold,
	}
}

// Snapshot is the complete serializable state of a Model: configuration,
// every observation (with its workload-aware points), the trained
// subpopulations and weights, and the PRNG stream position. A restored
// model produces bit-identical estimates without retraining, and — because
// RngDraws fast-forwards the deterministic stream to where the original
// left off — continues observing and retraining bit-identically too, which
// is what lets the write-ahead log replay a snapshot-plus-suffix into the
// exact state of an uncrashed run. Snapshots from builds that predate
// RngDraws restore with the stream reset to the seed (their historical
// behaviour).
type Snapshot struct {
	Version       int                   `json:"version"`
	Config        SnapshotConfig        `json:"config"`
	DefaultPoints [][]float64           `json:"default_points"`
	Observations  []SnapshotObservation `json:"observations"`
	Subpops       []SnapshotBox         `json:"subpops,omitempty"`
	Weights       []float64             `json:"weights,omitempty"`
	Trained       bool                  `json:"trained"`
	RngDraws      uint64                `json:"rng_draws,omitempty"`
}

func copyPoints(pts [][]float64) [][]float64 {
	if pts == nil {
		return nil
	}
	out := make([][]float64, len(pts))
	for i, p := range pts {
		q := make([]float64, len(p))
		copy(q, p)
		out[i] = q
	}
	return out
}

// Snapshot exports the model's full state. The returned value shares no
// storage with the model; it can be marshaled to JSON and handed to Restore
// in another process.
func (m *Model) Snapshot() *Snapshot {
	s := &Snapshot{
		Version:       SnapshotVersion,
		Config:        configToSnapshot(m.cfg),
		DefaultPoints: copyPoints(m.defaultPoints),
		Trained:       m.view != nil,
		RngDraws:      m.src.n,
	}
	s.Observations = make([]SnapshotObservation, len(m.observations))
	for i, o := range m.observations {
		b := boxToSnapshot(o.box)
		so := SnapshotObservation{
			Lo:     b.Lo,
			Hi:     b.Hi,
			Sel:    o.sel,
			Points: copyPoints(o.points),
		}
		if o.weight != 1 {
			so.Weight = o.weight
		}
		s.Observations[i] = so
	}
	if len(m.subpops) > 0 {
		s.Subpops = make([]SnapshotBox, len(m.subpops))
		for i, b := range m.subpops {
			s.Subpops[i] = boxToSnapshot(b)
		}
		s.Weights = make([]float64, len(m.weights))
		copy(s.Weights, m.weights)
	}
	return s
}

// Restore rebuilds a Model from a snapshot, validating the format version,
// dimensions, and internal consistency. The restored model estimates
// identically to the snapshotted one and — with the stream fast-forwarded
// to Snapshot.RngDraws — keeps observing and training bit-identically.
func Restore(s *Snapshot) (*Model, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	cfg := s.Config.config()
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("core: snapshot Dim must be >= 1, got %d", cfg.Dim)
	}
	if cfg.Lambda < 0 || math.IsNaN(cfg.Lambda) {
		return nil, fmt.Errorf("core: snapshot has invalid Lambda %g", cfg.Lambda)
	}
	if cfg.FixedSubpops < 0 || cfg.SubpopsPerQuery < 0 || cfg.MaxSubpops < 0 ||
		cfg.PointsPerPredicate < 0 || cfg.NearestCenters < 0 || cfg.Workers < 0 ||
		cfg.MaxObservations < 0 {
		return nil, fmt.Errorf("core: snapshot has negative configuration value")
	}
	if cfg.MergeThreshold < 0 || cfg.MergeThreshold > 1 || math.IsNaN(cfg.MergeThreshold) {
		return nil, fmt.Errorf("core: snapshot MergeThreshold %g outside [0,1]", cfg.MergeThreshold)
	}
	if len(s.Weights) != len(s.Subpops) {
		return nil, fmt.Errorf("core: snapshot has %d weights for %d subpopulations",
			len(s.Weights), len(s.Subpops))
	}
	// Fast-forwarding is linear in RngDraws, so bound it: a legitimate
	// model draws ~PointsPerPredicate×Dim per observation plus one shuffle
	// per training run — even years of heavy traffic stay far below this —
	// while a corrupt or hostile value (the field is the one uint64 no
	// other validation constrains) must not hang Restore.
	if s.RngDraws > maxRngDraws {
		return nil, fmt.Errorf("core: snapshot rng_draws %d exceeds the %d bound (corrupt snapshot?)", s.RngDraws, uint64(maxRngDraws))
	}
	src := &countingSource{src: rand.NewSource(cfg.Seed)}
	for i := uint64(0); i < s.RngDraws; i++ {
		src.src.Int63() // fast-forward without inflating the count
	}
	src.n = s.RngDraws
	m := &Model{
		cfg:  cfg.withDefaults(),
		rng:  rand.New(src),
		src:  src,
		unit: geom.Unit(cfg.Dim),
	}
	checkPoint := func(p []float64, what string) error {
		if len(p) != cfg.Dim {
			return fmt.Errorf("core: snapshot %s point has dim %d, model has %d", what, len(p), cfg.Dim)
		}
		for _, v := range p {
			if math.IsNaN(v) {
				return fmt.Errorf("core: snapshot %s point has NaN coordinate", what)
			}
		}
		return nil
	}
	for _, p := range s.DefaultPoints {
		if err := checkPoint(p, "default"); err != nil {
			return nil, err
		}
	}
	m.defaultPoints = copyPoints(s.DefaultPoints)
	m.observations = make([]observation, len(s.Observations))
	for i, o := range s.Observations {
		box := SnapshotBox{Lo: o.Lo, Hi: o.Hi}.box()
		if box.Dim() != cfg.Dim {
			return nil, fmt.Errorf("core: snapshot observation %d has dim %d, model has %d", i, box.Dim(), cfg.Dim)
		}
		if err := box.Validate(); err != nil {
			return nil, fmt.Errorf("core: snapshot observation %d: %w", i, err)
		}
		if math.IsNaN(o.Sel) {
			return nil, fmt.Errorf("core: snapshot observation %d has NaN selectivity", i)
		}
		sel := o.Sel
		if sel < 0 {
			sel = 0
		}
		if sel > 1 {
			sel = 1
		}
		for _, p := range o.Points {
			if err := checkPoint(p, fmt.Sprintf("observation %d", i)); err != nil {
				return nil, err
			}
		}
		weight := o.Weight
		if weight == 0 {
			weight = 1 // pre-coreset snapshots omit the field
		}
		if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
			return nil, fmt.Errorf("core: snapshot observation %d has invalid weight %g", i, o.Weight)
		}
		m.observations[i] = observation{
			box:    box.Clip(m.unit),
			sel:    sel,
			weight: weight,
			points: copyPoints(o.Points),
		}
	}
	if len(s.Subpops) > 0 {
		m.subpops = make([]geom.Box, len(s.Subpops))
		for i, sb := range s.Subpops {
			box := sb.box()
			if box.Dim() != cfg.Dim {
				return nil, fmt.Errorf("core: snapshot subpopulation %d has dim %d, model has %d", i, box.Dim(), cfg.Dim)
			}
			if err := box.Validate(); err != nil {
				return nil, fmt.Errorf("core: snapshot subpopulation %d: %w", i, err)
			}
			if box.Volume() == 0 {
				return nil, fmt.Errorf("core: snapshot subpopulation %d has zero volume", i)
			}
			m.subpops[i] = box
		}
		m.weights = make([]float64, len(s.Weights))
		for i, w := range s.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("core: snapshot weight %d is not finite", i)
			}
			m.weights[i] = w
		}
	}
	// Republish the read view so a restored model estimates on the same
	// compiled path as a freshly trained one.
	if s.Trained {
		m.publish()
	}
	return m, nil
}
