package core

import (
	"fmt"
	"math"

	"quicksel/internal/geom"
)

// compiledModel is the immutable serving form of a trained model:
// zero-weight subpopulations pruned, each surviving weight pre-divided by
// its box volume, and box bounds packed into a flat structure-of-arrays
// BoxSet. Estimate reduces to one multiply-add per retained subpopulation
// over two contiguous arrays — no pointer chasing, no allocation, no
// division.
type compiledModel struct {
	boxes  *geom.BoxSet
	wOverV []float64 // weight_j / |G_j| per retained subpopulation
}

// compile builds the serving form from trained subpopulations and weights.
// It returns nil when nothing carries weight (the estimate is then 0).
func compile(subpops []geom.Box, weights []float64) *compiledModel {
	nz := 0
	for _, w := range weights {
		if w != 0 {
			nz++
		}
	}
	if nz == 0 {
		return nil
	}
	c := &compiledModel{
		boxes:  geom.NewBoxSet(subpops[0].Dim(), nz),
		wOverV: make([]float64, 0, nz),
	}
	for j, w := range weights {
		if w == 0 {
			continue
		}
		c.boxes.Append(subpops[j])
		c.wOverV = append(c.wOverV, w/subpops[j].Volume())
	}
	return c
}

// estimate returns Σ_j (w_j/|G_j|)·|B ∩ G_j| for the clipped query corners.
// The caller clamps the result to [0, 1].
//
// The kernel is branchless: every side is clamped at 0 and multiplied in,
// with no early exit on an empty side. It reproduces the early-exit
// BoxSet.CornersIntersectionVolume sum bit for bit — a non-positive side
// makes v a +0 either way, and the positive sides multiply in the same
// ascending-dimension order. A NaN query corner, which the early-exit
// comparisons ignored, is first widened in place to ∓Inf so it stays
// ignored (builtin min and max would propagate it).
func (c *compiledModel) estimate(qlo, qhi []float64) float64 {
	d := c.boxes.Dim()
	qlo, qhi = qlo[:d], qhi[:d]
	for k := range qlo {
		if math.IsNaN(qlo[k]) {
			qlo[k] = math.Inf(-1)
		}
		if math.IsNaN(qhi[k]) {
			qhi[k] = math.Inf(1)
		}
	}
	lo, hi := c.boxes.Lo, c.boxes.Hi
	var est float64
	for j, wv := range c.wOverV {
		blo, bhi := lo[j*d:j*d+d], hi[j*d:j*d+d]
		v := 1.0
		for k := range blo {
			v *= max(0, min(qhi[k], bhi[k])-max(qlo[k], blo[k]))
		}
		est += wv * v
	}
	return est
}

// maxStackDim bounds the dimensionality whose clipped query corners live in
// a stack array; wider models allocate them per call.
const maxStackDim = 16

// View is the immutable read side of a trained Model: the compiled mixture,
// the domain it clips queries to, and whether the model is still the
// uniform prior. Train, Restore and Clone publish a fresh View and nothing
// mutates one afterwards, so any number of goroutines may call its methods
// concurrently without a lock, also while the Model that published it keeps
// observing and training.
type View struct {
	compiled *compiledModel // nil when every weight is zero (estimate 0)
	unit     geom.Box       // [0,1)^d; its dimension is the model's
	uniform  bool           // no subpopulations: the estimate is the clipped volume
}

// Estimate returns the selectivity estimate for a normalized box, clamped
// to [0,1]. With no trained subpopulations the model is the uniform prior,
// whose estimate is the box volume (|B|/|B0| with |B0| = 1). Up to
// maxStackDim dimensions it allocates nothing.
func (v *View) Estimate(box geom.Box) (float64, error) {
	d := v.unit.Dim()
	if box.Dim() != d {
		return 0, fmt.Errorf("core: query box has dim %d, model has %d", box.Dim(), d)
	}
	var loBuf, hiBuf [maxStackDim]float64
	qlo, qhi := loBuf[:], hiBuf[:]
	if d > maxStackDim {
		qlo, qhi = make([]float64, d), make([]float64, d)
	}
	qlo, qhi = qlo[:d], qhi[:d]
	box.ClipInto(v.unit, qlo, qhi)
	if v.uniform {
		vol := 1.0
		for k := range qlo {
			side := qhi[k] - qlo[k]
			if side <= 0 {
				return 0, nil
			}
			vol *= side
		}
		return vol, nil
	}
	if v.compiled == nil {
		return 0, nil
	}
	est := v.compiled.estimate(qlo, qhi)
	if est < 0 {
		est = 0
	}
	if est > 1 {
		est = 1
	}
	return est, nil
}

// EstimateUnion estimates the selectivity of a union of pairwise-disjoint
// boxes (the lowered form of predicates with disjunctions/negations); by
// disjointness the estimates are additive.
func (v *View) EstimateUnion(boxes []geom.Box) (float64, error) {
	var est float64
	for _, b := range boxes {
		e, err := v.Estimate(b)
		if err != nil {
			return 0, err
		}
		est += e
	}
	if est > 1 {
		est = 1
	}
	return est, nil
}
