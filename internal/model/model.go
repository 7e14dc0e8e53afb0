// Package model implements the knowledge-graph-embedding scoring models the
// HET-KG paper trains (TransE, DistMult) plus the common extensions from its
// related-work discussion (TransH, ComplEx), together with the two loss
// functions of §III-A (logistic and margin ranking).
//
// A Model assigns a plausibility score to a triple given the embedding rows
// of its head, relation, and tail; higher scores mean more plausible.
// Gradients are analytic and accumulate into caller-provided buffers so the
// training loop controls all allocation.
package model

import (
	"fmt"
	"math"
)

// Model scores triples and differentiates the score with respect to the
// three embedding rows involved.
type Model interface {
	// Name identifies the model ("TransE", "DistMult", ...).
	Name() string
	// EntityDim returns the entity embedding width for a base dimension d.
	EntityDim(d int) int
	// RelationDim returns the relation embedding width for base dimension d.
	RelationDim(d int) int
	// Score returns the plausibility of (h, r, t); higher is better.
	Score(h, r, t []float32) float32
	// Grad accumulates dScore * ∂Score/∂{h,r,t} into gh, gr, gt.
	// Any of the gradient buffers may be nil to skip that component.
	Grad(h, r, t []float32, dScore float32, gh, gr, gt []float32)
}

// New returns the model registered under name ("transe", "transe_l2",
// "distmult", "transh", "complex"), case-sensitive lower-case as used by
// the CLI flags.
func New(name string) (Model, error) {
	switch name {
	case "transe", "transe_l1":
		return TransE{Norm: 1}, nil
	case "transe_l2":
		return TransE{Norm: 2}, nil
	case "distmult":
		return DistMult{}, nil
	case "transh":
		return TransH{}, nil
	case "complex":
		return ComplEx{}, nil
	case "rescal":
		return RESCAL{}, nil
	case "hole":
		return HolE{}, nil
	case "rotate":
		return RotatE{}, nil
	default:
		return nil, fmt.Errorf("model: unknown model %q", name)
	}
}

// Names lists the model names accepted by New.
func Names() []string {
	return []string{"transe", "transe_l2", "distmult", "transh", "complex", "rescal", "hole", "rotate"}
}

// BaseDim returns the base dimension d at which m's tables are entDim and
// relDim floats wide. There is none when the tables were trained with a
// different model (or are not a model's tables at all); scoring such rows
// reads past one of them or, worse, silently scores the wrong halves, so
// whoever loads tables it did not build checks here first.
func BaseDim(m Model, entDim, relDim int) (int, error) {
	for d := 1; d <= entDim; d++ { // EntityDim(d) ≥ d for every model
		if m.EntityDim(d) == entDim && m.RelationDim(d) == relDim {
			return d, nil
		}
	}
	return 0, fmt.Errorf("model: no base dimension gives %s entity rows of width %d and relation rows of width %d", m.Name(), entDim, relDim)
}

// Sigmoid is the logistic function, shared by losses and evaluation.
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}
