// Package opt implements the sparse optimizers used server-side by the
// parameter server: AdaGrad (the paper's optimizer, §VI-A) and plain SGD.
//
// Optimizer state is per-row and owned by whoever owns the embedding row
// (the PS shard), mirroring DGL-KE's design where the server applies
// gradients pushed by workers. The owner names each row by a dense slot of
// its own key space, and stateful optimizers keep their state in a table
// indexed by it, as DGL-KE indexes its dense optimizer-state tensors by id.
package opt

import (
	"fmt"

	"hetkg/internal/vec"
)

// Optimizer applies a gradient to one embedding row in place. The training
// objective is *maximized* via loss gradients that already carry their sign,
// so Apply always performs descent: param -= lr * step(grad).
type Optimizer interface {
	// Name identifies the optimizer.
	Name() string
	// Apply updates row in place given its gradient. slot is the row's
	// dense index in its owner's key space (a shard's local slot, an entity
	// or relation id): stateful optimizers keep the row's state at that
	// index, allocated on the slot's first Apply. Rows of different widths
	// may share an optimizer as long as each slot keeps a consistent width.
	Apply(slot int, row, grad []float32)
	// Reset drops all accumulated state.
	Reset()
}

// ApplyFinite applies grad to row through o unless grad holds a NaN or an
// infinity, which it drops: asynchronous training can transiently explode,
// and one bad gradient must not poison a row. A parameter-server shard and
// a worker's hot cache both apply through it, so a cached replica never
// takes a gradient its shard refuses.
func ApplyFinite(o Optimizer, slot int, row, grad []float32) {
	if vec.IsFinite(grad) {
		o.Apply(slot, row, grad)
	}
}

// stateSlot grows table to hold slot and returns it; new entries are zero
// (no state yet).
func stateSlot[T any](table []T, slot int) []T {
	if slot >= len(table) {
		table = append(table, make([]T, slot+1-len(table))...)
	}
	return table
}

// New constructs an optimizer by name ("adagrad", "sgd", or "adam").
func New(name string, lr float32) (Optimizer, error) {
	switch name {
	case "adagrad":
		return NewAdaGrad(lr, 1e-10), nil
	case "sgd":
		return &SGD{LR: lr}, nil
	case "adam":
		return NewAdam(lr), nil
	default:
		return nil, fmt.Errorf("opt: unknown optimizer %q", name)
	}
}

// SGD is plain stochastic gradient descent: row -= lr*grad.
type SGD struct {
	LR float32
}

// Name implements Optimizer.
func (*SGD) Name() string { return "sgd" }

// Apply implements Optimizer.
func (o *SGD) Apply(_ int, row, grad []float32) {
	for i, g := range grad {
		row[i] -= o.LR * g
	}
}

// Reset implements Optimizer. SGD is stateless.
func (o *SGD) Reset() {}
