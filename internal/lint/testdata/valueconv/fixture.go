// Fixture for the valueconv analyzer: no struct equality or map keying on
// types.Value, and expr.Func kernels must keep a scalar Eval.
package valueconv

import (
	"prefdb/internal/expr"
	"prefdb/internal/types"
)

// goodEqual compares through the sanctioned helpers.
func goodEqual(a, b types.Value) bool {
	return a.Equal(b) && types.TupleEqual([]types.Value{a}, []types.Value{b})
}

// goodIndex keys by Value.Hash with an Equal confirm, the hash join way.
type goodIndex struct {
	buckets map[uint64][]types.Value
}

func (g *goodIndex) has(v types.Value) bool {
	for _, c := range g.buckets[v.Hash()] {
		if c.Equal(v) {
			return true
		}
	}
	return false
}

// badEqual uses struct equality, which diverges on numeric kinds.
func badEqual(a, b types.Value) bool {
	return a == b // want `types.Value compared with ==`
}

// badKey hashes the struct representation, bypassing the numeric
// normalization of Value.Hash.
var badKey map[types.Value]int // want `map keyed by types.Value`

// badTupleKey hides the Value inside a composite key.
type pairKey struct {
	l, r types.Value
}

var badTupleKey map[pairKey]bool // want `map keyed by types.Value`

// goodFunc pairs the batch kernel with its authoritative scalar path.
var goodFunc = expr.Func{
	Name:    "halve",
	MinArgs: 1, MaxArgs: 1,
	Kind:   types.KindFloat,
	Eval:   func(args []types.Value) types.Value { return types.Float(args[0].AsFloat() / 2) },
	Floats: func(args []float64) float64 { return args[0] / 2 },
}

// badFunc ships only the vectorized path.
var badFunc = expr.Func{ // want `Floats batch kernel without a scalar Eval`
	Name:    "double",
	MinArgs: 1, MaxArgs: 1,
	Kind:   types.KindFloat,
	Floats: func(args []float64) float64 { return args[0] * 2 },
}

// sanctioned documents a deliberate exception.
func sanctioned(a, b types.Value) bool {
	return a != b // prefdb:valueconv-ok identity probe in a test asserting interning
}
