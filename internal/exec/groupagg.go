// Grouped aggregation over p-relations: γ_{By;Aggs} groups its input by a
// column list and computes count/sum/min/max per group, emitting one
// tuple per distinct key in first-seen order with the unknown pair ⟨⊥,0⟩.
//
// The accumulator (aggTable) is fed either tuples or values drawn straight
// from a batch's column vectors — keys hashed per batch with
// expr.HashCols (the same fold as the tuple hash, hashCols) and per-slot
// values materialized as types.Value structs from the vectors
// (expr.ColValue) — so a columnar input aggregates without ever crossing
// the row-view boundary, with results byte-identical to the tuple form.
package exec

import (
	"fmt"

	"prefdb/internal/algebra"
	"prefdb/internal/expr"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// aggGroup is one group's accumulator state, indexed per AggSpec.
type aggGroup struct {
	key []types.Value
	// count: non-NULL values seen (AggCount).
	count []int64
	// sum: exact int64 while every contribution is an INT, float64 from
	// the first FLOAT on (numeric widening, matching expression
	// evaluation); NULL and non-numeric values are skipped.
	sumI    []int64
	sumF    []float64
	sumIsF  []bool
	sumSome []bool
	// min/max under types.Compare; NULLs and values incomparable with the
	// current extreme are skipped.
	extreme    []types.Value
	extremeSet []bool
}

func newAggGroup(key []types.Value, n int) *aggGroup {
	return &aggGroup{
		key:   key,
		count: make([]int64, n), sumI: make([]int64, n), sumF: make([]float64, n),
		sumIsF: make([]bool, n), sumSome: make([]bool, n),
		extreme: make([]types.Value, n), extremeSet: make([]bool, n),
	}
}

func (g *aggGroup) update(j int, fn algebra.AggFn, v types.Value) {
	switch fn {
	case algebra.AggCount:
		if !v.IsNull() {
			g.count[j]++
		}
	case algebra.AggSum:
		if v.IsNull() || !v.IsNumeric() {
			return
		}
		switch {
		case !g.sumSome[j]:
			g.sumSome[j] = true
			if v.Kind() == types.KindInt {
				g.sumI[j] = v.AsInt()
			} else {
				g.sumIsF[j] = true
				g.sumF[j] = v.AsFloat()
			}
		case g.sumIsF[j]:
			g.sumF[j] += v.AsFloat()
		case v.Kind() == types.KindInt:
			g.sumI[j] += v.AsInt()
		default:
			g.sumIsF[j] = true
			g.sumF[j] = float64(g.sumI[j]) + v.AsFloat()
		}
	case algebra.AggMin, algebra.AggMax:
		if v.IsNull() {
			return
		}
		if !g.extremeSet[j] {
			g.extreme[j], g.extremeSet[j] = v, true
			return
		}
		c, ok := types.Compare(v, g.extreme[j])
		if !ok {
			return
		}
		if (fn == algebra.AggMin && c < 0) || (fn == algebra.AggMax && c > 0) {
			g.extreme[j] = v
		}
	}
}

func (g *aggGroup) result(j int, fn algebra.AggFn) types.Value {
	switch fn {
	case algebra.AggCount:
		return types.Int(g.count[j])
	case algebra.AggSum:
		switch {
		case !g.sumSome[j]:
			return types.Null()
		case g.sumIsF[j]:
			return types.Float(g.sumF[j])
		default:
			return types.Int(g.sumI[j])
		}
	default:
		if !g.extremeSet[j] {
			return types.Null()
		}
		return g.extreme[j]
	}
}

// aggTable is the shared group accumulator: a bucket map keyed like the
// hash join (hashCols fold over the By columns) with exact Value.Equal
// key confirmation, groups kept in first-seen order. The table is the
// operator's buffered state and meters each new group against the query's
// materialization budgets.
// prefdb:col-transient
type aggTable struct {
	byOrds  []int
	aggs    []algebra.AggSpec
	aggOrds []int

	buckets map[uint64][]*aggGroup
	order   []*aggGroup
	meter   matTick
}

func newAggTable(byOrds, aggOrds []int, aggs []algebra.AggSpec, g *guard) *aggTable {
	t := &aggTable{byOrds: byOrds, aggs: aggs, aggOrds: aggOrds, buckets: map[uint64][]*aggGroup{}}
	t.meter = matTick{g: g, width: len(byOrds) + len(aggs) + 2}
	return t
}

// group finds or creates the group for a precomputed key hash; keyAt
// yields the k-th By value. Returns nil when the materialization guard
// tripped on a new group (the trip is recorded in the guard; drain
// surfaces it).
func (t *aggTable) group(hash uint64, keyAt func(k int) types.Value) *aggGroup {
	for _, g := range t.buckets[hash] {
		match := true
		for k := range g.key {
			if !g.key[k].Equal(keyAt(k)) {
				match = false
				break
			}
		}
		if match {
			return g
		}
	}
	key := make([]types.Value, len(t.byOrds))
	for k := range key {
		key[k] = keyAt(k)
	}
	g := newAggGroup(key, len(t.aggs))
	t.buckets[hash] = append(t.buckets[hash], g)
	t.order = append(t.order, g)
	if t.meter.row() != nil {
		return nil
	}
	return g
}

// addTuple folds one tuple of a row-form batch into the table.
func (t *aggTable) addTuple(tuple []types.Value) bool {
	g := t.group(hashCols(tuple, t.byOrds), func(k int) types.Value { return tuple[t.byOrds[k]] })
	if g == nil {
		return false
	}
	for j, a := range t.aggs {
		g.update(j, a.Fn, tuple[t.aggOrds[j]])
	}
	return true
}

// emit renders the groups in first-seen order with the unknown pair.
func (t *aggTable) emit() []prel.Row {
	_ = t.meter.flush()
	out := make([]prel.Row, 0, len(t.order))
	for _, g := range t.order {
		tuple := make([]types.Value, 0, len(g.key)+len(t.aggs))
		tuple = append(tuple, g.key...)
		for j, a := range t.aggs {
			tuple = append(tuple, g.result(j, a.Fn))
		}
		out = append(out, prel.Row{Tuple: tuple})
	}
	return out
}

// groupAggBatch is γ over the pipeline: it drains its input batch-wise,
// hashing the By columns off the vectors (expr.HashCols) and accumulating
// agg values straight from the vector slots (expr.ColValue), in row order
// — so the aggTable sees the same update sequence as from tuples. Slot
// values are small Value structs read from borrowed windows; nothing from
// the window is retained past the batch (the group keys are copied),
// upholding the build-side borrow contract.
// prefdb:col-transient
type groupAggBatch struct {
	in   batchIter
	tab  *aggTable
	tick pollTick

	built  bool
	src    batchIter
	hashes []uint64
	ks     expr.KeyScratch
	size   int
}

func (g *groupAggBatch) drain() {
	for {
		b, ok := g.in.nextBatch()
		if !ok {
			break
		}
		if g.tick.stopN(b.Live()) {
			break
		}
		tripped := false
		if b.Columnar() {
			if cap(g.hashes) < len(b.Sel) {
				g.hashes = make([]uint64, len(b.Sel))
			}
			hs := g.hashes[:len(b.Sel)]
			expr.HashCols(b.Cols, b.Sel, g.tab.byOrds, hs, &g.ks)
			cols := b.Cols
			for i, j := range b.Sel {
				grp := g.tab.group(hs[i], func(k int) types.Value {
					return expr.ColValue(&cols[g.tab.byOrds[k]], j)
				})
				if grp == nil {
					tripped = true
					break
				}
				for a, spec := range g.tab.aggs {
					grp.update(a, spec.Fn, expr.ColValue(&cols[g.tab.aggOrds[a]], j))
				}
			}
		} else {
			rows := b.Rows()
			for _, j := range b.Sel {
				if !g.tab.addTuple(rows[j]) {
					tripped = true
					break
				}
			}
		}
		if tripped {
			break
		}
	}
	g.src = newSliceBatchSrc(g.tab.emit(), g.size)
	g.built = true
}

func (g *groupAggBatch) nextBatch() (*prel.Batch, bool) {
	if !g.built {
		g.drain()
	}
	return g.src.nextBatch()
}

// groupAggPlan resolves a GroupAgg node against its input schema: the By
// and agg-argument ordinals plus the output schema (group key columns
// as-is, then one column per aggregate, named by its alias).
func groupAggPlan(x *algebra.GroupAgg, s *schema.Schema) (byOrds, aggOrds []int, out *schema.Schema, err error) {
	byOrds = make([]int, len(x.By))
	cols := make([]schema.Column, 0, len(x.By)+len(x.Aggs))
	for i, c := range x.By {
		idx, iErr := s.IndexOf(c.Table, c.Name)
		if iErr != nil {
			return nil, nil, nil, iErr
		}
		byOrds[i] = idx
		cols = append(cols, s.Columns[idx])
	}
	aggOrds = make([]int, len(x.Aggs))
	for i, a := range x.Aggs {
		idx, iErr := s.IndexOf(a.Col.Table, a.Col.Name)
		if iErr != nil {
			return nil, nil, nil, iErr
		}
		aggOrds[i] = idx
		if a.As == "" {
			return nil, nil, nil, fmt.Errorf("exec: aggregate %s has no output name", a)
		}
		kind := s.Columns[idx].Kind
		switch a.Fn {
		case algebra.AggCount:
			kind = types.KindInt
		case algebra.AggSum:
			if kind != types.KindInt {
				kind = types.KindFloat
			}
		}
		cols = append(cols, schema.Column{Name: a.As, Kind: kind})
	}
	return byOrds, aggOrds, schema.New(cols...), nil
}
