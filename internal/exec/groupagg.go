// Grouped aggregation over p-relations: γ_{By;Aggs} groups its input by a
// column list and computes count/sum/min/max per group, emitting one
// tuple per distinct key in first-seen order with the unknown pair ⟨⊥,0⟩.
// It reads its input's row views, whether the batches are columnar or not.
package exec

import (
	"fmt"

	"prefdb/internal/algebra"
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

// addTuple folds one tuple into its group, creating the group on first
// sight. It returns false when the materialization guard tripped on a new
// group (the trip is recorded in the guard; drain surfaces it).
func (t *aggTable) addTuple(tuple []types.Value) bool {
	hash := hashCols(tuple, t.byOrds)
	var g *aggGroup
groups:
	for _, c := range t.buckets[hash] {
		for k, o := range t.byOrds {
			if !c.key[k].Equal(tuple[o]) {
				continue groups
			}
		}
		g = c
		break
	}
	if g == nil {
		key := make([]types.Value, len(t.byOrds))
		for k, o := range t.byOrds {
			key[k] = tuple[o]
		}
		g = newAggGroup(key, len(t.aggs))
		t.buckets[hash] = append(t.buckets[hash], g)
		t.order = append(t.order, g)
		if t.meter.row() != nil {
			return false
		}
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
// folding each selected row's tuple into the table in row order. A
// columnar batch's selected rows count into Stats.RowsMaterialized as they
// enter.
type groupAggBatch struct {
	in    batchIter
	tab   *aggTable
	tick  pollTick
	stats *Stats

	built bool
	src   batchIter
	size  int
}

func (g *groupAggBatch) drain() {
batches:
	for {
		b, ok := g.in.nextBatch()
		if !ok || g.tick.stopN(b.Live()) {
			break
		}
		if b.Columnar() {
			g.stats.RowsMaterialized += b.Live()
		}
		rows := b.Rows()
		for _, j := range b.Sel {
			if !g.tab.addTuple(rows[j]) {
				break batches
			}
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
