package catalog

import (
	"sort"
	"strings"

	"prefdb/internal/expr"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// maxDistinctTracked caps exact distinct-value tracking per column; beyond
// it the distinct count keeps growing but most-common-value tracking stops.
const maxDistinctTracked = 4096

// mcvKeep is how many most-common values are retained per column.
const mcvKeep = 16

// histBuckets is the number of equi-depth histogram buckets per numeric
// column.
const histBuckets = 32

// histSampleCap bounds the values collected for histogram construction.
const histSampleCap = 100000

// ValueFreq is one most-common-value entry: a distinct value and its
// occurrence count.
type ValueFreq struct {
	Value types.Value
	Freq  int
}

// ColumnStats summarizes one column's value distribution.
type ColumnStats struct {
	Count    int
	Nulls    int
	Distinct int
	// Min/Max are set for numeric columns.
	HasRange bool
	Min, Max float64
	// MCV lists the most common values with their frequencies, most
	// frequent first. Lookups go through MCVFreq, which applies
	// Value.Equal semantics (ints match integral floats) — the reason
	// this is a short slice rather than a Value-keyed map (see the
	// valueconv convention, DESIGN.md §11).
	MCV []ValueFreq
	// Hist holds equi-depth histogram boundaries for numeric columns
	// (len = buckets+1, ascending); empty when too few values were seen.
	Hist []float64
}

// MCVFreq returns the tracked frequency of v among the most common
// values, matching with Value.Equal (a linear scan over at most mcvKeep
// entries).
func (cs *ColumnStats) MCVFreq(v types.Value) (int, bool) {
	for _, e := range cs.MCV {
		if e.Value.Equal(v) {
			return e.Freq, true
		}
	}
	return 0, false
}

// CDF estimates the fraction of non-null values ≤ x from the equi-depth
// histogram, interpolating linearly within a bucket. It reports ok=false
// when no histogram is available.
func (cs *ColumnStats) CDF(x float64) (float64, bool) {
	h := cs.Hist
	if len(h) < 2 {
		return 0, false
	}
	if x < h[0] {
		return 0, true
	}
	if x >= h[len(h)-1] {
		return 1, true
	}
	// Binary search for the bucket containing x.
	lo, hi := 0, len(h)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if h[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	buckets := float64(len(h) - 1)
	frac := float64(lo) / buckets
	if width := h[lo+1] - h[lo]; width > 0 {
		frac += (x - h[lo]) / width / buckets
	}
	return frac, true
}

// TableStats is per-table statistics: row count plus per-column stats,
// positionally aligned with the schema.
type TableStats struct {
	Rows    int
	Columns []ColumnStats
}

// valueCounter counts occurrences per distinct value. Buckets are keyed
// by Value.Hash and confirmed with Value.Equal, so integral floats and
// ints collapse into one distinct value exactly as they compare equal —
// a Value-keyed map would split them (and strand NaN keys forever).
type valueCounter struct {
	buckets map[uint64][]ValueFreq
	n       int
}

// add counts one occurrence of v, returning the number of distinct values
// tracked so far.
func (c *valueCounter) add(v types.Value) int {
	if c.buckets == nil {
		c.buckets = map[uint64][]ValueFreq{}
	}
	h := v.Hash()
	bucket := c.buckets[h]
	for i := range bucket {
		if bucket[i].Value.Equal(v) {
			bucket[i].Freq++
			return c.n
		}
	}
	c.buckets[h] = append(bucket, ValueFreq{Value: v, Freq: 1})
	c.n++
	return c.n
}

// entries flattens the counter into an unordered ValueFreq slice.
func (c *valueCounter) entries() []ValueFreq {
	out := make([]ValueFreq, 0, c.n)
	for _, bucket := range c.buckets {
		out = append(out, bucket...)
	}
	return out
}

func analyze(t *Table) *TableStats {
	s := t.Schema()
	st := &TableStats{Columns: make([]ColumnStats, s.Len())}
	counts := make([]valueCounter, s.Len())
	samples := make([][]float64, s.Len())
	t.Heap.Scan(func(_ storage.RowID, tuple []types.Value) bool {
		st.Rows++
		for i, v := range tuple {
			cs := &st.Columns[i]
			cs.Count++
			if v.IsNull() {
				cs.Nulls++
				continue
			}
			if v.IsNumeric() {
				f := v.AsFloat()
				if !cs.HasRange {
					cs.HasRange, cs.Min, cs.Max = true, f, f
				} else {
					if f < cs.Min {
						cs.Min = f
					}
					if f > cs.Max {
						cs.Max = f
					}
				}
				if len(samples[i]) < histSampleCap {
					samples[i] = append(samples[i], f)
				}
			}
			if counts[i].n < maxDistinctTracked {
				counts[i].add(v)
			}
		}
		return true
	})
	for i := range st.Columns {
		cs := &st.Columns[i]
		cs.Distinct = counts[i].n
		cs.MCV = topK(counts[i].entries(), mcvKeep)
		cs.Hist = equiDepth(samples[i], histBuckets)
	}
	return st
}

// topK keeps the k highest-frequency entries, most frequent first (ties
// broken by value order so the result is deterministic across map
// iteration orders).
func topK(all []ValueFreq, k int) []ValueFreq {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Freq != all[j].Freq {
			return all[i].Freq > all[j].Freq
		}
		c, _ := types.Compare(all[i].Value, all[j].Value)
		return c < 0
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// equiDepth builds equi-depth histogram boundaries from a value sample:
// boundary j sits at the j/buckets quantile of the sorted sample.
func equiDepth(vals []float64, buckets int) []float64 {
	if len(vals) < 2*buckets {
		return nil // too few values: min/max interpolation is as good
	}
	sort.Float64s(vals)
	out := make([]float64, buckets+1)
	n := len(vals)
	for j := 0; j <= buckets; j++ {
		idx := j * (n - 1) / buckets
		out[j] = vals[idx]
	}
	return out
}

// defaultSel is the selectivity assumed when nothing better is known.
const defaultSel = 1.0 / 3.0

// Selectivity estimates the fraction of a table's rows satisfying cond.
// Unknown shapes fall back to conservative constants, the same role the
// paper's heuristic 5 plays ("ordered in ascending selectivity of their
// conditional parts").
func (t *Table) Selectivity(cond expr.Node) float64 {
	if cond == nil {
		return 1
	}
	st := t.Stats()
	if st.Rows == 0 {
		return 1
	}
	return clamp01(selOf(t, st, cond))
}

func selOf(t *Table, st *TableStats, cond expr.Node) float64 {
	switch n := cond.(type) {
	case expr.Lit:
		if n.Val.Kind() == types.KindBool {
			if n.Val.AsBool() {
				return 1
			}
			return 0
		}
		return defaultSel
	case expr.Bin:
		switch {
		case n.Op == expr.OpAnd:
			return selOf(t, st, n.L) * selOf(t, st, n.R)
		case n.Op == expr.OpOr:
			a, b := selOf(t, st, n.L), selOf(t, st, n.R)
			return a + b - a*b
		case n.Op.IsComparison():
			return selCompare(t, st, n)
		}
		return defaultSel
	case expr.Un:
		if n.Op == expr.OpNot {
			return 1 - selOf(t, st, n.X)
		}
		return defaultSel
	case expr.Between:
		lo, okLo := litFloat(n.Lo)
		hi, okHi := litFloat(n.Hi)
		cs, okCol := columnStats(t, st, n.X)
		if okLo && okHi && okCol && cs.HasRange && cs.Max > cs.Min {
			return rangeFrac(cs, lo, hi)
		}
		return defaultSel * defaultSel
	case expr.In:
		cs, ok := columnStats(t, st, n.X)
		if ok && cs.Distinct > 0 {
			return float64(len(n.List)) / float64(cs.Distinct)
		}
		return defaultSel
	case expr.Like:
		// Prefix patterns are more selective than substring patterns.
		if !strings.HasPrefix(n.Pattern, "%") {
			return 0.05
		}
		return 0.15
	case expr.IsNull:
		cs, ok := columnStats(t, st, n.X)
		if ok && cs.Count > 0 {
			f := float64(cs.Nulls) / float64(cs.Count)
			if n.Negate {
				return 1 - f
			}
			return f
		}
		return 0.05
	default:
		return defaultSel
	}
}

func selCompare(t *Table, st *TableStats, n expr.Bin) float64 {
	// Normalize to column <op> literal.
	col, lit, op, ok := expr.BindColLit(t.Schema(), n)
	if !ok {
		return defaultSel
	}
	cs, okCol := columnStatsCol(t, st, col)
	if !okCol {
		return defaultSel
	}
	switch op {
	case expr.OpEq:
		if freq, ok := cs.MCVFreq(lit); ok && cs.Count > 0 {
			return float64(freq) / float64(cs.Count)
		}
		if cs.Distinct > 0 {
			return 1 / float64(cs.Distinct)
		}
		return defaultSel
	case expr.OpNe:
		if cs.Distinct > 0 {
			return 1 - 1/float64(cs.Distinct)
		}
		return 1 - defaultSel
	default:
		if !cs.HasRange || cs.Max <= cs.Min || !lit.IsNumeric() {
			return defaultSel
		}
		f := lit.AsFloat()
		frac, ok := cs.CDF(f)
		if !ok {
			frac = (f - cs.Min) / (cs.Max - cs.Min)
		}
		switch op {
		case expr.OpLt, expr.OpLe:
			return clamp01(frac)
		default: // OpGt, OpGe
			return clamp01(1 - frac)
		}
	}
}

func columnStats(t *Table, st *TableStats, n expr.Node) (*ColumnStats, bool) {
	c, ok := n.(expr.Col)
	if !ok {
		return nil, false
	}
	return columnStatsCol(t, st, c)
}

func columnStatsCol(t *Table, st *TableStats, c expr.Col) (*ColumnStats, bool) {
	idx, err := t.Schema().IndexOf(c.Table, c.Name)
	if err != nil {
		return nil, false
	}
	return &st.Columns[idx], true
}

func litFloat(n expr.Node) (float64, bool) {
	l, ok := n.(expr.Lit)
	if !ok || !l.Val.IsNumeric() {
		return 0, false
	}
	return l.Val.AsFloat(), true
}

func rangeFrac(cs *ColumnStats, lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	if cLo, ok := cs.CDF(lo); ok {
		cHi, _ := cs.CDF(hi)
		return clamp01(cHi - cLo)
	}
	span := cs.Max - cs.Min
	if span <= 0 {
		return 1
	}
	clo := lo
	if clo < cs.Min {
		clo = cs.Min
	}
	chi := hi
	if chi > cs.Max {
		chi = cs.Max
	}
	if chi < clo {
		return 0
	}
	return (chi - clo) / span
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
