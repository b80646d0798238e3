package optimizer

import (
	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
)

// Score-cache heuristic thresholds. A prefer operator's ⟨S,C⟩ contribution
// depends only on the attributes its conditional and scoring parts read;
// memoizing it per distinct key pays off exactly when that key set has far
// fewer distinct values than the relation has rows (ndv(attrs) ≪ |R|).
const (
	// scoreCacheMinRows is the smallest estimated input for which caching
	// is considered: below it the memo's bookkeeping costs more than the
	// handful of evaluations it saves.
	scoreCacheMinRows = 1024
	// scoreCacheMinRatio requires |R| ≥ ratio × ndv(attrs), i.e. each
	// distinct key must amortize over at least this many tuples.
	scoreCacheMinRatio = 8
	// scoreCacheMaxNDV caps the estimated key count at the executor's
	// per-operator memo bound — beyond it the memo would degrade anyway.
	scoreCacheMaxNDV = 1 << 16
)

// annotateScoreCache marks every prefer operator whose key attributes have
// low enough cardinality for score memoization to be profitable, recording
// the estimated ndv for EXPLAIN. The executor memoizes exactly the
// operators so marked.
func (o *Optimizer) annotateScoreCache(n algebra.Node) algebra.Node {
	return algebra.Transform(n, func(x algebra.Node) algebra.Node {
		p, ok := x.(*algebra.Prefer)
		if !ok {
			return x
		}
		ndv, ok := o.scoreCacheNDV(p.P)
		if !ok {
			return x
		}
		rows := o.estimateRows(p.Input)
		if rows < scoreCacheMinRows || float64(ndv)*scoreCacheMinRatio > rows || ndv > scoreCacheMaxNDV {
			return x
		}
		cp := *p
		cp.CacheHint = true
		cp.CacheNDV = ndv
		return &cp
	})
}

// scoreCacheNDV estimates the number of distinct key projections a
// preference produces, as the product of the catalog distinct-counts of
// every column its conditional and scoring parts read. It reports !ok when
// any column cannot be resolved to a target table, has no statistics, or
// saturated the distinct tracker (unknown-large cardinality): the
// heuristic then refuses to cache rather than guess.
func (o *Optimizer) scoreCacheNDV(p pref.Preference) (int, bool) {
	cols := append(expr.ColumnsOf(p.Cond), expr.ColumnsOf(p.Score)...)
	if len(p.On) == 0 {
		return 0, false
	}
	tables := make([]*catalog.Table, 0, len(p.On))
	for _, rel := range p.On {
		t, err := o.Cat.Table(rel)
		if err != nil {
			return 0, false
		}
		tables = append(tables, t)
	}
	type colKey struct {
		table string
		ord   int
	}
	seen := map[colKey]bool{}
	ndv := 1
	for _, c := range cols {
		var owner *catalog.Table
		ord := -1
		for _, t := range tables {
			if idx, err := t.Schema().IndexOf("", c.Name); err == nil {
				owner, ord = t, idx
				break
			}
		}
		if owner == nil {
			return 0, false
		}
		k := colKey{table: owner.Name, ord: ord}
		if seen[k] {
			continue
		}
		seen[k] = true
		st := owner.Stats()
		if ord >= len(st.Columns) {
			return 0, false
		}
		if st.Columns[ord].DistinctSaturated() {
			return 0, false // saturated tracker: cardinality unknown-large
		}
		d := st.Columns[ord].Distinct
		if d < 1 {
			d = 1
		}
		if ndv > scoreCacheMaxNDV/d {
			return scoreCacheMaxNDV + 1, true // overflow guard; caller rejects
		}
		ndv *= d
	}
	return ndv, true
}
