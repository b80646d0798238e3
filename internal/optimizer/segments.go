package optimizer

import (
	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/colstore"
	"prefdb/internal/expr"
)

// annotateSegments marks filtered scans of tables whose columnar segment
// store is built and current with the zone-map pruning estimate: how many
// segments the store holds and how many the filter's conjuncts disqualify
// on min/max metadata alone (EXPLAIN renders `[segments N skip≈M]`).
// The pass never builds a store itself — the next scan of a columnar
// table rebuilds a stale one — so plans over heap tables are unchanged.
// A derived σ runs as a filter above the scan, so it prunes nothing.
func (o *Optimizer) annotateSegments(n algebra.Node) algebra.Node {
	return algebra.Transform(n, func(x algebra.Node) algebra.Node {
		sel, ok := x.(*algebra.Select)
		if !ok || sel.Derived {
			return x
		}
		scan, ok := sel.Input.(*algebra.Scan)
		if !ok {
			return x
		}
		t, err := o.Cat.Table(scan.Table)
		if err != nil {
			return x
		}
		st := t.ColStoreIfBuilt()
		if st == nil {
			return x
		}
		s := t.Schema().Rename(scan.AliasName())
		preds := colstore.PredsFrom(s, expr.Conjuncts(sel.Cond))
		segments, skipped := st.EstimateSkip(preds)
		if segments == 0 {
			return x
		}
		cp := *scan
		cp.SegCount = segments
		cp.SegSkip = skipped
		// Direct-column eligibility: the filter compiled at least one
		// kernel that runs on borrowed segment vectors, so a colstore
		// scan in direct mode evaluates it without materializing rows.
		if c, err := expr.CompileCondition(sel.Cond, s, o.Funcs); err == nil && c.CanFilterCols() {
			cp.DirectCol = true
		}
		return &algebra.Select{Cond: sel.Cond, Input: &cp}
	})
}

// annotateBuildSide marks each equi-join to build its hash table on the
// input with the smaller estimated cardinality (EXPLAIN renders
// `[build-right]`): the bucket table holds the smaller input and the
// larger one streams past it. Left-deep plans put the growing
// intermediate on the left, so every join after the first usually builds
// on its base table. Ties and joins whose estimates rest on a fallback
// guess keep building left.
func (o *Optimizer) annotateBuildSide(n algebra.Node) algebra.Node {
	return algebra.Transform(n, func(x algebra.Node) algebra.Node {
		j, ok := x.(*algebra.Join)
		if !ok || j.Cond == nil || !hasEquiPair(j.Cond) {
			return x
		}
		l, lKnown := o.estimate(j.Left)
		r, rKnown := o.estimate(j.Right)
		if !lKnown || !rKnown || r >= l {
			return x
		}
		cp := *j
		cp.BuildRight = true
		return &cp
	})
}

// hasEquiPair reports whether at least one conjunct is a column-column
// equality — the shape the executor splits into hash-join keys.
func hasEquiPair(cond expr.Node) bool {
	for _, c := range expr.Conjuncts(cond) {
		if b, ok := c.(expr.Bin); ok && b.Op == expr.OpEq {
			_, lok := b.L.(expr.Col)
			_, rok := b.R.(expr.Col)
			if lok && rok {
				return true
			}
		}
	}
	return false
}

// zoneRowBound upper-bounds a filtered scan's output cardinality using
// zone maps: rows the filter can pass live either in a segment its
// conjuncts cannot disqualify or in the unsealed heap tail. The bound is
// exact metadata (not a histogram guess), so estimateRows takes it when
// it is tighter than the statistics-based estimate; it reports !ok when
// the table has no current segment store or no conjunct is prunable.
func (o *Optimizer) zoneRowBound(t *catalog.Table, sel *algebra.Select) (float64, bool) {
	scan, ok := sel.Input.(*algebra.Scan)
	if !ok {
		return 0, false
	}
	st := t.ColStoreIfBuilt()
	if st == nil {
		return 0, false
	}
	preds := colstore.PredsFrom(t.Schema().Rename(scan.AliasName()), expr.Conjuncts(sel.Cond))
	if len(preds) == 0 {
		return 0, false
	}
	surviving := 0
	for _, seg := range st.Segments {
		if seg.Live > 0 && !seg.Skip(preds) {
			surviving += seg.Live
		}
	}
	tail := t.Len() - st.Live()
	if tail < 0 {
		tail = 0
	}
	return float64(surviving + tail), true
}
