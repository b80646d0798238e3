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

// pullScanProjects moves the projection the planner puts right above a
// scan of a columnar table (catalog.Table.Columnar) to above the
// preferences over it: λ…(C[π(X)]) → π′(λ…(C[X])), C a σ chain and X a
// scan. The preferences then score straight off the column vectors (the
// direct-column score path) and the narrowing copy happens above them,
// where the filter stage (top-k, threshold) copies only the rows it keeps.
//
// π′ is the rewritten operator's original column list. The rewrite is
// declined — plan unchanged — whenever the chain fails to re-resolve or
// any output column reference would be ambiguous against the widened
// schema (restoreColumnOrder's bail-out), so it can never change the
// plan's output schema or semantics. Plans over heap tables are
// unchanged. The pass runs after collapseProjections, so π′ stays its own
// operator: a strategy that materializes every operator (BU) copies it
// where it copied the π it replaces, and the executor composes stacked
// projections into one copy.
func (o *Optimizer) pullScanProjects(n algebra.Node) algebra.Node {
	return algebra.Transform(n, func(x algebra.Node) algebra.Node {
		p, ok := x.(*algebra.Prefer)
		if !ok {
			return x
		}
		chain, spliced := spliceProject(p)
		if !spliced {
			return x
		}
		scan := chainScan(chain)
		if scan == nil || !o.columnar(scan) {
			return x
		}
		return o.restoreColumnOrder(x, chain)
	})
}

// spliceProject removes the first projection under a σ/λ chain, exposing
// its input's full column set to the operators above; ok is false when
// the chain holds no projection. Chain nodes are copied, never mutated.
func spliceProject(n algebra.Node) (algebra.Node, bool) {
	switch x := n.(type) {
	case *algebra.Select:
		in, ok := spliceProject(x.Input)
		if !ok {
			return n, false
		}
		cp := *x
		cp.Input = in
		return &cp, true
	case *algebra.Prefer:
		in, ok := spliceProject(x.Input)
		if !ok {
			return n, false
		}
		cp := *x
		cp.Input = in
		return &cp, true
	case *algebra.Project:
		return x.Input, true
	default:
		return n, false
	}
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

// columnar reports whether scan reads a columnar table, the rule the
// executor's scan builder applies.
func (o *Optimizer) columnar(scan *algebra.Scan) bool {
	t, err := o.Cat.Table(scan.Table)
	return err == nil && t.Columnar()
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

// chainScan unwraps σ/λ chains to their base scan, if any. A remaining
// projection in the chain stops the walk.
func chainScan(n algebra.Node) *algebra.Scan {
	for {
		switch x := n.(type) {
		case *algebra.Scan:
			return x
		case *algebra.Select:
			n = x.Input
		case *algebra.Prefer:
			n = x.Input
		default:
			return nil
		}
	}
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
