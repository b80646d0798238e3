package optimizer

import (
	"strings"

	"prefdb/internal/algebra"
	"prefdb/internal/expr"
)

// pruneColumns implements heuristic 2 (projection pushdown) without
// adding operators, in one top-down pass: each join keeps, through its
// Cols, only the columns of its output that the operators above it read —
// a condition, a join predicate, a preference part, a filter or the root
// projection — and its inputs must keep those columns and what its own
// condition reads. A join key is thus dropped after the last join that
// reads it. The scans stay bare under their selections and preferences,
// which read the scan's rows where they are. Joins under a set operation
// are left alone (both inputs must keep identical layouts), and plans
// without a root projection (SELECT *) are not pruned.
func (o *Optimizer) pruneColumns(plan algebra.Node) algebra.Node {
	if rootProjection(plan) == nil {
		return plan
	}
	resolver := &algebra.Resolver{Catalog: o.Cat, Funcs: o.Funcs}
	var rewrite func(n algebra.Node, above colSet) algebra.Node
	rewrite = func(n algebra.Node, above colSet) algebra.Node {
		switch x := n.(type) {
		case *algebra.Set:
			return n
		case *algebra.Join:
			j, out := pruneJoin(x, above, resolver)
			if out == nil {
				return j // unresolvable: leave the subtree as it is
			}
			n, above = j, colSet{}
			for _, c := range out {
				above.add(c)
			}
		}
		below := above.with(n)
		return rewriteChildren(n, func(c algebra.Node) algebra.Node { return rewrite(c, below) })
	}
	return rewrite(plan, colSet{})
}

// pruneJoin returns j with its Cols narrowed to the columns above reads,
// or j itself when that keeps every column or none, and the columns the
// returned join outputs (nil when j's layout cannot be resolved). Only a
// base relation's columns can be unreferenced: a column of another
// operator's making (a γ's aggregate, a Values leaf) is never recorded,
// so it stays.
func pruneJoin(j *algebra.Join, above colSet, resolver *algebra.Resolver) (*algebra.Join, []expr.Col) {
	// A reordered join's Cols are its output in the unoptimized order.
	cols := j.Cols
	if cols == nil {
		s, err := resolver.Resolve(j)
		if err != nil {
			return j, nil
		}
		for _, c := range s.Columns {
			cols = append(cols, expr.Col{Table: c.Table, Name: c.Name})
		}
	}
	rels := algebra.BaseRelations(j)
	var kept []expr.Col
	for _, c := range cols {
		if !rels[strings.ToLower(c.Table)] || above.has(c) {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 || len(kept) == len(cols) {
		return j, cols
	}
	cp := *j
	cp.Cols = kept
	return &cp, kept
}

// rootProjection returns the projection the plan's output is read from,
// found below the filtering and ordering operators, or nil.
func rootProjection(plan algebra.Node) *algebra.Project {
	n := plan
	for {
		switch x := n.(type) {
		case *algebra.TopK, *algebra.Threshold, *algebra.Skyline,
			*algebra.Rank, *algebra.OrderBy, *algebra.Limit:
			n = x.Children()[0]
		case *algebra.Project:
			return x
		default:
			return nil
		}
	}
}

// colSet is a set of columns, keyed by lower-cased table alias and name.
type colSet map[[2]string]bool

func (s colSet) add(c expr.Col) {
	s[[2]string{strings.ToLower(c.Table), strings.ToLower(c.Name)}] = true
}

func (s colSet) has(c expr.Col) bool {
	return s[[2]string{strings.ToLower(c.Table), strings.ToLower(c.Name)}]
}

// with returns s plus the columns n itself reads, or s when n reads none.
// A qualified reference names its alias; an unqualified one counts for
// every relation in n's subtree, of which only those that have the column
// can keep it. A join's Cols only forward columns, so they read none.
func (s colSet) with(n algebra.Node) colSet {
	var reads []expr.Col
	switch x := n.(type) {
	case *algebra.Select:
		reads = expr.ColumnsOf(x.Cond)
	case *algebra.Join:
		reads = expr.ColumnsOf(x.Cond)
	case *algebra.Project:
		reads = x.Cols
	case *algebra.Prefer:
		reads = append(expr.ColumnsOf(x.P.Cond), expr.ColumnsOf(x.P.Score)...)
	case *algebra.OrderBy:
		for _, k := range x.Keys {
			reads = append(reads, k.Col)
		}
	case *algebra.Skyline:
		for _, d := range x.Dims {
			reads = append(reads, d.Col)
		}
	case *algebra.GroupAgg:
		reads = append(reads, x.By...)
		for _, a := range x.Aggs {
			reads = append(reads, a.Col)
		}
	}
	if len(reads) == 0 {
		return s
	}
	out := make(colSet, len(s)+len(reads))
	for c := range s {
		out[c] = true
	}
	var scope map[string]bool
	for _, c := range reads {
		if c.Table != "" {
			out.add(c)
			continue
		}
		if scope == nil {
			scope = algebra.BaseRelations(n)
		}
		for a := range scope {
			out.add(expr.Col{Table: a, Name: c.Name})
		}
	}
	return out
}
