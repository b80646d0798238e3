package optimizer

import (
	"strings"

	"prefdb/internal/algebra"
	"prefdb/internal/expr"
)

// pruneColumns implements heuristic 2 (projection pushdown) without
// adding operators: each join keeps, through its Cols, only the columns
// of its output that something in the plan reads — a condition, a join
// predicate, a preference part, a filter or the root projection. Joins
// run bottom-up, so a join above a pruned one sees its narrowed layout,
// and the scans stay bare under their selections and preferences, which
// read the scan's rows where they are. Joins under a set operation are
// left alone (both inputs must keep identical layouts), and plans without
// a root projection (SELECT *) are not pruned.
func (o *Optimizer) pruneColumns(plan algebra.Node) algebra.Node {
	if rootProjection(plan) == nil {
		return plan
	}
	needed := collectNeededColumns(plan)
	resolver := &algebra.Resolver{Catalog: o.Cat, Funcs: o.Funcs}
	var rewrite func(n algebra.Node) algebra.Node
	rewrite = func(n algebra.Node) algebra.Node {
		if _, ok := n.(*algebra.Set); ok {
			return n
		}
		n = rewriteChildren(n, rewrite)
		j, ok := n.(*algebra.Join)
		if !ok {
			return n
		}
		// A reordered join's Cols are its output; the joins below may
		// have dropped some of them, but only columns nothing reads.
		cols := j.Cols
		if cols == nil {
			s, err := resolver.Resolve(j)
			if err != nil {
				return n
			}
			for _, c := range s.Columns {
				cols = append(cols, expr.Col{Table: c.Table, Name: c.Name})
			}
		}
		// Only a base relation's columns can be unreferenced: a column
		// of another operator's making (a γ's aggregate, a Values leaf)
		// is never recorded, so it stays.
		rels := algebra.BaseRelations(j)
		var kept []expr.Col
		for _, c := range cols {
			table := strings.ToLower(c.Table)
			if !rels[table] || needed[table][strings.ToLower(c.Name)] {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 || len(kept) == len(cols) {
			return n
		}
		cp := *j
		cp.Cols = kept
		return &cp
	}
	return rewrite(plan)
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

// collectNeededColumns gathers, per table alias, the set of column names
// referenced anywhere in the plan. A qualified reference names its alias;
// an unqualified one counts for every relation in scope where it appears
// (the operator's subtree), of which only those that have the column can
// keep it. A join's Cols only forward columns, so they consume none.
func collectNeededColumns(plan algebra.Node) map[string]map[string]bool {
	needed := map[string]map[string]bool{}
	add := func(alias, name string) {
		if needed[alias] == nil {
			needed[alias] = map[string]bool{}
		}
		needed[alias][name] = true
	}
	var scope algebra.Node
	record := func(c expr.Col) {
		name := strings.ToLower(c.Name)
		if c.Table != "" {
			add(strings.ToLower(c.Table), name)
			return
		}
		for a := range algebra.BaseRelations(scope) {
			add(a, name)
		}
	}
	recordExpr := func(n expr.Node) {
		for _, c := range expr.ColumnsOf(n) {
			record(c)
		}
	}
	algebra.Walk(plan, func(n algebra.Node) bool {
		scope = n
		switch x := n.(type) {
		case *algebra.Select:
			recordExpr(x.Cond)
		case *algebra.Join:
			recordExpr(x.Cond)
		case *algebra.Project:
			for _, c := range x.Cols {
				record(c)
			}
		case *algebra.Prefer:
			recordExpr(x.P.Cond)
			recordExpr(x.P.Score)
		case *algebra.OrderBy:
			for _, k := range x.Keys {
				record(k.Col)
			}
		case *algebra.Skyline:
			for _, d := range x.Dims {
				record(d.Col)
			}
		case *algebra.GroupAgg:
			for _, c := range x.By {
				record(c)
			}
			for _, a := range x.Aggs {
				record(a.Col)
			}
		}
		return true
	})
	return needed
}
