package optimizer

import (
	"strings"

	"prefdb/internal/algebra"
	"prefdb/internal/expr"
)

// pruneColumns implements heuristic 2 (projection pushdown): it inserts a
// narrow projection directly above each base-table scan, keeping only the
// columns referenced anywhere in the plan — by conditions, join
// predicates, preference parts, filters, or the root projection. Scans
// feeding set operations are left untouched (both inputs must keep
// identical layouts), and plans without a root projection (SELECT *) are
// not pruned.
//
// A pass-through projection — every column qualified, not the root and
// not under a set operation, such as the one restoreColumnOrder puts over
// a reordered join — only forwards columns, so it consumes none of them:
// it is narrowed to the referenced columns too.
//
// When the pruned scan sits under a selection, the inserted projection is
// hoisted above it (σ∘π(scan) → π∘σ(scan)): the filter's columns are a
// subset of the kept ones, so semantics are unchanged, the projection now
// materializes only surviving rows, and the selection stays directly over
// the scan — where index access paths, the colstore's zone-map pruning and
// the EXPLAIN segment annotation (§12) all attach.
func (o *Optimizer) pruneColumns(plan algebra.Node) algebra.Node {
	root := rootProjection(plan)
	if root == nil {
		return plan
	}
	passThrough := func(p *algebra.Project, underSet bool) bool {
		return p != root && !underSet && allQualified(p.Cols)
	}
	needed := collectNeededColumns(plan, passThrough)
	inserted := map[*algebra.Project]bool{}
	var rewrite func(n algebra.Node, underSet bool) algebra.Node
	rewrite = func(n algebra.Node, underSet bool) algebra.Node {
		switch x := n.(type) {
		case *algebra.Scan:
			if underSet {
				return n
			}
			if p := o.narrowScan(x, needed[x.AliasName()]); p != nil {
				inserted[p] = true
				return p
			}
			return n
		case *algebra.Set:
			underSet = true
		case *algebra.Project:
			if passThrough(x, underSet) {
				n = narrowProject(x, needed)
			}
		}
		children := n.Children()
		if len(children) == 0 {
			return n
		}
		kids := make([]algebra.Node, len(children))
		changed := false
		for i, c := range children {
			kids[i] = rewrite(c, underSet)
			changed = changed || kids[i] != c
		}
		if changed {
			n = n.WithChildren(kids)
		}
		if sel, ok := n.(*algebra.Select); ok {
			if pr, ok := sel.Input.(*algebra.Project); ok && inserted[pr] {
				hoisted := &algebra.Project{Cols: pr.Cols,
					Input: &algebra.Select{Cond: sel.Cond, Input: pr.Input, Derived: sel.Derived}}
				inserted[hoisted] = true // stacked selections keep swapping down
				return hoisted
			}
		}
		return n
	}
	return rewrite(plan, false)
}

// narrowScan returns the projection of scan onto the cols its alias
// needs, or nil when nothing is referenced or nothing can be dropped.
func (o *Optimizer) narrowScan(scan *algebra.Scan, cols map[string]bool) *algebra.Project {
	if len(cols) == 0 {
		return nil
	}
	t, err := o.Cat.Table(scan.Table)
	if err != nil {
		return nil
	}
	ordered := make([]expr.Col, 0, len(cols))
	for _, c := range t.Schema().Columns {
		name := strings.ToLower(c.Name)
		if cols[name] {
			ordered = append(ordered, expr.Col{Table: scan.AliasName(), Name: name})
		}
	}
	if len(ordered) == 0 || len(ordered) >= t.Schema().Len() {
		return nil
	}
	return &algebra.Project{Cols: ordered, Input: scan}
}

// narrowProject keeps the pass-through projection's referenced columns,
// or returns p unchanged when it would keep all or none of them.
func narrowProject(p *algebra.Project, needed map[string]map[string]bool) algebra.Node {
	var kept []expr.Col
	for _, c := range p.Cols {
		if needed[strings.ToLower(c.Table)][strings.ToLower(c.Name)] {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 || len(kept) == len(p.Cols) {
		return p
	}
	return &algebra.Project{Cols: kept, Input: p.Input}
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

func allQualified(cols []expr.Col) bool {
	for _, c := range cols {
		if c.Table == "" {
			return false
		}
	}
	return true
}

// collectNeededColumns gathers, per table alias, the set of column names
// referenced anywhere in the plan, except by the projections passThrough
// accepts. A qualified reference names its alias; an unqualified one
// counts for every relation in scope where it appears (the operator's
// subtree), of which only those that have the column can keep it.
func collectNeededColumns(plan algebra.Node, passThrough func(*algebra.Project, bool) bool) map[string]map[string]bool {
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
	var walk func(n algebra.Node, underSet bool)
	walk = func(n algebra.Node, underSet bool) {
		scope = n
		switch x := n.(type) {
		case *algebra.Select:
			recordExpr(x.Cond)
		case *algebra.Join:
			recordExpr(x.Cond)
		case *algebra.Project:
			if !passThrough(x, underSet) {
				for _, c := range x.Cols {
					record(c)
				}
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
		case *algebra.Set:
			underSet = true
		}
		for _, c := range n.Children() {
			walk(c, underSet)
		}
	}
	walk(plan, false)
	return needed
}

// collapseProjections rewrites π_a(π_b(X)) into π_a(X): each of a's
// columns is re-qualified as the column of b it resolves to in π_b's
// output, so π_a(X) reads the same columns of X and produces the same
// schema with one copy fewer. A projection over a hash join then runs
// inside the join (the root projection of a reordered join absorbs the
// restore projection). The rewrite is declined — plan unchanged, so the
// executor still reports the error — when π_b's output does not resolve
// or one of a's columns is ambiguous or unknown in it.
func (o *Optimizer) collapseProjections(n algebra.Node) algebra.Node {
	resolver := &algebra.Resolver{Catalog: o.Cat, Funcs: o.Funcs}
	return algebra.Transform(n, func(x algebra.Node) algebra.Node {
		outer, ok := x.(*algebra.Project)
		if !ok {
			return x
		}
		inner, ok := outer.Input.(*algebra.Project)
		if !ok {
			return x
		}
		s, err := resolver.Resolve(inner)
		if err != nil {
			return x
		}
		cols := make([]expr.Col, len(outer.Cols))
		for i, c := range outer.Cols {
			idx, err := s.IndexOf(c.Table, c.Name)
			if err != nil {
				return x
			}
			cols[i] = inner.Cols[idx]
		}
		return &algebra.Project{Cols: cols, Input: inner.Input}
	})
}
