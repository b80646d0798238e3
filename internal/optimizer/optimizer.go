// Package optimizer rewrites extended query plans using the algebraic
// properties of the prefer operator (§IV-C) and the heuristic rules of
// §VI-A:
//
//  1. selections are pushed down as far as they can go (split by relation);
//  2. projections are pushed down (column pruning above scans);
//  3. prefer operators are pushed down, just on top of a select or project
//     (Property 4.1);
//  4. a prefer over a binary operator that involves attributes of only one
//     input is pushed to that input (Property 4.4);
//  5. several prefers on the same relation are ordered in ascending
//     selectivity of their conditional parts (Property 4.3).
//
// In addition the optimizer rebuilds join trees left-deep and orders join
// factors by estimated cardinality, standing in for "the join order that
// would be followed by the native query optimizer".
package optimizer

import (
	"context"
	"sort"
	"strings"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/schema"
)

// Optimizer rewrites plans against catalog statistics.
type Optimizer struct {
	Cat *catalog.Catalog
	// Funcs resolves functions when the optimizer needs to recompute a
	// subtree's schema (join reordering); defaults to the scoring library.
	Funcs *expr.Registry
	// DisableSelectPushdown skips heuristic 1 (ablation experiments).
	DisableSelectPushdown bool
	// DisableProjectionPushdown skips heuristic 2.
	DisableProjectionPushdown bool
	// DisablePreferPushdown skips heuristics 3 and 4.
	DisablePreferPushdown bool
	// DisablePreferReorder skips heuristic 5.
	DisablePreferReorder bool
	// DisableJoinReorder keeps the query's join order.
	DisableJoinReorder bool
}

// New returns an optimizer over the catalog.
func New(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{Cat: cat, Funcs: pref.Functions()}
}

// Optimize applies all rewrite passes and returns the improved plan; the
// input plan is not modified.
func (o *Optimizer) Optimize(plan algebra.Node) algebra.Node {
	n, _ := o.OptimizeContext(context.Background(), plan)
	return n
}

// OptimizeContext is Optimize under a context: the rewrite passes check
// ctx between passes (each pass is bounded by the plan size, so
// between-pass checkpoints bound the abandon latency) and return ctx's
// error with the best plan so far. The Optimizer itself stays stateless,
// so concurrent queries sharing one Optimizer can carry different
// contexts.
func (o *Optimizer) OptimizeContext(ctx context.Context, plan algebra.Node) (algebra.Node, error) {
	n := plan
	step := func(enabled bool, pass func(algebra.Node) algebra.Node) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if enabled {
			n = pass(n)
		}
		return nil
	}
	passes := []struct {
		enabled bool
		pass    func(algebra.Node) algebra.Node
	}{
		{!o.DisableSelectPushdown, o.pushSelections},
		{!o.DisablePreferPushdown, o.pushPrefers},
		{!o.DisablePreferReorder, o.orderPreferChains},
		{!o.DisableJoinReorder, o.reorderJoins},
		// Join reordering can open new pushdown opportunities.
		{!o.DisableJoinReorder && !o.DisablePreferPushdown, o.pushPrefers},
		{!o.DisableJoinReorder && !o.DisablePreferReorder, o.orderPreferChains},
		{!o.DisableProjectionPushdown, o.pruneColumns},
		{!o.DisableProjectionPushdown, o.collapseProjections},
		// Late materialization: the projection over a scan of a columnar
		// table moves above the preferences over it and above an equi-join
		// it feeds as the probe side, so they run on borrowed vectors and
		// only surviving rows are copied. It runs after the collapse so the
		// moved projection stays one operator of its own.
		{true, o.pullProbeProjects},
		// Annotation passes run last so rewrites cannot drop their marks.
		{true, o.annotateSegments},
		{true, o.annotateDirectJoin},
		// Build sides are a join-order decision: the ablation that keeps
		// the query's join order keeps every build on the left.
		{!o.DisableJoinReorder, o.annotateBuildSide},
	}
	for _, p := range passes {
		if err := step(p.enabled, p.pass); err != nil {
			return n, err
		}
	}
	return n, nil
}

// --- heuristic 1: selection pushdown ---

func (o *Optimizer) pushSelections(n algebra.Node) algebra.Node {
	return fixpoint(n, o.pushSelectOnce)
}

// fixpoint applies a local rewrite bottom-up until no node changes,
// tracking changes by identity instead of re-rendering plans.
func fixpoint(n algebra.Node, rewrite func(algebra.Node) algebra.Node) algebra.Node {
	for i := 0; i < 64; i++ { // bound: each pass strictly pushes operators down
		changed := false
		next := algebra.Transform(n, func(x algebra.Node) algebra.Node {
			y := rewrite(x)
			if y != x {
				changed = true
			}
			return y
		})
		n = next
		if !changed {
			return n
		}
	}
	return n
}

// pushSelectOnce applies one local selection rewrite.
func (o *Optimizer) pushSelectOnce(n algebra.Node) algebra.Node {
	sel, ok := n.(*algebra.Select)
	if !ok {
		return n
	}
	switch child := sel.Input.(type) {
	case *algebra.Select:
		// Merge cascades: σ_a σ_b = σ_{a∧b}.
		return &algebra.Select{
			Cond:  expr.Bin{Op: expr.OpAnd, L: sel.Cond, R: child.Cond},
			Input: child.Input,
		}
	case *algebra.Prefer:
		// Property 4.1: σ_φ λ_p(R) = λ_p σ_φ(R) (φ never references
		// score/conf — those live outside the expression language).
		return &algebra.Prefer{P: child.P, Input: &algebra.Select{Cond: sel.Cond, Input: child.Input}}
	case *algebra.Join:
		leftRels := algebra.BaseRelations(child.Left)
		rightRels := algebra.BaseRelations(child.Right)
		var toLeft, toRight, stay []expr.Node
		for _, c := range expr.Conjuncts(sel.Cond) {
			switch {
			case expr.RefersOnly(c, leftRels):
				toLeft = append(toLeft, c)
			case expr.RefersOnly(c, rightRels):
				toRight = append(toRight, c)
			default:
				stay = append(stay, c)
			}
		}
		if len(toLeft) == 0 && len(toRight) == 0 {
			return n
		}
		l, r := child.Left, child.Right
		if len(toLeft) > 0 {
			l = &algebra.Select{Cond: expr.AndAll(toLeft), Input: l}
		}
		if len(toRight) > 0 {
			r = &algebra.Select{Cond: expr.AndAll(toRight), Input: r}
		}
		out := algebra.Node(&algebra.Join{Cond: child.Cond, Left: l, Right: r})
		if len(stay) > 0 {
			out = &algebra.Select{Cond: expr.AndAll(stay), Input: out}
		}
		return out
	case *algebra.Set:
		// σ distributes over ∪, ∩ and −: both inputs share the layout.
		// Only safe when the condition resolves on the inputs (same column
		// names); qualify-mismatches keep the select in place.
		if onlyUnqualified(sel.Cond) {
			return &algebra.Set{
				Op:    child.Op,
				Left:  &algebra.Select{Cond: sel.Cond, Input: child.Left},
				Right: &algebra.Select{Cond: sel.Cond, Input: child.Right},
			}
		}
		return n
	default:
		return n
	}
}

func onlyUnqualified(n expr.Node) bool {
	for _, c := range expr.ColumnsOf(n) {
		if c.Table != "" {
			return false
		}
	}
	return true
}

// --- heuristics 3 & 4: prefer pushdown ---

func (o *Optimizer) pushPrefers(n algebra.Node) algebra.Node {
	return fixpoint(n, o.pushPreferOnce)
}

func (o *Optimizer) pushPreferOnce(n algebra.Node) algebra.Node {
	p, ok := n.(*algebra.Prefer)
	if !ok {
		return n
	}
	switch child := p.Input.(type) {
	case *algebra.Join:
		leftRels := algebra.BaseRelations(child.Left)
		rightRels := algebra.BaseRelations(child.Right)
		// Property 4.4: push to the input whose relations cover the
		// preference, provided the other side cannot be affected.
		if p.P.Covers(leftRels) && !touchesAny(p.P, rightRels) {
			return &algebra.Join{Cond: child.Cond, Left: &algebra.Prefer{P: p.P, Input: child.Left}, Right: child.Right}
		}
		if p.P.Covers(rightRels) && !touchesAny(p.P, leftRels) {
			return &algebra.Join{Cond: child.Cond, Left: child.Left, Right: &algebra.Prefer{P: p.P, Input: child.Right}}
		}
		return n
	case *algebra.Set:
		leftRels := algebra.BaseRelations(child.Left)
		rightRels := algebra.BaseRelations(child.Right)
		if p.P.Covers(leftRels) && !touchesAny(p.P, rightRels) {
			return &algebra.Set{Op: child.Op, Left: &algebra.Prefer{P: p.P, Input: child.Left}, Right: child.Right}
		}
		// Pushing right is only safe for union (difference and
		// intersection score from the left input's pairs in left-biased
		// positions; keep conservative).
		if child.Op == algebra.SetUnion && p.P.Covers(rightRels) && !touchesAny(p.P, leftRels) {
			return &algebra.Set{Op: child.Op, Left: child.Left, Right: &algebra.Prefer{P: p.P, Input: child.Right}}
		}
		return n
	default:
		// Heuristic 3 stops prefer just on top of selects, projects and
		// scans: pushing below a select would enlarge the prefer's input.
		return n
	}
}

// touchesAny reports whether any of the preference's target relations is in
// the given set — if so, evaluating the preference on that side would not
// be an identity and the push is unsafe.
func touchesAny(p pref.Preference, rels map[string]bool) bool {
	for _, r := range p.On {
		if rels[strings.ToLower(r)] {
			return true
		}
	}
	return false
}

// --- heuristic 5: prefer ordering by selectivity ---

func (o *Optimizer) orderPreferChains(n algebra.Node) algebra.Node {
	return algebra.Transform(n, func(x algebra.Node) algebra.Node {
		p, ok := x.(*algebra.Prefer)
		if !ok {
			return x
		}
		// Only rewrite at the top of a chain.
		chain := []*algebra.Prefer{p}
		cur := p
		for {
			next, ok := cur.Input.(*algebra.Prefer)
			if !ok {
				break
			}
			chain = append(chain, next)
			cur = next
		}
		if len(chain) < 2 {
			return x
		}
		base := chain[len(chain)-1].Input
		// Ascending selectivity: the most selective conditional part is
		// evaluated first, keeping score relations small (heuristic 5;
		// sound by Property 4.3).
		sort.SliceStable(chain, func(i, j int) bool {
			return o.preferSelectivity(chain[i].P) < o.preferSelectivity(chain[j].P)
		})
		// chain[0] is the most selective and must be evaluated first, i.e.
		// innermost; wrap outwards in ascending-selectivity order.
		out := base
		for i := 0; i < len(chain); i++ {
			out = &algebra.Prefer{P: chain[i].P, Input: out}
		}
		return out
	})
}

// preferSelectivity estimates the fraction of the target relation matched
// by the preference's conditional part.
func (o *Optimizer) preferSelectivity(p pref.Preference) float64 {
	sel := 1.0
	matched := false
	for _, rel := range p.On {
		t, err := o.Cat.Table(rel)
		if err != nil {
			continue
		}
		matched = true
		sel *= t.Selectivity(p.Cond)
	}
	if !matched {
		return 0.5
	}
	return sel
}

// --- join reordering (left-deep, smallest-first) ---

func (o *Optimizer) reorderJoins(n algebra.Node) algebra.Node {
	return algebra.Transform(n, func(x algebra.Node) algebra.Node {
		j, ok := x.(*algebra.Join)
		if !ok {
			return x
		}
		// Only rewrite the topmost join of a join tree (children already
		// transformed; nested joins below will be flattened here).
		factors, preds := flattenJoins(j)
		if len(factors) < 3 {
			return x
		}
		rebuilt := o.buildLeftDeep(factors, preds)
		// Reordering permutes the join product's column order; restore the
		// original layout so the plan's output schema is unchanged.
		return o.restoreColumnOrder(j, rebuilt)
	})
}

type joinPred struct {
	cond expr.Node
	rels map[string]bool
}

// flattenJoins collects the non-join factors and join predicates of a join
// tree.
func flattenJoins(n algebra.Node) ([]algebra.Node, []joinPred) {
	if j, ok := n.(*algebra.Join); ok {
		lf, lp := flattenJoins(j.Left)
		rf, rp := flattenJoins(j.Right)
		preds := append(lp, rp...)
		for _, c := range expr.Conjuncts(j.Cond) {
			preds = append(preds, joinPred{cond: c, rels: expr.Tables(c)})
		}
		return append(lf, rf...), preds
	}
	return []algebra.Node{n}, nil
}

// buildLeftDeep greedily orders factors: start from the smallest estimated
// factor, then repeatedly join the connected factor with the smallest
// estimated size (falling back to cross joins only when necessary).
func (o *Optimizer) buildLeftDeep(factors []algebra.Node, preds []joinPred) algebra.Node {
	type fact struct {
		node algebra.Node
		rels map[string]bool
		rows float64
	}
	facts := make([]*fact, len(factors))
	for i, f := range factors {
		facts[i] = &fact{node: f, rels: algebra.BaseRelations(f), rows: o.estimateRows(f)}
	}
	used := make([]bool, len(facts))
	predUsed := make([]bool, len(preds))

	// Pick the smallest factor first.
	start := 0
	for i := range facts {
		if facts[i].rows < facts[start].rows {
			start = i
		}
	}
	used[start] = true
	current := facts[start].node
	currentRels := map[string]bool{}
	for r := range facts[start].rels {
		currentRels[r] = true
	}

	for picked := 1; picked < len(facts); picked++ {
		// Candidates connected to the current tree by an unused predicate.
		best := -1
		for i := range facts {
			if used[i] {
				continue
			}
			if !connected(currentRels, facts[i].rels, preds, predUsed) {
				continue
			}
			if best < 0 || facts[i].rows < facts[best].rows {
				best = i
			}
		}
		if best < 0 {
			// No connected factor: fall back to the smallest remaining.
			for i := range facts {
				if used[i] {
					continue
				}
				if best < 0 || facts[i].rows < facts[best].rows {
					best = i
				}
			}
		}
		used[best] = true
		// Attach every now-covered predicate as the join condition.
		var conds []expr.Node
		for pi := range preds {
			if predUsed[pi] {
				continue
			}
			needed := preds[pi].rels
			coveredNow := true
			for r := range needed {
				if !currentRels[r] && !facts[best].rels[r] {
					coveredNow = false
					break
				}
			}
			if coveredNow {
				conds = append(conds, preds[pi].cond)
				predUsed[pi] = true
			}
		}
		current = &algebra.Join{Cond: expr.AndAll(conds), Left: current, Right: facts[best].node}
		for r := range facts[best].rels {
			currentRels[r] = true
		}
	}
	// Any leftover predicates (e.g. referencing unqualified columns) become
	// a final selection so no condition is dropped.
	var leftovers []expr.Node
	for pi := range preds {
		if !predUsed[pi] {
			leftovers = append(leftovers, preds[pi].cond)
		}
	}
	if len(leftovers) > 0 {
		return &algebra.Select{Cond: expr.AndAll(leftovers), Input: current}
	}
	return current
}

func connected(current, candidate map[string]bool, preds []joinPred, predUsed []bool) bool {
	for pi, p := range preds {
		if predUsed[pi] || len(p.rels) == 0 {
			continue
		}
		touchesCurrent, touchesCandidate, outside := false, false, false
		for r := range p.rels {
			switch {
			case current[r]:
				touchesCurrent = true
			case candidate[r]:
				touchesCandidate = true
			default:
				outside = true
			}
		}
		if touchesCurrent && touchesCandidate && !outside {
			return true
		}
	}
	return false
}

// estimateRows estimates a subtree's output cardinality from catalog
// statistics.
func (o *Optimizer) estimateRows(n algebra.Node) float64 {
	rows, _ := o.estimate(n)
	return rows
}

// estimate is estimateRows that also reports whether the figure rests on
// statistics: known is false when some node under n fell back to the
// 1000-row guess (an unknown table or an operator without a rule).
func (o *Optimizer) estimate(n algebra.Node) (rows float64, known bool) {
	switch x := n.(type) {
	case *algebra.Scan:
		t, err := o.Cat.Table(x.Table)
		if err != nil {
			return 1000, false
		}
		return float64(t.Len()), true
	case *algebra.Select:
		base, known := o.estimate(x.Input)
		if t := singleTableOf(o.Cat, x.Input); t != nil {
			est := base * t.Selectivity(x.Cond)
			// Zone maps give an exact upper bound (surviving segments +
			// heap tail); prefer it when tighter than the histogram guess.
			if bound, ok := o.zoneRowBound(t, x); ok && bound < est {
				est = bound
			}
			return est, known
		}
		return base / 3, known
	case *algebra.Prefer, *algebra.Rank, *algebra.Project, *algebra.OrderBy:
		return o.estimate(n.Children()[0])
	case *algebra.Join:
		l, lk := o.estimate(x.Left)
		r, rk := o.estimate(x.Right)
		if x.Cond == nil {
			return l * r, lk && rk
		}
		// Equi-join heuristic: output near the larger input.
		return max(l, r), lk && rk
	case *algebra.Set:
		l, lk := o.estimate(x.Left)
		r, rk := o.estimate(x.Right)
		switch x.Op {
		case algebra.SetUnion:
			return l + r, lk && rk
		case algebra.SetIntersect:
			return min(l, r), lk && rk
		default:
			return l, lk
		}
	case *algebra.Values:
		return float64(x.Rel.Len()), true
	case *algebra.TopK:
		in, known := o.estimate(x.Input)
		return min(in, float64(x.K)), known
	case *algebra.Limit:
		in, known := o.estimate(x.Input)
		return min(in, float64(x.N)), known
	case *algebra.Threshold, *algebra.Skyline:
		in, known := o.estimate(n.Children()[0])
		return in / 3, known
	default:
		return 1000, false
	}
}

// singleTableOf returns the catalog table when the subtree scans exactly
// one base relation (so per-column statistics apply).
func singleTableOf(cat *catalog.Catalog, n algebra.Node) *catalog.Table {
	rels := algebra.BaseRelations(n)
	if len(rels) != 1 {
		return nil
	}
	var scanTable string
	algebra.Walk(n, func(x algebra.Node) bool {
		if s, ok := x.(*algebra.Scan); ok {
			scanTable = s.Table
			return false
		}
		return true
	})
	t, err := cat.Table(scanTable)
	if err != nil {
		return nil
	}
	return t
}

// restoreColumnOrder wraps a reordered join tree in a projection that
// re-establishes the original output column order. If either schema cannot
// be resolved (or the order already matches), the rebuilt tree is used (or
// the original kept) as is.
func (o *Optimizer) restoreColumnOrder(original, rebuilt algebra.Node) algebra.Node {
	resolver := &algebra.Resolver{Catalog: o.Cat, Funcs: o.Funcs}
	want, err := resolver.Resolve(original)
	if err != nil {
		return original
	}
	got, err := resolver.Resolve(rebuilt)
	if err != nil {
		return original
	}
	if sameColumnOrder(want, got) {
		return rebuilt
	}
	cols := make([]expr.Col, len(want.Columns))
	for i, c := range want.Columns {
		cols[i] = expr.Col{Table: c.Table, Name: c.Name}
		// Bail out if the reference would be ambiguous in the rebuilt schema.
		if _, err := got.IndexOf(c.Table, c.Name); err != nil {
			return original
		}
	}
	return &algebra.Project{Cols: cols, Input: rebuilt}
}

func sameColumnOrder(a, b *schema.Schema) bool {
	if len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if !strings.EqualFold(a.Columns[i].Table, b.Columns[i].Table) ||
			!strings.EqualFold(a.Columns[i].Name, b.Columns[i].Name) {
			return false
		}
	}
	return true
}
