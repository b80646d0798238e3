package optimizer

import (
	"strings"

	"prefdb/internal/algebra"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/types"
)

// --- heuristic 1, derived: a threshold is also a selection ---
//
// Every aggregate has identity ⟨⊥,0⟩ (Def. 3), so over an unscored input a
// row that no condition of a λ chain selects leaves the chain as ⟨⊥,0⟩. A
// threshold that rejects ⟨⊥,0⟩ rejects that row, so the selection
// σ_{φ1 ∨ … ∨ φλ} under the chain removes only rows the threshold would
// drop anyway, and the threshold stays where it is. Heuristic 1 then
// pushes the derived σ toward the scans (Chomicki's semantic optimization
// of preference queries: rewrite with what must hold for a tuple to
// survive).

// deriveThresholdSelects inserts a derived σ under every λ chain a
// threshold reads through projections only, and reports whether it
// inserted any. It declines (plan unchanged) when:
//   - the threshold accepts ⟨⊥,0⟩ (rejectsBottom);
//   - the chain's input already carries scores (a Prefer or a Values leaf
//     below it), so an unselected row need not be ⟨⊥,0⟩;
//   - some condition is TRUE or missing (a membership preference selects
//     every row), or one of its columns does not resolve, unambiguously,
//     to a relation the preference is ON.
func (o *Optimizer) deriveThresholdSelects(n algebra.Node) (algebra.Node, bool) {
	derived := false
	out := algebra.Transform(n, func(x algebra.Node) algebra.Node {
		t, ok := x.(*algebra.Threshold)
		if !ok || !rejectsBottom(t) {
			return x
		}
		in, ok := o.deriveUnder(t.Input)
		if !ok {
			return x
		}
		derived = true
		cp := *t
		cp.Input = in
		return &cp
	})
	return out, derived
}

// rejectsBottom reports whether the threshold drops a ⟨⊥,0⟩ row: a score
// threshold skips every unknown score, and a confidence threshold drops
// the row when 0 fails its comparison.
func rejectsBottom(t *algebra.Threshold) bool {
	if t.By == algebra.ByScore {
		return true
	}
	v := t.Value
	switch t.Op {
	case expr.OpEq:
		return v != 0
	case expr.OpNe:
		return v == 0
	case expr.OpLt:
		return v <= 0
	case expr.OpLe:
		return v < 0
	case expr.OpGt:
		return v >= 0
	case expr.OpGe:
		return v > 0
	default:
		return false
	}
}

// deriveUnder finds the λ chain below projections and inserts the derived
// σ directly under it.
func (o *Optimizer) deriveUnder(n algebra.Node) (algebra.Node, bool) {
	switch x := n.(type) {
	case *algebra.Project:
		in, ok := o.deriveUnder(x.Input)
		if !ok {
			return n, false
		}
		cp := *x
		cp.Input = in
		return &cp, true
	case *algebra.Prefer:
		var chain []pref.Preference // outermost first
		cur := n
		for p, ok := cur.(*algebra.Prefer); ok; p, ok = cur.(*algebra.Prefer) {
			chain = append(chain, p.P)
			cur = p.Input
		}
		if scored(cur) {
			return n, false
		}
		cond, ok := o.chainDisjunction(chain, cur)
		if !ok {
			return n, false
		}
		out := algebra.Node(&algebra.Select{Cond: cond, Input: cur, Derived: true})
		for i := len(chain) - 1; i >= 0; i-- {
			out = &algebra.Prefer{P: chain[i], Input: out}
		}
		return out, true
	default:
		return n, false
	}
}

// scored reports whether rows of n may carry a pair other than ⟨⊥,0⟩.
func scored(n algebra.Node) bool {
	found := false
	algebra.Walk(n, func(x algebra.Node) bool {
		switch x.(type) {
		case *algebra.Prefer, *algebra.Values:
			found = true
		}
		return !found
	})
	return found
}

// chainDisjunction builds φ1 ∨ … ∨ φλ over the chain's conditions,
// innermost preference first, with every column qualified by the alias it
// resolves to in the chain's input.
func (o *Optimizer) chainDisjunction(chain []pref.Preference, input algebra.Node) (expr.Node, bool) {
	s, err := (&algebra.Resolver{Catalog: o.Cat, Funcs: o.Funcs}).Resolve(input)
	if err != nil {
		return nil, false
	}
	tableOf := map[string]string{} // alias → table, both lower-case
	algebra.Walk(input, func(x algebra.Node) bool {
		if sc, ok := x.(*algebra.Scan); ok {
			tableOf[sc.AliasName()] = strings.ToLower(sc.Table)
		}
		return true
	})
	var out expr.Node
	for i := len(chain) - 1; i >= 0; i-- {
		p := chain[i]
		if p.Cond == nil || isTrue(p.Cond) {
			return nil, false
		}
		on := map[string]bool{}
		for _, r := range p.On {
			on[strings.ToLower(r)] = true
		}
		ok := true
		cond := expr.MapCols(p.Cond, func(c expr.Col) expr.Col {
			idx, err := s.IndexOf(c.Table, c.Name)
			if err != nil {
				ok = false
				return c
			}
			alias := strings.ToLower(s.Columns[idx].Table)
			table, isScan := tableOf[alias]
			if !isScan || !(on[alias] || on[table]) {
				ok = false
				return c
			}
			return expr.Col{Table: alias, Name: c.Name}
		})
		if !ok {
			return nil, false
		}
		if out == nil {
			out = cond
		} else {
			out = expr.Bin{Op: expr.OpOr, L: out, R: cond}
		}
	}
	return out, out != nil
}

func isTrue(n expr.Node) bool {
	l, ok := n.(expr.Lit)
	return ok && l.Val.Kind() == types.KindBool && l.Val.AsBool()
}

// keepJoinedDerived drops every derived σ that no join separates from its
// threshold. On a single table it only repeats the threshold's work, one
// condition evaluation per row; below a join it shrinks the join's input.
func keepJoinedDerived(n algebra.Node, underJoin bool) algebra.Node {
	switch x := n.(type) {
	case *algebra.Select:
		if x.Derived && !underJoin {
			return keepJoinedDerived(x.Input, underJoin)
		}
	case *algebra.Join:
		underJoin = true
	case *algebra.Threshold:
		underJoin = false
	}
	return rewriteChildren(n, func(c algebra.Node) algebra.Node {
		return keepJoinedDerived(c, underJoin)
	})
}
