package exec

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// oracle is the reference semantics of the extended algebra: a
// tuple-at-a-time interpreter over algebra.Node written from §IV of the
// paper — deliberately naive (nested loops, full sorts, pairwise
// dominance) and sharing no code with the executor. Base tuples carry
// ⟨⊥,0⟩; F combines pairs under λ, ⋈, ∪ and ∩.
type oracle struct {
	cat   *catalog.Catalog
	agg   pref.Aggregate
	funcs *expr.Registry
}

func newOracle(cat *catalog.Catalog, agg pref.Aggregate) *oracle {
	return &oracle{cat, agg, pref.Functions()}
}

// eval computes the p-relation a plan denotes.
func (o *oracle) eval(n algebra.Node) (*prel.PRelation, error) {
	switch x := n.(type) {
	case *algebra.Values:
		return &prel.PRelation{Schema: x.Rel.Schema, Rows: append([]prel.Row(nil), x.Rel.Rows...)}, nil
	case *algebra.Scan:
		t, err := o.cat.Table(x.Table)
		if err != nil {
			return nil, err
		}
		out := prel.New(t.Schema().Rename(x.AliasName()))
		t.Heap.Scan(func(_ storage.RowID, tuple []types.Value) bool {
			out.Append(prel.Row{Tuple: tuple})
			return true
		})
		return out, nil
	}
	var kids []*prel.PRelation
	for _, c := range n.Children() {
		rel, err := o.eval(c)
		if err != nil {
			return nil, err
		}
		kids = append(kids, rel)
	}
	in := kids[0]
	out := prel.New(in.Schema)
	var err error
	switch x := n.(type) {
	case *algebra.Select:
		var cond *expr.Compiled
		if cond, err = expr.CompileCondition(x.Cond, in.Schema, o.funcs); err == nil {
			out.Rows = keep(in.Rows, func(r prel.Row) bool { return cond.Truthy(r.Tuple) })
		}
	case *algebra.Project:
		var ords []int
		if ords, err = ordinals(in.Schema, x.Cols...); err == nil {
			out.Schema = in.Schema.Project(ords)
			for _, r := range in.Rows {
				out.Append(prel.Row{Tuple: pick(r.Tuple, ords), SC: r.SC})
			}
		}
	case *algebra.Join: // ⋈_{φ,F}: every pair satisfying φ, pairs combined by F
		out.Schema = in.Schema.Concat(kids[1].Schema)
		holds := func([]types.Value) bool { return true } // a cross join's φ
		if x.Cond != nil {
			var cond *expr.Compiled
			cond, err = expr.CompileCondition(x.Cond, out.Schema, o.funcs)
			holds = func(t []types.Value) bool { return cond.Truthy(t) }
		}
		if err == nil {
			for _, l := range in.Rows {
				for _, r := range kids[1].Rows {
					if t := append(append([]types.Value{}, l.Tuple...), r.Tuple...); holds(t) {
						out.Append(prel.Row{Tuple: t, SC: o.agg.Combine(l.SC, r.SC)})
					}
				}
			}
		}
		if err == nil && x.Cols != nil { // the join's output columns
			var ords []int
			if ords, err = ordinals(out.Schema, x.Cols...); err == nil {
				out.Schema = out.Schema.Project(ords)
				for i, r := range out.Rows {
					out.Rows[i].Tuple = pick(r.Tuple, ords)
				}
			}
		}
	case *algebra.Prefer: // λ_{p,F}: r ↦ F(⟨S,C⟩, ⟨S_p(r), C_p⟩) where p's condition holds
		cond, cErr := expr.CompileCondition(x.P.Cond, in.Schema, o.funcs)
		score, sErr := expr.Compile(x.P.Score, in.Schema, o.funcs)
		if err = cmp.Or(cErr, sErr); err == nil {
			for _, r := range in.Rows {
				// A NULL score is ⊥: it carries no knowledge.
				if v := score.Eval(r.Tuple); cond.Truthy(r.Tuple) && !v.IsNull() && v.IsNumeric() {
					r.SC = o.agg.Combine(r.SC, types.NewSC(pref.Clamp01(v.AsFloat()), x.P.Conf))
				}
				out.Append(r)
			}
		}
	case *algebra.Set:
		out.Rows = o.setOp(x.Op, o.asSet(in.Rows), o.asSet(kids[1].Rows))
	case *algebra.GroupAgg:
		return o.groupAgg(x, in)
	case *algebra.Threshold:
		out.Rows = keep(in.Rows, func(r prel.Row) bool {
			v := r.SC.Conf // defined for every tuple (0 under ⊥)
			if x.By == algebra.ByScore {
				v = r.SC.Score
			}
			c := cmp.Compare(v, x.Value)
			return (x.By == algebra.ByConf || r.SC.Known) && map[expr.Op]bool{expr.OpEq: c == 0,
				expr.OpNe: c != 0, expr.OpLt: c < 0, expr.OpLe: c <= 0, expr.OpGt: c > 0, expr.OpGe: c >= 0}[x.Op]
		})
	case *algebra.TopK:
		out.Rows = ranked(in.Rows, x.By == algebra.ByConf)
		out.Rows = out.Rows[:min(max(x.K, 0), len(out.Rows))]
	case *algebra.Rank:
		out.Rows = ranked(in.Rows, x.By == algebra.ByConf)
	case *algebra.Skyline:
		dominates := func(a, b prel.Row) bool { return a.SC.Dominates(b.SC) }
		if len(x.Dims) > 0 {
			dominates, err = attrDominance(in.Schema, x.Dims)
		}
		out.Rows = keep(in.Rows, func(r prel.Row) bool {
			for _, s := range in.Rows {
				if err == nil && dominates(s, r) {
					return false
				}
			}
			return true
		})
	case *algebra.OrderBy:
		var less func(a, b prel.Row) bool
		if less, err = orderLess(in.Schema, x.Keys); err == nil {
			out.Rows = append([]prel.Row(nil), in.Rows...)
			sort.SliceStable(out.Rows, func(i, j int) bool { return less(out.Rows[i], out.Rows[j]) })
		}
	case *algebra.Limit:
		lo := min(x.Offset, len(in.Rows))
		out.Rows = in.Rows[lo:min(lo+x.N, len(in.Rows))]
	default:
		err = fmt.Errorf("oracle: unsupported node %T", n)
	}
	return out, err
}

func keep(rows []prel.Row, ok func(prel.Row) bool) []prel.Row {
	var out []prel.Row
	for _, r := range rows {
		if ok(r) {
			out = append(out, r)
		}
	}
	return out
}

func ordinals(s *schema.Schema, cols ...expr.Col) ([]int, error) {
	ords := make([]int, len(cols))
	var err error
	for i := 0; i < len(cols) && err == nil; i++ {
		ords[i], err = s.IndexOf(cols[i].Table, cols[i].Name)
	}
	return ords, err
}

func pick(t []types.Value, ords []int) []types.Value {
	out := make([]types.Value, len(ords))
	for i, o := range ords {
		out[i] = t[o]
	}
	return out
}

// find returns the index of the row holding tuple t, or -1.
func find(rows []prel.Row, t []types.Value) int {
	for i, r := range rows {
		if types.TupleEqual(r.Tuple, t) {
			return i
		}
	}
	return -1
}

// asSet collapses duplicate tuples, combining their pairs by F: a
// p-relation is a set of tuples.
func (o *oracle) asSet(rows []prel.Row) []prel.Row {
	var out []prel.Row
	for _, r := range rows {
		if i := find(out, r.Tuple); i >= 0 {
			out[i].SC = o.agg.Combine(out[i].SC, r.SC)
		} else {
			out = append(out, r)
		}
	}
	return out
}

// setOp is ∪_F, ∩_F (a tuple in both inputs gets F of its two pairs) and
// − (a left tuple absent on the right keeps its pair).
func (o *oracle) setOp(op algebra.SetOp, l, r []prel.Row) []prel.Row {
	var out []prel.Row
	for _, lr := range l {
		i := find(r, lr.Tuple)
		if i >= 0 && op != algebra.SetDiff {
			lr.SC = o.agg.Combine(lr.SC, r[i].SC)
		}
		if op == algebra.SetUnion || (i >= 0) == (op == algebra.SetIntersect) {
			out = append(out, lr)
		}
	}
	for _, rr := range r {
		if op == algebra.SetUnion && find(l, rr.Tuple) < 0 {
			out = append(out, rr)
		}
	}
	return out
}

// groupAgg is γ: one ⟨⊥,0⟩ tuple per distinct By key, holding the key
// then count (non-NULL values), sum (numeric values, INT until a FLOAT
// widens it) and min/max (NULLs and incomparable values skipped), folded
// in input order.
func (o *oracle) groupAgg(x *algebra.GroupAgg, in *prel.PRelation) (*prel.PRelation, error) {
	args := make([]expr.Col, len(x.Aggs))
	for i, a := range x.Aggs {
		args[i] = a.Col
	}
	by, err := ordinals(in.Schema, x.By...)
	argOrds, aErr := ordinals(in.Schema, args...)
	if err = cmp.Or(err, aErr); err != nil {
		return nil, err
	}
	cols := make([]schema.Column, 0, len(by)+len(x.Aggs))
	for _, b := range by {
		cols = append(cols, in.Schema.Columns[b])
	}
	for _, a := range x.Aggs {
		cols = append(cols, schema.Column{Name: a.As})
	}
	out := prel.New(schema.New(cols...))
	var keys []prel.Row
	for _, r := range in.Rows {
		key := pick(r.Tuple, by)
		g := find(keys, key)
		if g < 0 {
			g, keys = len(keys), append(keys, prel.Row{Tuple: key})
			t := append(key, make([]types.Value, len(x.Aggs))...)
			for j, a := range x.Aggs {
				if a.Fn == algebra.AggCount {
					t[len(by)+j] = types.Int(0)
				}
			}
			out.Append(prel.Row{Tuple: t})
		}
		acc := out.Rows[g].Tuple[len(by):]
		for j, a := range x.Aggs {
			v, cur := r.Tuple[argOrds[j]], acc[j]
			c, ok := types.Compare(v, cur)
			switch {
			case v.IsNull():
			case a.Fn == algebra.AggCount:
				acc[j] = types.Int(cur.AsInt() + 1)
			case a.Fn == algebra.AggSum && v.IsNumeric() && cur.IsNull():
				acc[j] = v
			case a.Fn == algebra.AggSum && v.IsNumeric() && cur.Kind() == types.KindInt && v.Kind() == types.KindInt:
				acc[j] = types.Int(cur.AsInt() + v.AsInt())
			case a.Fn == algebra.AggSum && v.IsNumeric():
				acc[j] = types.Float(cur.AsFloat() + v.AsFloat())
			case a.Fn == algebra.AggMin && (cur.IsNull() || ok && c < 0),
				a.Fn == algebra.AggMax && (cur.IsNull() || ok && c > 0):
				acc[j] = v
			}
		}
	}
	return out, nil
}

// rankBefore reports whether a ranks strictly ahead of b: score (or
// confidence) descending, the other dimension breaking ties, ⊥ last.
func rankBefore(a, b types.SC, byConf bool) bool {
	if a.Known != b.Known {
		return a.Known
	}
	p1, s1, p2, s2 := a.Score, a.Conf, b.Score, b.Conf
	if byConf {
		p1, s1, p2, s2 = a.Conf, a.Score, b.Conf, b.Score
	}
	return a.Known && (p1 > p2 || p1 == p2 && s1 > s2)
}

// ranked returns the rows in rank order, equally ranked rows in tuple
// order so the result is deterministic.
func ranked(rows []prel.Row, byConf bool) []prel.Row {
	out := append([]prel.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].SC, out[j].SC
		if rankBefore(a, b, byConf) || rankBefore(b, a, byConf) {
			return rankBefore(a, b, byConf)
		}
		return types.CompareTuples(out[i].Tuple, out[j].Tuple) < 0
	})
	return out
}

// orderLess is ORDER BY over attribute keys (NULLs first ascending).
func orderLess(s *schema.Schema, keys []algebra.OrderKey) (func(a, b prel.Row) bool, error) {
	cols := make([]expr.Col, len(keys))
	for i, k := range keys {
		cols[i] = k.Col
	}
	ords, err := ordinals(s, cols...)
	return func(a, b prel.Row) bool {
		for i, o := range ords {
			if c, _ := types.Compare(a.Tuple[o], b.Tuple[o]); c != 0 {
				return c < 0 != keys[i].Desc
			}
		}
		return false
	}, err
}

// attrDominance is Börzsönyi's attribute dominance over dims: at least as
// good everywhere and better somewhere; NULL or non-numeric is worst.
func attrDominance(s *schema.Schema, dims []algebra.SkyDim) (func(a, b prel.Row) bool, error) {
	cols := make([]expr.Col, len(dims))
	for i, d := range dims {
		cols[i] = d.Col
	}
	ords, err := ordinals(s, cols...)
	val := func(r prel.Row, i int) float64 {
		switch v := r.Tuple[ords[i]]; {
		case !v.IsNumeric():
			return math.Inf(-1)
		case dims[i].Max:
			return v.AsFloat()
		default:
			return -v.AsFloat()
		}
	}
	return func(a, b prel.Row) bool {
		strict := false
		for i := range ords {
			if val(a, i) < val(b, i) {
				return false
			}
			strict = strict || val(a, i) > val(b, i)
		}
		return strict
	}, err
}
