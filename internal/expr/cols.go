// Direct-on-column kernels: the batch filter and score paths that read
// borrowed colstore vectors (types.ColVec) instead of tuples.
//
// Every kernel mirrors the scalar evaluator bit-for-bit — the same
// three-valued comparison semantics as compareFilter (NULL or
// incomparable kinds reject; numerics compare int-wise when both sides
// are INT, exactly through types.CmpIntFloat when one is, float-wise
// otherwise; NaN compares equal, as in types.Compare) and the same float
// arithmetic as
// arithApply. Each kernel picks the vector it reads once, at compile
// time, from the column's declared kind: the heap admits only NULL or
// that kind, so a columnar batch always carries that vector
// (types.ColVec).
//
// Exactness rule for the score path: an INT-kind arithmetic node
// evaluates with wrapping int64 semantics on the row path
// (arithApply), which float64 cannot reproduce, so evalC is only built
// for nodes whose row-path evaluation is already float-wise.
package expr

import (
	"prefdb/internal/types"
)

// ColScratch carries the per-conjunct kernel caches a sequential batch
// pipeline reuses across batches. The only cache today is the
// dictionary-predicate accept vector: a string comparison evaluates once
// per segment against the dictionary, and consecutive windows of the
// same segment share the Dict slice, so the accept bits carry over.
// One ColScratch per compiled condition per goroutine; zero value ready.
type ColScratch struct {
	perConj []dictCache
}

func (s *ColScratch) cacheFor(i int) *dictCache {
	for len(s.perConj) <= i {
		s.perConj = append(s.perConj, dictCache{})
	}
	return &s.perConj[i]
}

// dictCache holds the accept bit per dictionary code for one string
// conjunct, keyed by the identity of the segment dictionary it was
// computed against.
type dictCache struct {
	dict   []string
	accept []bool
}

func (d *dictCache) matches(dict []string) bool {
	return len(d.dict) == len(dict) && (len(dict) == 0 || &d.dict[0] == &dict[0])
}

// TruthyBatchCols applies the condition over a columnar batch: the
// conjuncts with a direct-column kernel compact sel against the borrowed
// vectors first (AND commutes, so kernel-capable conjuncts running early
// never changes the accepted set), then the remaining conjuncts run over
// the row views. The split is made at compile time (CompileCondition), so
// c must come from CompileCondition. The second return value is the
// number of selected rows that crossed that materialization boundary (0
// when every conjunct ran direct); exec folds it into
// Stats.RowsMaterialized.
func (c *Compiled) TruthyBatchCols(cols []types.ColVec, rows [][]types.Value, sel []int32, scr *ColScratch) ([]int32, int) {
	for i, p := range c.colConj {
		if len(sel) == 0 {
			return sel, 0
		}
		sel = p.filterC(cols, sel, scr.cacheFor(i))
	}
	if len(c.rowConj) == 0 || len(sel) == 0 {
		return sel, 0
	}
	mat := len(sel)
	for _, p := range c.rowConj {
		sel = p.truthyFilter(rows, sel)
		if len(sel) == 0 {
			break
		}
	}
	return sel, mat
}

// EvalFloats evaluates the expression over borrowed column vectors as a
// float column: out[k] (and its NULL flag null[k]) for row sel[k], both
// len(sel). The expression must have a direct-column form (CanEvalCols).
// The results are exactly EvalBatch's: a numeric value v becomes
// (v.AsFloat(), false) and NULL becomes (_, true).
func (c *Compiled) EvalFloats(cols []types.ColVec, sel []int32, out []float64, null []bool) {
	c.evalC(cols, sel, out, null)
}

// CanEvalCols reports whether the expression compiled a direct-column
// score kernel; the executor scores columnar batches through EvalFloats
// when it did.
func (c *Compiled) CanEvalCols() bool { return c.evalC != nil }

// CanFilterCols reports whether the condition has at least one conjunct
// with a direct-column filter kernel.
func (c *Compiled) CanFilterCols() bool { return len(c.colConj) > 0 }

// acceptMask is the lt/eq/gt accept-bit decomposition of a comparison
// operator (compareFilter's decomposition, factored for reuse by the
// column kernels).
type acceptMask struct{ lt, eq, gt bool }

func opAccept(op Op, flip bool) acceptMask {
	var m acceptMask
	switch op {
	case OpEq:
		m.eq = true
	case OpNe:
		m.lt, m.gt = true, true
	case OpLt:
		m.lt = true
	case OpLe:
		m.lt, m.eq = true, true
	case OpGt:
		m.gt = true
	default: // OpGe
		m.eq, m.gt = true, true
	}
	if flip {
		m.lt, m.gt = m.gt, m.lt
	}
	return m
}

func (m acceptMask) ok(cmp int) bool {
	return (cmp < 0 && m.lt) || (cmp == 0 && m.eq) || (cmp > 0 && m.gt)
}

// colFilter is a direct-column filter kernel: it compacts sel to the rows
// whose column values the condition accepts.
type colFilter func(cols []types.ColVec, sel []int32, dc *dictCache) []int32

// colEval is a direct-column score kernel: out[k] and null[k] for row
// sel[k].
type colEval func(cols []types.ColVec, sel []int32, out []float64, null []bool)

// rejectCols is the kernel of a comparison that is NULL for every row (a
// NULL comparand, or operands of incomparable kinds): nothing passes.
func rejectCols(_ []types.ColVec, sel []int32, _ *dictCache) []int32 { return sel[:0] }

// compareFilterCols builds the direct-column kernel for a column-vs-literal
// comparison, in either orientation. Returns nil for any other shape: a
// comparison of two columns runs over the row views with the other row
// conjuncts.
func (c *compiler) compareFilterCols(x Bin) colFilter {
	if col, okC := x.L.(Col); okC {
		if lit, okL := x.R.(Lit); okL {
			return c.colLitKernel(col, lit, x.Op, false)
		}
	}
	if lit, okL := x.L.(Lit); okL {
		if col, okC := x.R.(Col); okC {
			// Literal on the left: Compare's sign is mirrored.
			return c.colLitKernel(col, lit, x.Op, true)
		}
	}
	return nil
}

func (c *compiler) colLitKernel(col Col, lit Lit, op Op, flip bool) colFilter {
	idx, err := c.schema.IndexOf(col.Table, col.Name)
	if err != nil {
		return nil
	}
	v := lit.Val
	if v.IsNull() {
		// NULL comparand: the comparison is NULL for every row, so the
		// condition accepts nothing — no vector needed.
		return rejectCols
	}
	m := opAccept(op, flip)
	kind := c.schema.Columns[idx].Kind
	switch v.Kind() {
	case types.KindInt, types.KindFloat:
		rf := v.AsFloat()
		switch {
		case kind == types.KindInt && v.Kind() == types.KindInt:
			ri := v.AsInt()
			return func(cols []types.ColVec, sel []int32, _ *dictCache) []int32 {
				vec, nulls := cols[idx].Ints, cols[idx].Nulls
				out := sel[:0]
				for _, i := range sel {
					if nulls != nil && nulls[i] {
						continue
					}
					cmp := 0
					switch a := vec[i]; {
					case a < ri:
						cmp = -1
					case a > ri:
						cmp = 1
					}
					if m.ok(cmp) {
						out = append(out, i)
					}
				}
				return out
			}
		case kind == types.KindInt:
			// INT column vs FLOAT literal: exact, as types.Compare.
			return func(cols []types.ColVec, sel []int32, _ *dictCache) []int32 {
				vec, nulls := cols[idx].Ints, cols[idx].Nulls
				out := sel[:0]
				for _, i := range sel {
					if nulls != nil && nulls[i] {
						continue
					}
					if m.ok(types.CmpIntFloat(vec[i], rf)) {
						out = append(out, i)
					}
				}
				return out
			}
		case kind == types.KindFloat && v.Kind() == types.KindInt:
			// FLOAT column vs INT literal: exact, as types.Compare.
			ri := v.AsInt()
			return func(cols []types.ColVec, sel []int32, _ *dictCache) []int32 {
				vec, nulls := cols[idx].Floats, cols[idx].Nulls
				out := sel[:0]
				for _, i := range sel {
					if nulls != nil && nulls[i] {
						continue
					}
					if m.ok(-types.CmpIntFloat(ri, vec[i])) {
						out = append(out, i)
					}
				}
				return out
			}
		case kind == types.KindFloat:
			return func(cols []types.ColVec, sel []int32, _ *dictCache) []int32 {
				vec, nulls := cols[idx].Floats, cols[idx].Nulls
				out := sel[:0]
				for _, i := range sel {
					if nulls != nil && nulls[i] {
						continue
					}
					cmp := 0
					switch a := vec[i]; {
					case a < rf:
						cmp = -1
					case a > rf:
						cmp = 1
					}
					if m.ok(cmp) {
						out = append(out, i)
					}
				}
				return out
			}
		}
	case types.KindString:
		if kind != types.KindString {
			break
		}
		rs := v.AsString()
		return func(cols []types.ColVec, sel []int32, dc *dictCache) []int32 {
			cv := &cols[idx]
			// Evaluate the predicate once per segment against the
			// dictionary: consecutive windows share the Dict slice, so the
			// accept bits are cached on identity.
			if !dc.matches(cv.Dict) {
				dc.dict = cv.Dict
				if cap(dc.accept) < len(cv.Dict) {
					dc.accept = make([]bool, len(cv.Dict))
				}
				dc.accept = dc.accept[:len(cv.Dict)]
				for code, s := range cv.Dict {
					cmp := 0
					switch {
					case s < rs:
						cmp = -1
					case s > rs:
						cmp = 1
					}
					dc.accept[code] = m.ok(cmp)
				}
			}
			accept := dc.accept
			nulls := cv.Nulls
			out := sel[:0]
			codes := cv.Codes
			for _, i := range sel {
				if nulls != nil && nulls[i] {
					continue
				}
				if accept[codes[i]] {
					out = append(out, i)
				}
			}
			return out
		}
	case types.KindBool:
		if kind != types.KindBool {
			break
		}
		rb := v.AsBool()
		return func(cols []types.ColVec, sel []int32, _ *dictCache) []int32 {
			vec, nulls := cols[idx].Bools, cols[idx].Nulls
			out := sel[:0]
			for _, i := range sel {
				if nulls != nil && nulls[i] {
					continue
				}
				cmp := 0
				switch a := vec[i]; {
				case !a && rb:
					cmp = -1 // false sorts before true
				case a && !rb:
					cmp = 1
				}
				if m.ok(cmp) {
					out = append(out, i)
				}
			}
			return out
		}
	default:
		return nil
	}
	// The column's kind is incomparable with the literal's: every
	// comparison is NULL, so nothing passes.
	return rejectCols
}

// numericKind reports whether a column of this kind can feed the float
// score path.
func numericKind(k types.Kind) bool { return k == types.KindInt || k == types.KindFloat }

// colEvalC builds the score kernel for a column leaf of a numeric kind:
// the vector loads as float64 with its NULL flags. INT columns convert
// exactly as Value.AsFloat does (float64(i)).
func colEvalC(idx int, kind types.Kind) colEval {
	if kind == types.KindInt {
		return func(cols []types.ColVec, sel []int32, out []float64, null []bool) {
			vec, nulls := cols[idx].Ints, cols[idx].Nulls
			for k, i := range sel {
				out[k] = float64(vec[i])
				null[k] = nulls != nil && nulls[i]
			}
		}
	}
	return func(cols []types.ColVec, sel []int32, out []float64, null []bool) {
		vec, nulls := cols[idx].Floats, cols[idx].Nulls
		for k, i := range sel {
			out[k] = vec[i]
			null[k] = nulls != nil && nulls[i]
		}
	}
}

// litEvalC builds the score kernel for a numeric or NULL literal.
func litEvalC(v types.Value) colEval {
	if v.IsNull() {
		return func(_ []types.ColVec, sel []int32, out []float64, null []bool) {
			for k := range sel {
				out[k], null[k] = 0, true
			}
		}
	}
	if !v.IsNumeric() {
		return nil
	}
	f := v.AsFloat()
	return func(_ []types.ColVec, sel []int32, out []float64, null []bool) {
		for k := range sel {
			out[k], null[k] = f, false
		}
	}
}

// binEvalC builds the score kernel for FLOAT-kind arithmetic (INT-kind
// nodes wrap int64 on the row path, which float64 cannot reproduce, so
// they never compile a kernel). Division by zero and float modulo yield
// NULL, exactly arithApply at KindFloat.
func binEvalC(op Op, l, r *Compiled) colEval {
	if l.evalC == nil || r.evalC == nil {
		return nil
	}
	var rOut []float64
	var rNull []bool
	return func(cols []types.ColVec, sel []int32, out []float64, null []bool) {
		n := len(sel)
		rOut, rNull = grow(rOut, n), grow(rNull, n)
		l.evalC(cols, sel, out, null)
		r.evalC(cols, sel, rOut, rNull)
		for k := 0; k < n; k++ {
			if null[k] || rNull[k] {
				null[k] = true
				continue
			}
			a, b := out[k], rOut[k]
			switch op {
			case OpAdd:
				out[k] = a + b
			case OpSub:
				out[k] = a - b
			case OpMul:
				out[k] = a * b
			case OpDiv:
				if b == 0 {
					null[k] = true
					continue
				}
				out[k] = a / b
			default: // OpMod over floats: undefined, NULL
				null[k] = true
			}
		}
	}
}

// negEvalC builds the score kernel for FLOAT-kind negation (INT-kind
// negation can wrap at MinInt64 on the row path, so it stays scalar).
func negEvalC(inner *Compiled) colEval {
	if inner.evalC == nil {
		return nil
	}
	return func(cols []types.ColVec, sel []int32, out []float64, null []bool) {
		inner.evalC(cols, sel, out, null)
		for k := range out {
			if !null[k] {
				out[k] = -out[k]
			}
		}
	}
}

// callEvalC builds the score kernel for a function call with a float
// kernel (Func.Floats) and direct-column arguments: argument columns
// evaluate kernel-wise, a NULL argument yields a NULL result, exactly
// the Floats fast path of the tuple evalB.
func callEvalC(ff func([]float64) float64, args []*Compiled) colEval {
	if ff == nil {
		return nil
	}
	for _, a := range args {
		if a.evalC == nil {
			return nil
		}
	}
	// Batch scratch, kept across batches like the tuple evalB's.
	argOut := make([][]float64, len(args))
	argNull := make([][]bool, len(args))
	fvals := make([]float64, len(args))
	return func(cols []types.ColVec, sel []int32, out []float64, null []bool) {
		n := len(sel)
		for j, a := range args {
			argOut[j], argNull[j] = grow(argOut[j], n), grow(argNull[j], n)
			a.evalC(cols, sel, argOut[j], argNull[j])
		}
	rows:
		for k := 0; k < n; k++ {
			for j := range args {
				if argNull[j][k] {
					out[k], null[k] = 0, true
					continue rows
				}
				fvals[j] = argOut[j][k]
			}
			out[k], null[k] = ff(fvals), false
		}
	}
}
