package expr

import (
	"fmt"
	"strings"

	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// Compiled is an expression bound to a concrete schema, ready to evaluate
// against tuples laid out by that schema.
//
// Evaluation follows SQL three-valued logic: comparisons involving NULL (or
// incomparable kinds) yield NULL, AND/OR propagate unknowns, and a WHERE
// condition accepts a tuple only when it evaluates to TRUE.
//
// The scalar evaluators (Eval, Truthy) only read the closure tree's
// captured state, so they may run concurrently from many goroutines; keep
// registered functions (Func.Eval) pure for the same reason. The batch
// evaluators (EvalBatch, EvalFloats) reuse scratch held in the tree —
// function calls and arithmetic over them keep their argument columns
// across batches — so a Compiled serves one batch caller at a time; each
// query compiles its own.
type Compiled struct {
	eval func(row []types.Value) types.Value
	kind types.Kind
	cols []int
	src  string
	// conj holds the separately compiled top-level conjuncts of an AND
	// condition (set by CompileCondition); TruthyBatch evaluates them
	// conjunct-by-conjunct over a shrinking selection vector instead of
	// re-entering the full evaluator per row. Empty for non-AND roots.
	conj []*Compiled
	// evalB, when set, is the vectorized evaluator: one call computes the
	// expression for every selected tuple, hoisting the scalar closures'
	// per-row scratch allocations (function-call argument slices) out of
	// the row loop. Set for function calls and for arithmetic with a
	// vectorizable operand; EvalBatch falls back to eval per row otherwise.
	evalB func(tuples [][]types.Value, sel []int32, out []types.Value)
	// filterB, when set, is a specialized condition kernel for the batch
	// filter path: it compacts the selection vector directly with typed
	// comparisons, skipping the closure evaluator and the generic
	// types.Compare dispatch per row. Set for column-vs-literal
	// comparisons; semantics are identical to Truthy.
	filterB func(tuples [][]types.Value, sel []int32) []int32
	// filterC, when set, is the direct-column variant of filterB: it
	// compacts the selection vector by reading borrowed column vectors
	// (types.ColVec) without decoding tuples. Set for column-vs-literal
	// comparisons only; see cols.go.
	filterC colFilter
	// colConj and rowConj split a condition's conjuncts (the condition
	// itself when it is not an AND) at compile time, set by
	// CompileCondition: those with a filterC kernel, and the rest, which
	// TruthyBatchCols runs over the row views.
	colConj, rowConj []*Compiled
	// evalC, when set, is the direct-column float evaluator feeding the
	// in-place ⟨S,C⟩ score path: out[k]/null[k] for row sel[k], read
	// straight from column vectors. Only built for nodes whose row-path
	// evaluation is already float-wise (see cols.go for the exactness
	// rule), so results are bit-identical to eval + AsFloat.
	evalC colEval
}

// Eval evaluates the expression over a tuple.
func (c *Compiled) Eval(row []types.Value) types.Value { return c.eval(row) }

// Kind returns the static result kind.
func (c *Compiled) Kind() types.Kind { return c.kind }

// Columns returns the bound column ordinals the expression reads.
func (c *Compiled) Columns() []int { return c.cols }

// String returns the source form of the compiled expression.
func (c *Compiled) String() string { return c.src }

// Truthy applies the expression as a condition: only TRUE accepts.
func (c *Compiled) Truthy(row []types.Value) bool {
	v := c.eval(row)
	return v.Kind() == types.KindBool && v.AsBool()
}

// TruthyBatch applies the expression as a condition over a batch of
// tuples, compacting the selection vector in place: the returned slice
// (a prefix reuse of sel's backing array) holds, in order, the indices of
// the tuples the condition accepts.
//
// A condition compiled by CompileCondition whose root is an AND evaluates
// conjunct-by-conjunct: each conjunct filters the surviving selection
// vector, so later conjuncts never run on tuples an earlier one rejected
// and the per-row closure dispatch for the AND node itself disappears.
// This matches Truthy exactly — Truthy(a AND b) holds iff Truthy(a) and
// Truthy(b) hold (three-valued logic only accepts TRUE) — and relies on
// registered functions being pure, which expr already requires.
func (c *Compiled) TruthyBatch(tuples [][]types.Value, sel []int32) []int32 {
	if len(c.conj) > 1 {
		for _, p := range c.conj {
			sel = p.truthyFilter(tuples, sel)
			if len(sel) == 0 {
				break
			}
		}
		return sel
	}
	return c.truthyFilter(tuples, sel)
}

// EvalBatch evaluates the expression for each selected tuple, writing the
// result for tuple sel[k] into out[k] (out must have len(sel) slots).
// Nodes with a vectorized form (function calls, arithmetic over them)
// amortize their scratch allocations over the batch; anything else falls
// back to the scalar evaluator per row, so results are always identical
// to Eval.
func (c *Compiled) EvalBatch(tuples [][]types.Value, sel []int32, out []types.Value) {
	if c.evalB != nil {
		c.evalB(tuples, sel, out)
		return
	}
	for k, i := range sel {
		out[k] = c.eval(tuples[i])
	}
}

// truthyFilter compacts sel to the tuples this expression accepts.
func (c *Compiled) truthyFilter(tuples [][]types.Value, sel []int32) []int32 {
	if c.filterB != nil {
		return c.filterB(tuples, sel)
	}
	out := sel[:0]
	for _, i := range sel {
		v := c.eval(tuples[i])
		if v.Kind() == types.KindBool && v.AsBool() {
			out = append(out, i)
		}
	}
	return out
}

// Compile binds n to s, resolving columns and functions and type-checking
// operator applications.
func Compile(n Node, s *schema.Schema, funcs *Registry) (*Compiled, error) {
	c := &compiler{schema: s, funcs: funcs}
	out, err := c.compile(n)
	if err != nil {
		return nil, err
	}
	out.src = n.String()
	out.cols = c.cols
	return out, nil
}

// CompileCondition compiles n and verifies it yields a boolean. When the
// condition's root is a conjunction, the top-level conjuncts are also
// compiled individually so TruthyBatch can evaluate them one at a time
// over a shrinking selection vector, and TruthyBatchCols those with a
// direct-column kernel first.
func CompileCondition(n Node, s *schema.Schema, funcs *Registry) (*Compiled, error) {
	out, err := Compile(n, s, funcs)
	if err != nil {
		return nil, err
	}
	if out.kind != types.KindBool && out.kind != types.KindNull {
		return nil, fmt.Errorf("expr: condition %s has non-boolean type %s", n, out.kind)
	}
	if parts := Conjuncts(n); len(parts) > 1 {
		out.conj = make([]*Compiled, len(parts))
		for i, p := range parts {
			// The whole condition compiled, so each conjunct compiles too;
			// a fresh compiler keeps the main column-set untouched.
			cp, cErr := Compile(p, s, funcs)
			if cErr != nil {
				return nil, cErr
			}
			out.conj[i] = cp
		}
	}
	parts := []*Compiled{out}
	if len(out.conj) > 0 {
		parts = out.conj
	}
	for _, p := range parts {
		if p.filterC != nil {
			out.colConj = append(out.colConj, p)
		} else {
			out.rowConj = append(out.rowConj, p)
		}
	}
	return out, nil
}

type compiler struct {
	schema *schema.Schema
	funcs  *Registry
	cols   []int
}

func (c *compiler) compile(n Node) (*Compiled, error) {
	switch x := n.(type) {
	case Col:
		idx, err := c.schema.IndexOf(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		c.cols = append(c.cols, idx)
		kind := c.schema.Columns[idx].Kind
		out := &Compiled{kind: kind, eval: func(row []types.Value) types.Value { return row[idx] }}
		if numericKind(kind) {
			out.evalC = colEvalC(idx, kind)
		}
		return out, nil

	case Lit:
		v := x.Val
		return &Compiled{kind: v.Kind(), evalC: litEvalC(v),
			eval: func([]types.Value) types.Value { return v }}, nil

	case Bin:
		return c.compileBin(x)

	case Un:
		return c.compileUn(x)

	case Call:
		return c.compileCall(x)

	case Between:
		// Desugar: lo <= x AND x <= hi.
		return c.compile(Bin{Op: OpAnd,
			L: Bin{Op: OpLe, L: x.Lo, R: x.X},
			R: Bin{Op: OpLe, L: x.X, R: x.Hi},
		})

	case In:
		return c.compileIn(x)

	case Like:
		return c.compileLike(x)

	case IsNull:
		inner, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		neg := x.Negate
		return &Compiled{kind: types.KindBool, eval: func(row []types.Value) types.Value {
			isNull := inner.eval(row).IsNull()
			return types.Bool(isNull != neg)
		}}, nil

	case nil:
		return nil, fmt.Errorf("expr: cannot compile nil expression")

	default:
		return nil, fmt.Errorf("expr: unknown node type %T", n)
	}
}

func (c *compiler) compileBin(x Bin) (*Compiled, error) {
	l, err := c.compile(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(x.R)
	if err != nil {
		return nil, err
	}
	switch {
	case x.Op.IsComparison():
		op := x.Op
		out := &Compiled{kind: types.KindBool, eval: func(row []types.Value) types.Value {
			lv, rv := l.eval(row), r.eval(row)
			if lv.IsNull() || rv.IsNull() {
				return types.Null()
			}
			cmp, ok := types.Compare(lv, rv)
			if !ok {
				return types.Null()
			}
			switch op {
			case OpEq:
				return types.Bool(cmp == 0)
			case OpNe:
				return types.Bool(cmp != 0)
			case OpLt:
				return types.Bool(cmp < 0)
			case OpLe:
				return types.Bool(cmp <= 0)
			case OpGt:
				return types.Bool(cmp > 0)
			default:
				return types.Bool(cmp >= 0)
			}
		}}
		out.filterB = c.compareFilter(x)
		out.filterC = c.compareFilterCols(x)
		return out, nil

	case x.Op == OpAnd:
		return &Compiled{kind: types.KindBool, eval: func(row []types.Value) types.Value {
			lv := l.eval(row)
			if lv.Kind() == types.KindBool && !lv.AsBool() {
				return types.Bool(false)
			}
			rv := r.eval(row)
			if rv.Kind() == types.KindBool && !rv.AsBool() {
				return types.Bool(false)
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null()
			}
			return types.Bool(lv.AsBool() && rv.AsBool())
		}}, nil

	case x.Op == OpOr:
		return &Compiled{kind: types.KindBool, eval: func(row []types.Value) types.Value {
			lv := l.eval(row)
			if lv.Kind() == types.KindBool && lv.AsBool() {
				return types.Bool(true)
			}
			rv := r.eval(row)
			if rv.Kind() == types.KindBool && rv.AsBool() {
				return types.Bool(true)
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null()
			}
			return types.Bool(false)
		}}, nil

	case x.Op == OpAdd || x.Op == OpSub || x.Op == OpMul || x.Op == OpDiv || x.Op == OpMod:
		if err := wantNumeric(x.Op, l.kind, r.kind); err != nil {
			return nil, err
		}
		kind := types.KindFloat
		if l.kind == types.KindInt && r.kind == types.KindInt && x.Op != OpDiv {
			kind = types.KindInt
		}
		apply := arithApply(x.Op, kind)
		out := &Compiled{kind: kind, eval: func(row []types.Value) types.Value {
			return apply(l.eval(row), r.eval(row))
		}}
		if kind == types.KindFloat {
			out.evalC = binEvalC(x.Op, l, r)
		}
		if l.evalB != nil || r.evalB != nil {
			// Vectorize only when an operand benefits: both sides evaluate
			// column-wise (hoisting nested call scratch out of the row
			// loop), then the scalar kernel combines per row. Pure
			// column/literal arithmetic stays on the allocation-free
			// fallback loop.
			var lcol, rcol []types.Value
			out.evalB = func(tuples [][]types.Value, sel []int32, res []types.Value) {
				lcol, rcol = grow(lcol, len(sel)), grow(rcol, len(sel))
				l.EvalBatch(tuples, sel, lcol)
				r.EvalBatch(tuples, sel, rcol)
				for k := range lcol {
					res[k] = apply(lcol[k], rcol[k])
				}
			}
		}
		return out, nil

	default:
		return nil, fmt.Errorf("expr: unsupported binary operator %s", x.Op)
	}
}

// compareFilter builds the typed batch-filter kernel for a column-vs-literal
// comparison (either orientation), or returns nil when the operands don't
// match that shape. The kernel mirrors the scalar evaluator exactly: a NULL
// operand or incomparable kinds reject the tuple (three-valued logic only
// accepts TRUE), numerics compare int-wise when both sides are INT,
// exactly (types.CmpIntFloat) when one is, and float-wise otherwise;
// strings and bools compare within their own kind.
func (c *compiler) compareFilter(x Bin) func(tuples [][]types.Value, sel []int32) []int32 {
	col, okC := x.L.(Col)
	lit, okL := x.R.(Lit)
	flip := false
	if !okC || !okL {
		col, okC = x.R.(Col)
		lit, okL = x.L.(Lit)
		if !okC || !okL {
			return nil
		}
		flip = true // literal on the left: Compare's sign is mirrored
	}
	idx, err := c.schema.IndexOf(col.Table, col.Name)
	if err != nil {
		return nil
	}
	v := lit.Val
	if v.IsNull() {
		// NULL comparand: the comparison is NULL for every row, so the
		// condition accepts nothing.
		return func(_ [][]types.Value, sel []int32) []int32 { return sel[:0] }
	}
	// Decompose the operator into which Compare signs it accepts; flipping
	// the orientation swaps the lt/gt accept bits.
	var ltOK, eqOK, gtOK bool
	switch x.Op {
	case OpEq:
		eqOK = true
	case OpNe:
		ltOK, gtOK = true, true
	case OpLt:
		ltOK = true
	case OpLe:
		ltOK, eqOK = true, true
	case OpGt:
		gtOK = true
	default: // OpGe
		eqOK, gtOK = true, true
	}
	if flip {
		ltOK, gtOK = gtOK, ltOK
	}
	switch v.Kind() {
	case types.KindInt, types.KindFloat:
		ri := int64(0)
		litInt := v.Kind() == types.KindInt
		if litInt {
			ri = v.AsInt()
		}
		rf := v.AsFloat()
		return func(tuples [][]types.Value, sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				lv := tuples[i][idx]
				cmp := 0
				switch lk := lv.Kind(); {
				case lk == types.KindInt && litInt:
					switch a := lv.AsInt(); {
					case a < ri:
						cmp = -1
					case a > ri:
						cmp = 1
					}
				case lk == types.KindInt: // exact, as types.Compare
					cmp = types.CmpIntFloat(lv.AsInt(), rf)
				case lk == types.KindFloat && litInt:
					cmp = -types.CmpIntFloat(ri, lv.AsFloat())
				case lk == types.KindFloat:
					switch a := lv.AsFloat(); {
					case a < rf:
						cmp = -1
					case a > rf:
						cmp = 1
					}
				default: // NULL or non-numeric kind: incomparable, reject
					continue
				}
				if (cmp < 0 && ltOK) || (cmp == 0 && eqOK) || (cmp > 0 && gtOK) {
					out = append(out, i)
				}
			}
			return out
		}
	case types.KindString:
		rs := v.AsString()
		return func(tuples [][]types.Value, sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				lv := tuples[i][idx]
				if lv.Kind() != types.KindString {
					continue
				}
				cmp := 0
				switch a := lv.AsString(); {
				case a < rs:
					cmp = -1
				case a > rs:
					cmp = 1
				}
				if (cmp < 0 && ltOK) || (cmp == 0 && eqOK) || (cmp > 0 && gtOK) {
					out = append(out, i)
				}
			}
			return out
		}
	case types.KindBool:
		rb := v.AsBool()
		return func(tuples [][]types.Value, sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				lv := tuples[i][idx]
				if lv.Kind() != types.KindBool {
					continue
				}
				cmp := 0
				switch a := lv.AsBool(); {
				case !a && rb:
					cmp = -1 // false sorts before true
				case a && !rb:
					cmp = 1
				}
				if (cmp < 0 && ltOK) || (cmp == 0 && eqOK) || (cmp > 0 && gtOK) {
					out = append(out, i)
				}
			}
			return out
		}
	default:
		return nil
	}
}

// arithApply returns the scalar arithmetic kernel for op at the given
// result kind; NULL operands (and division/modulo by zero) yield NULL.
func arithApply(op Op, kind types.Kind) func(lv, rv types.Value) types.Value {
	return func(lv, rv types.Value) types.Value {
		if lv.IsNull() || rv.IsNull() {
			return types.Null()
		}
		if kind == types.KindInt {
			a, b := lv.AsInt(), rv.AsInt()
			switch op {
			case OpAdd:
				return types.Int(a + b)
			case OpSub:
				return types.Int(a - b)
			case OpMul:
				return types.Int(a * b)
			default: // OpMod
				if b == 0 {
					return types.Null()
				}
				return types.Int(a % b)
			}
		}
		a, b := lv.AsFloat(), rv.AsFloat()
		switch op {
		case OpAdd:
			return types.Float(a + b)
		case OpSub:
			return types.Float(a - b)
		case OpMul:
			return types.Float(a * b)
		case OpDiv:
			if b == 0 {
				return types.Null()
			}
			return types.Float(a / b)
		default: // OpMod over floats: undefined, NULL
			return types.Null()
		}
	}
}

func wantNumeric(op Op, kinds ...types.Kind) error {
	for _, k := range kinds {
		if k != types.KindInt && k != types.KindFloat && k != types.KindNull {
			return fmt.Errorf("expr: operator %s requires numeric operands, got %s", op, k)
		}
	}
	return nil
}

func (c *compiler) compileUn(x Un) (*Compiled, error) {
	inner, err := c.compile(x.X)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case OpNot:
		return &Compiled{kind: types.KindBool, eval: func(row []types.Value) types.Value {
			v := inner.eval(row)
			if v.IsNull() {
				return types.Null()
			}
			return types.Bool(!v.AsBool())
		}}, nil
	case OpNeg:
		if err := wantNumeric(OpNeg, inner.kind); err != nil {
			return nil, err
		}
		kind := inner.kind
		out := &Compiled{kind: kind, eval: func(row []types.Value) types.Value {
			v := inner.eval(row)
			if v.IsNull() {
				return types.Null()
			}
			if v.Kind() == types.KindInt {
				return types.Int(-v.AsInt())
			}
			return types.Float(-v.AsFloat())
		}}
		if kind == types.KindFloat {
			out.evalC = negEvalC(inner)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("expr: unsupported unary operator %s", x.Op)
	}
}

func (c *compiler) compileCall(x Call) (*Compiled, error) {
	f, ok := c.funcs.Lookup(x.Name)
	if !ok {
		return nil, fmt.Errorf("expr: unknown function %q (known: %s)", x.Name, strings.Join(c.funcs.Names(), ", "))
	}
	if len(x.Args) < f.MinArgs || (f.MaxArgs >= 0 && len(x.Args) > f.MaxArgs) {
		return nil, fmt.Errorf("expr: function %q called with %d args, want %d..%d", x.Name, len(x.Args), f.MinArgs, f.MaxArgs)
	}
	args := make([]*Compiled, len(x.Args))
	for i, a := range x.Args {
		ca, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		args[i] = ca
	}
	fn := f.Eval
	ff := f.Floats
	// Batch scratch: one column per argument, grown to the largest batch
	// seen, and one row of arguments for the kernel.
	cols := make([][]types.Value, len(args))
	fvals := make([]float64, len(args))
	argRow := make([]types.Value, len(args))
	return &Compiled{kind: f.Kind, evalC: callEvalC(ff, args),
		eval: func(row []types.Value) types.Value {
			vals := make([]types.Value, len(args))
			for i, a := range args {
				vals[i] = a.eval(row)
			}
			return fn(vals)
		},
		evalB: func(tuples [][]types.Value, sel []int32, out []types.Value) {
			// Arguments evaluate column-wise (vectorizing nested calls).
			for j, a := range args {
				cols[j] = grow(cols[j], len(sel))
				a.EvalBatch(tuples, sel, cols[j])
			}
			if ff != nil {
				// Float-kernel fast path (Func.Floats): skips Eval's
				// per-row []types.Value → []float64 conversion allocation.
			rows:
				for k := range sel {
					for j := range cols {
						v := cols[j][k]
						if v.IsNull() || !v.IsNumeric() {
							out[k] = types.Null()
							continue rows
						}
						fvals[j] = v.AsFloat()
					}
					out[k] = types.Float(ff(fvals))
				}
				return
			}
			for k := range sel {
				for j := range cols {
					argRow[j] = cols[j][k]
				}
				out[k] = fn(argRow)
			}
		},
	}, nil
}

func (c *compiler) compileIn(x In) (*Compiled, error) {
	inner, err := c.compile(x.X)
	if err != nil {
		return nil, err
	}
	items := make([]*Compiled, len(x.List))
	allLit := true
	for i, a := range x.List {
		ca, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		items[i] = ca
		if _, isLit := a.(Lit); !isLit {
			allLit = false
		}
	}
	if allLit {
		// Fast path: hash set of literal values. A NULL literal in the list
		// makes any non-match unknown (SQL three-valued IN).
		set := make(map[uint64][]types.Value, len(items))
		hasNull := false
		for _, it := range items {
			v := it.eval(nil)
			if v.IsNull() {
				hasNull = true
				continue
			}
			set[v.Hash()] = append(set[v.Hash()], v)
		}
		return &Compiled{kind: types.KindBool, eval: func(row []types.Value) types.Value {
			v := inner.eval(row)
			if v.IsNull() {
				return types.Null()
			}
			for _, cand := range set[v.Hash()] {
				if cand.Equal(v) {
					return types.Bool(true)
				}
			}
			if hasNull {
				return types.Null()
			}
			return types.Bool(false)
		}}, nil
	}
	return &Compiled{kind: types.KindBool, eval: func(row []types.Value) types.Value {
		v := inner.eval(row)
		if v.IsNull() {
			return types.Null()
		}
		sawNull := false
		for _, it := range items {
			iv := it.eval(row)
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if iv.Equal(v) {
				return types.Bool(true)
			}
		}
		if sawNull {
			return types.Null()
		}
		return types.Bool(false)
	}}, nil
}

func (c *compiler) compileLike(x Like) (*Compiled, error) {
	inner, err := c.compile(x.X)
	if err != nil {
		return nil, err
	}
	if inner.kind != types.KindString && inner.kind != types.KindNull {
		return nil, fmt.Errorf("expr: LIKE requires a string operand, got %s", inner.kind)
	}
	pat := x.Pattern
	return &Compiled{kind: types.KindBool, eval: func(row []types.Value) types.Value {
		v := inner.eval(row)
		if v.IsNull() {
			return types.Null()
		}
		return types.Bool(likeMatch(v.AsString(), pat))
	}}, nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune),
// case-sensitively, via iterative backtracking.
func likeMatch(s, pat string) bool {
	sr, pr := []rune(s), []rune(pat)
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(sr) {
		switch {
		case pi < len(pr) && (pr[pi] == '_' || pr[pi] == sr[si]):
			si++
			pi++
		case pi < len(pr) && pr[pi] == '%':
			star, mark = pi, si
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star+1
		default:
			return false
		}
	}
	for pi < len(pr) && pr[pi] == '%' {
		pi++
	}
	return pi == len(pr)
}

// grow returns buf resliced to n, reallocated only when it is too short:
// the batch evaluators' scratch grows to the largest batch and stays.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
