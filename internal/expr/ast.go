// Package expr implements the scalar expression language of prefdb:
// an unbound AST produced by the parser and manipulated by the optimizer,
// and a compiler that binds expressions to a schema for evaluation with
// SQL-style three-valued logic.
package expr

import (
	"fmt"
	"strings"

	"prefdb/internal/types"
)

// Op enumerates binary and unary operators.
type Op uint8

const (
	OpInvalid Op = iota
	// Comparisons.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// Boolean connectives.
	OpAnd
	OpOr
	OpNot
	// Arithmetic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
)

// String renders the operator as its SQL token.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpNot:
		return "NOT"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpNeg:
		return "-"
	default:
		return "?"
	}
}

// IsComparison reports whether o is one of the six comparison operators.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// Node is an unbound expression tree node.
type Node interface {
	fmt.Stringer
	// walk visits this node then its children; returning false stops.
	walk(func(Node) bool) bool
}

// Col references a column, optionally qualified by table or alias.
type Col struct {
	Table string
	Name  string
}

// Lit is a literal value.
type Lit struct {
	Val types.Value
}

// Bin is a binary operation.
type Bin struct {
	Op   Op
	L, R Node
}

// Un is a unary operation (NOT, negation).
type Un struct {
	Op Op
	X  Node
}

// Call invokes a registered scalar or scoring function.
type Call struct {
	Name string
	Args []Node
}

// Between is x BETWEEN lo AND hi (inclusive).
type Between struct {
	X, Lo, Hi Node
}

// In is x IN (v1, v2, ...).
type In struct {
	X    Node
	List []Node
}

// Like is x LIKE pattern with % and _ wildcards.
type Like struct {
	X       Node
	Pattern string
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X      Node
	Negate bool
}

// TrueLiteral returns the constant TRUE node (σ_true conditions, e.g. the
// paper's membership preference p7).
func TrueLiteral() Node { return Lit{Val: types.Bool(true)} }

func (c Col) String() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}
func (l Lit) String() string { return l.Val.SQL() }
func (b Bin) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}
func (u Un) String() string {
	if u.Op == OpNot {
		return "(NOT " + u.X.String() + ")"
	}
	return "(" + u.Op.String() + u.X.String() + ")"
}
func (c Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return c.Name + "(" + strings.Join(args, ", ") + ")"
}
func (b Between) String() string {
	return "(" + b.X.String() + " BETWEEN " + b.Lo.String() + " AND " + b.Hi.String() + ")"
}
func (i In) String() string {
	items := make([]string, len(i.List))
	for j, a := range i.List {
		items[j] = a.String()
	}
	return "(" + i.X.String() + " IN (" + strings.Join(items, ", ") + "))"
}
func (l Like) String() string {
	return "(" + l.X.String() + " LIKE '" + l.Pattern + "')"
}
func (n IsNull) String() string {
	if n.Negate {
		return "(" + n.X.String() + " IS NOT NULL)"
	}
	return "(" + n.X.String() + " IS NULL)"
}

func (c Col) walk(f func(Node) bool) bool { return f(c) }
func (l Lit) walk(f func(Node) bool) bool { return f(l) }
func (b Bin) walk(f func(Node) bool) bool {
	return f(b) && b.L.walk(f) && b.R.walk(f)
}
func (u Un) walk(f func(Node) bool) bool { return f(u) && u.X.walk(f) }
func (c Call) walk(f func(Node) bool) bool {
	if !f(c) {
		return false
	}
	for _, a := range c.Args {
		if !a.walk(f) {
			return false
		}
	}
	return true
}
func (b Between) walk(f func(Node) bool) bool {
	return f(b) && b.X.walk(f) && b.Lo.walk(f) && b.Hi.walk(f)
}
func (i In) walk(f func(Node) bool) bool {
	if !f(i) {
		return false
	}
	if !i.X.walk(f) {
		return false
	}
	for _, a := range i.List {
		if !a.walk(f) {
			return false
		}
	}
	return true
}
func (l Like) walk(f func(Node) bool) bool   { return f(l) && l.X.walk(f) }
func (n IsNull) walk(f func(Node) bool) bool { return f(n) && n.X.walk(f) }

// Walk visits n and all descendants in preorder; the visitor returns false
// to stop early.
func Walk(n Node, f func(Node) bool) {
	if n != nil {
		n.walk(f)
	}
}

// ColumnsOf returns every column reference appearing in n, in visit order
// (duplicates included).
func ColumnsOf(n Node) []Col {
	var cols []Col
	Walk(n, func(x Node) bool {
		if c, ok := x.(Col); ok {
			cols = append(cols, c)
		}
		return true
	})
	return cols
}

// Tables returns the set of table qualifiers referenced by n. Unqualified
// references yield the empty string entry.
func Tables(n Node) map[string]bool {
	out := map[string]bool{}
	for _, c := range ColumnsOf(n) {
		out[strings.ToLower(c.Table)] = true
	}
	return out
}

// RefersOnly reports whether every column in n is qualified by one of the
// given tables (case-insensitive). Unqualified references count as not
// covered, so callers can be conservative when pushing conditions.
func RefersOnly(n Node, tables map[string]bool) bool {
	ok := true
	Walk(n, func(x Node) bool {
		if c, ok2 := x.(Col); ok2 {
			if c.Table == "" || !tables[strings.ToLower(c.Table)] {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// MapCols returns a copy of n with every column reference replaced by
// f's result; everything else is kept as it is.
func MapCols(n Node, f func(Col) Col) Node {
	switch x := n.(type) {
	case Col:
		return f(x)
	case Bin:
		return Bin{Op: x.Op, L: MapCols(x.L, f), R: MapCols(x.R, f)}
	case Un:
		return Un{Op: x.Op, X: MapCols(x.X, f)}
	case Call:
		args := make([]Node, len(x.Args))
		for i, a := range x.Args {
			args[i] = MapCols(a, f)
		}
		return Call{Name: x.Name, Args: args}
	case Between:
		return Between{X: MapCols(x.X, f), Lo: MapCols(x.Lo, f), Hi: MapCols(x.Hi, f)}
	case In:
		list := make([]Node, len(x.List))
		for i, a := range x.List {
			list[i] = MapCols(a, f)
		}
		return In{X: MapCols(x.X, f), List: list}
	case Like:
		return Like{X: MapCols(x.X, f), Pattern: x.Pattern}
	case IsNull:
		return IsNull{X: MapCols(x.X, f), Negate: x.Negate}
	default:
		return n
	}
}

// Conjuncts splits an AND tree into its conjuncts.
func Conjuncts(n Node) []Node {
	if n == nil {
		return nil
	}
	if b, ok := n.(Bin); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Node{n}
}

// AndAll combines conditions into a right-leaning AND tree; nil for empty.
func AndAll(ns []Node) Node {
	var out Node
	for i := len(ns) - 1; i >= 0; i-- {
		if ns[i] == nil {
			continue
		}
		if out == nil {
			out = ns[i]
		} else {
			out = Bin{Op: OpAnd, L: ns[i], R: out}
		}
	}
	return out
}

// Equal reports structural equality of two expression trees.
func Equal(a, b Node) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}

// Eq builds column = literal, the most common condition shape.
func Eq(col string, v types.Value) Node {
	t, n := splitRef(col)
	return Bin{Op: OpEq, L: Col{Table: t, Name: n}, R: Lit{Val: v}}
}

// Cmp builds column <op> literal.
func Cmp(col string, op Op, v types.Value) Node {
	t, n := splitRef(col)
	return Bin{Op: op, L: Col{Table: t, Name: n}, R: Lit{Val: v}}
}

// ColRef builds a column reference from "table.name" or "name".
func ColRef(ref string) Col {
	t, n := splitRef(ref)
	return Col{Table: t, Name: n}
}

func splitRef(ref string) (string, string) {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return "", ref
}
